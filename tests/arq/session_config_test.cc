// SessionConfig + RunRound stepping: the immutable-topology
// constructor validates the roster at first traffic, and stepping a
// session one RunRound at a time must equal the blocking Run() loop
// exactly.
#include "arq/recovery_session.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "arq/link_sim.h"
#include "arq/pp_arq.h"
#include "arq/recovery_strategy.h"
#include "common/rng.h"
#include "phy/chip_sequences.h"

namespace ppr::arq {
namespace {

BitVec RandomPayload(Rng& rng, std::size_t octets) {
  BitVec bits;
  for (std::size_t i = 0; i < octets * 8; ++i) {
    bits.PushBack(rng.Bernoulli(0.5));
  }
  return bits;
}

GilbertElliottParams DegradedParams() {
  GilbertElliottParams params;
  params.p_good_to_bad = 0.03;
  params.p_bad_to_good = 0.12;
  params.chip_error_good = 0.004;
  params.chip_error_bad = 0.25;
  return params;
}

GilbertElliottParams StrongParams() {
  GilbertElliottParams params;
  params.p_good_to_bad = 0.001;
  params.p_bad_to_good = 0.5;
  params.chip_error_good = 0.0005;
  params.chip_error_bad = 0.05;
  return params;
}

bool StatsEqual(const SessionRunStats& a, const SessionRunStats& b) {
  if (a.totals.success != b.totals.success ||
      a.totals.data_transmissions != b.totals.data_transmissions ||
      a.totals.forward_bits != b.totals.forward_bits ||
      a.totals.feedback_bits != b.totals.feedback_bits ||
      a.totals.retransmission_bits != b.totals.retransmission_bits ||
      a.rounds != b.rounds ||
      a.max_round_relay_bits != b.max_round_relay_bits ||
      a.relay_deferrals != b.relay_deferrals ||
      a.parties.size() != b.parties.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.parties.size(); ++i) {
    if (a.parties[i].repair_bits != b.parties[i].repair_bits ||
        a.parties[i].repair_messages != b.parties[i].repair_messages ||
        a.parties[i].feedback_bits != b.parties[i].feedback_bits) {
      return false;
    }
  }
  return true;
}

// One lossy three-party exchange, driven either by Run(32)
// (stepped=false) or by RunRound stepping (stepped=true). Both must
// produce identical stats.
SessionRunStats RunGoldenExchange(bool stepped) {
  const phy::ChipCodebook cb;
  Rng prng(731);
  const BitVec payload = RandomPayload(prng, 150);
  PpArqConfig config;
  config.recovery = RecoveryMode::kRelayCodedRepair;
  config.relay_parties = 1;
  const auto strategy = MakeRecoveryStrategy(config);
  const BitVec body = PpArqSender::MakeBody(payload);
  const std::size_t total_codewords = body.size() / config.bits_per_codeword;

  Rng direct(732), overhear(733), hop(734);
  auto direct_ch = MakeGilbertElliottChannel(cb, DegradedParams(), direct);
  auto overhear_ch = MakeGilbertElliottChannel(cb, StrongParams(), overhear);
  auto hop_ch = MakeGilbertElliottChannel(cb, StrongParams(), hop);

  SessionConfig topology;
  topology.edges.push_back(
      {kSessionSourceId, kSessionDestinationId, direct_ch});
  topology.edges.push_back({kSessionSourceId, kSessionRelayId, overhear_ch});
  topology.edges.push_back({kSessionRelayId, kSessionDestinationId, hop_ch});
  RecoverySession session(std::move(topology));
  session.AddParty(strategy->MakeSourceParticipant(body, 1));
  session.AddParty(strategy->MakeDestinationParticipant(1, total_codewords));
  session.AddParty(strategy->MakeRelayParticipant(1, 1, total_codewords));
  session.TransmitInitial(kSessionSourceId, body);
  if (!stepped) return session.Run(32);
  for (std::size_t round = 0; round < 32; ++round) {
    if (!session.RunRound()) return session.stats();
  }
  return session.Conclude();
}

TEST(SessionConfigTest, RunRoundSteppingEqualsBlockingRun) {
  const SessionRunStats blocking = RunGoldenExchange(/*stepped=*/false);
  const SessionRunStats stepped = RunGoldenExchange(/*stepped=*/true);
  ASSERT_TRUE(blocking.totals.success);
  EXPECT_TRUE(StatsEqual(blocking, stepped));
}

TEST(SessionConfigTest, ConstructionRejectsDegenerateTopology) {
  SessionConfig self_loop;
  self_loop.edges.push_back({1, 1, BodyChannel{}});
  EXPECT_THROW(RecoverySession{std::move(self_loop)}, std::invalid_argument);

  SessionConfig null_broadcast;
  null_broadcast.initial_broadcast =
      SessionBroadcast{0, {1}, BroadcastBodyChannel{}};
  EXPECT_THROW(RecoverySession{std::move(null_broadcast)},
               std::invalid_argument);
}

// Config edges may name parties that do not exist yet — validation
// waits until traffic first moves, then rejects the unknown party.
TEST(SessionConfigTest, UnknownPartyIsRejectedAtFirstTraffic) {
  const phy::ChipCodebook cb;
  Rng prng(741);
  const BitVec payload = RandomPayload(prng, 40);
  PpArqConfig config;
  config.recovery = RecoveryMode::kCodedRepair;
  const auto strategy = MakeRecoveryStrategy(config);
  const BitVec body = PpArqSender::MakeBody(payload);

  SessionConfig topology;
  Rng channel_rng(742);
  topology.edges.push_back(
      {kSessionSourceId, /*to=*/7,
       MakeGilbertElliottChannel(cb, StrongParams(), channel_rng)});
  RecoverySession session{std::move(topology)};
  session.AddParty(strategy->MakeSourceParticipant(body, 1));
  session.AddParty(strategy->MakeDestinationParticipant(
      1, body.size() / config.bits_per_codeword));
  EXPECT_THROW(session.TransmitInitial(kSessionSourceId, body),
               std::invalid_argument);
}

}  // namespace
}  // namespace ppr::arq
