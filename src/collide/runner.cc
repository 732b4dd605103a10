#include "collide/runner.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "arq/pp_arq.h"
#include "arq/recovery_session.h"
#include "obs/obs.h"

namespace ppr::collide {

CollisionExchangeOutcome RunCollisionRecoveryExchange(
    const BitVec& payload_bits, const arq::RecoveryStrategy& strategy,
    const arq::BodyChannel& repair_channel,
    const CollisionEpisodeParams& episode_params, Rng& episode_rng,
    const CollisionListenerConfig& listener_config, bool resolve,
    std::size_t max_rounds) {
  CollisionExchangeOutcome out;
  const phy::ChipCodebook codebook;
  const std::uint16_t seq = 1;
  const BitVec body = arq::PpArqSender::MakeBody(payload_bits);

  const CollisionEpisode episode =
      DrawCollisionEpisode(codebook, body, episode_params, episode_rng);

  // The initial delivery is the first capture; repairs cross the
  // caller's channel (by reference, so its loss process advances).
  arq::SessionConfig topology;
  topology.edges.push_back(
      {arq::kSessionSourceId, arq::kSessionDestinationId,
       [&repair_channel](const BitVec& bits) { return repair_channel(bits); }});
  topology.initial_broadcast = arq::SessionBroadcast{
      arq::kSessionSourceId,
      {arq::kSessionDestinationId},
      [&episode](const BitVec&) {
        return std::vector<std::vector<phy::DecodedSymbol>>{
            InitialSymbolsFromCapture(episode.first)};
      }};
  arq::RecoverySession session(std::move(topology));
  session.AddParty(arq::MakeSenderParticipant(strategy.MakeSender(body, seq)));
  auto receiver = strategy.MakeReceiver(seq, body.size() / 4);
  auto* consumer =
      dynamic_cast<arq::CollisionEquationConsumer*>(receiver.get());
  session.AddParty(arq::MakeReceiverParticipant(std::move(receiver)));
  session.TransmitInitial(arq::kSessionSourceId, body);

  if (resolve) {
    if (consumer == nullptr) {
      throw std::invalid_argument(
          "RunCollisionRecoveryExchange: strategy's receiver does not "
          "consume collision equations (use RecoveryMode::kCollisionResolve)");
    }
    CollisionListener listener(listener_config);
    const ResolvedCollision resolved = listener.Resolve(codebook, episode);
    out.collide = listener.stats();
    out.resolved_pair = resolved.a_resolved && resolved.b_resolved;
    out.equations_banked = resolved.equations.size();
    out.rank_gained = consumer->IngestCollisionEquations(resolved.equations);
    obs::Count("collide.rank_gained", out.rank_gained);
  }

  const arq::SessionRunStats stats = session.Run(max_rounds);
  out.totals = stats.totals;
  out.rounds = stats.rounds;
  // Both collided copies of A crossed the air whether or not anything
  // is distilled from them, so both legs pay the same initial budget:
  // the session charged the first, the second goes on top.
  ++out.totals.data_transmissions;
  out.totals.forward_bits += body.size();
  return out;
}

}  // namespace ppr::collide
