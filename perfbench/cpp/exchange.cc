#include "exchange.h"

#include <limits>
#include <memory>
#include <utility>

#include "arq/chunking.h"
#include "arq/feedback.h"
#include "arq/recovery_session.h"
#include "softphy/classifier.h"
#include "softphy/runlength.h"

namespace perfbench {
namespace {

namespace arq = ppr::arq;
namespace phy = ppr::phy;
using ppr::BitVec;

class TimedSender : public arq::RecoverySender {
 public:
  TimedSender(std::unique_ptr<arq::RecoverySender> inner, Recorder* recorder,
              ArqCounts* counts)
      : inner_(std::move(inner)), recorder_(recorder), counts_(counts) {}

  arq::RepairPlan HandleFeedback(const BitVec& wire) override {
    Scope s(recorder_, Layer::kArqRepair);
    auto plan = inner_->HandleFeedback(wire);
    counts_->repair_bits += plan.wire_bits;
    return plan;
  }

 private:
  std::unique_ptr<arq::RecoverySender> inner_;
  Recorder* recorder_;
  ArqCounts* counts_;
};

// Mirrors the chunk receiver's per-codeword hint merge (PpArqReceiver)
// so the traced run can hand the inner SoftPHY and chunking functions
// the same inputs the receiver gives them.
class HintShadow {
 public:
  HintShadow(std::size_t codewords, double eta)
      : hints_(codewords, std::numeric_limits<double>::infinity()),
        eta_(eta) {}

  void Initial(const std::vector<phy::DecodedSymbol>& symbols) {
    for (std::size_t i = 0; i < symbols.size() && i < hints_.size(); ++i) {
      if (symbols[i].hint <= hints_[i]) hints_[i] = symbols[i].hint;
    }
  }

  void Repair(const std::vector<arq::ReceivedRepairFrame>& frames) {
    for (const auto& f : frames) {
      if (f.symbols.size() != f.range.length ||
          f.range.offset + f.range.length > hints_.size()) {
        continue;
      }
      const bool solicited = arq::CoveredByRequests(f.range, requests_);
      for (std::size_t k = 0; k < f.range.length; ++k) {
        double& stored = hints_[f.range.offset + k];
        const double hint = f.symbols[k].hint;
        bool take = hint <= stored;
        if (!solicited && !take) {
          if (hint <= eta_) {
            take = true;
          } else {
            stored = std::numeric_limits<double>::infinity();
          }
        }
        if (take) stored = hint;
      }
    }
  }

  std::vector<phy::DecodedSymbol> Symbols() const {
    std::vector<phy::DecodedSymbol> out(hints_.size());
    for (std::size_t i = 0; i < hints_.size(); ++i) out[i].hint = hints_[i];
    return out;
  }

  void SetRequests(std::vector<arq::CodewordRange> requests) {
    requests_ = std::move(requests);
  }
  std::size_t size() const { return hints_.size(); }

 private:
  std::vector<double> hints_;
  std::vector<arq::CodewordRange> requests_;
  double eta_;
};

class TimedReceiver : public arq::RecoveryReceiver {
 public:
  TimedReceiver(std::unique_ptr<arq::RecoveryReceiver> inner,
                const arq::PpArqConfig& config, std::size_t codewords,
                Recorder* recorder, ArqCounts* counts)
      : inner_(std::move(inner)),
        config_(config),
        recorder_(recorder),
        counts_(counts) {
    if (recorder_ &&
        config.recovery == arq::RecoveryMode::kChunkRetransmit) {
      shadow_ = std::make_unique<HintShadow>(codewords, config.eta);
    }
  }

  void IngestInitial(const std::vector<phy::DecodedSymbol>& symbols) override {
    {
      Scope s(recorder_, Layer::kArqIngest);
      inner_->IngestInitial(symbols);
    }
    if (shadow_) shadow_->Initial(symbols);
  }

  bool Complete() const override { return inner_->Complete(); }

  std::optional<BitVec> BuildFeedbackWire() override {
    std::optional<BitVec> wire;
    std::int32_t span = -1;
    {
      Scope s(recorder_, Layer::kArqFeedback);
      wire = inner_->BuildFeedbackWire();
      span = s.id();
    }
    if (wire.has_value()) {
      ++counts_->rounds;
      counts_->feedback_bits += wire->size();
      if (shadow_) Replay(span, *wire);
    }
    return wire;
  }

  void IngestRepair(const std::vector<arq::ReceivedRepairFrame>& frames) override {
    {
      Scope s(recorder_, Layer::kArqApply);
      inner_->IngestRepair(frames);
    }
    if (shadow_) shadow_->Repair(frames);
  }

  BitVec AssembledPayload() const override { return inner_->AssembledPayload(); }
  std::size_t rounds() const override { return inner_->rounds(); }

 private:
  // Re-runs the inner public functions BuildFeedbackWire calls, on the
  // same hints, outside the feedback span; their durations are recorded
  // as children of that span, and the replay itself is excluded from
  // operation wall time.
  void Replay(std::int32_t feedback_span, const BitVec& wire) {
    std::uint64_t label_ns = 0;
    std::uint64_t chunk_ns = 0;
    bool labelled = false;
    bool chunked = false;
    {
      Scope s(recorder_, Layer::kReplay);
      const auto decoded = arq::DecodeFeedback(
          wire, shadow_->size(), config_.bits_per_codeword,
          config_.checksum_bits);
      if (!decoded.has_value()) {
        ++counts_->replay_mismatches;
        return;
      }
      const auto& requests = decoded->feedback.requests;
      // PpArqReceiver labels and chunks only before it escalates to a
      // full-body request.
      if (inner_->rounds() <= config_.max_partial_rounds) {
        const auto symbols = shadow_->Symbols();
        const ppr::softphy::ThresholdClassifier classifier(config_.eta);
        const std::uint64_t t0 = NowNs();
        const auto runs =
            ppr::softphy::ToRunLengthForm(classifier.Label(symbols));
        const std::uint64_t t1 = NowNs();
        label_ns = t1 - t0;
        labelled = true;
        ++counts_->label_replays;
        counts_->bad_runs += runs.NumBadRuns();
        std::vector<arq::CodewordRange> expected;
        if (runs.AllGood()) {
          expected.push_back({0, shadow_->size()});
        } else {
          arq::ChunkingConfig chunk_config;
          chunk_config.packet_bits =
              shadow_->size() * config_.bits_per_codeword;
          chunk_config.checksum_bits = config_.checksum_bits;
          chunk_config.bits_per_codeword = config_.bits_per_codeword;
          const std::uint64_t t2 = NowNs();
          const auto chunking = arq::ComputeOptimalChunks(runs, chunk_config);
          chunk_ns = NowNs() - t2;
          chunked = true;
          ++counts_->chunking_replays;
          counts_->chunks += chunking.chunks.size();
          for (const auto& c : chunking.chunks) {
            expected.push_back({c.offset_codewords, c.length_codewords});
          }
        }
        if (expected != requests) ++counts_->replay_mismatches;
      }
      shadow_->SetRequests(requests);
    }
    if (labelled) {
      recorder_->AddReplayed(feedback_span, Layer::kSoftphyLabel, 0, label_ns);
    }
    if (chunked) {
      recorder_->AddReplayed(feedback_span, Layer::kArqChunking, label_ns,
                             chunk_ns);
    }
  }

  std::unique_ptr<arq::RecoveryReceiver> inner_;
  arq::PpArqConfig config_;
  Recorder* recorder_;
  ArqCounts* counts_;
  std::unique_ptr<HintShadow> shadow_;
};

}  // namespace

ExchangeResult RunExchange(const BitVec& payload, const arq::PpArqConfig& config,
                           const arq::RecoveryStrategy& strategy,
                           const arq::BodyChannel& channel, Recorder* recorder,
                           ArqCounts* counts) {
  ExchangeResult result;
  std::unique_ptr<arq::RecoverySession> session;
  const TimedReceiver* receiver = nullptr;
  {
    Scope s(recorder, Layer::kArqSession);
    const BitVec body = arq::PpArqSender::MakeBody(payload);
    const std::size_t codewords = body.size() / config.bits_per_codeword;
    arq::SessionConfig topology;
    topology.edges.push_back(
        {arq::kSessionSourceId, arq::kSessionDestinationId, channel});
    session = std::make_unique<arq::RecoverySession>(std::move(topology));
    const auto source = session->AddParty(arq::MakeSenderParticipant(
        std::make_unique<TimedSender>(strategy.MakeSender(body, /*seq=*/1),
                                      recorder, counts)));
    auto timed = std::make_unique<TimedReceiver>(
        strategy.MakeReceiver(/*seq=*/1, codewords), config, codewords,
        recorder, counts);
    receiver = timed.get();
    session->AddParty(arq::MakeReceiverParticipant(std::move(timed)));
    session->TransmitInitial(source, body);
    const auto run = session->Run(/*max_rounds=*/32);
    result.stats = run.totals;
    result.rounds = run.rounds;
  }
  result.payload_match =
      result.stats.success && receiver->AssembledPayload() == payload;
  return result;
}

arq::BodyChannel TimeChannel(arq::BodyChannel channel, Layer layer,
                             Recorder* recorder) {
  if (!recorder) return channel;
  return [channel = std::move(channel), layer, recorder](const BitVec& bits) {
    Scope s(recorder, layer);
    return channel(bits);
  };
}

}  // namespace perfbench
