// One two-party PP-ARQ exchange, driven through the library's session
// engine exactly as arq::RunRecoveryExchangeSession drives it, with the
// strategy's sender and receiver wrapped so each public call gets a span
// and the assembled payload can be checked against the sent bytes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "arq/link_sim.h"
#include "arq/recovery_strategy.h"
#include "common/bitvec.h"
#include "trace.h"

namespace perfbench {

// Counts read at the arq boundaries (traced run only, except rounds).
struct ArqCounts {
  std::uint64_t rounds = 0;
  std::uint64_t feedback_bits = 0;
  std::uint64_t repair_bits = 0;
  std::uint64_t label_replays = 0;  // feedback calls that labelled codewords
  std::uint64_t bad_runs = 0;
  std::uint64_t chunking_replays = 0;
  std::uint64_t chunks = 0;
  // A replayed inner call disagreed with the outer call's output.
  std::uint64_t replay_mismatches = 0;
};

struct ExchangeResult {
  ppr::arq::ArqRunStats stats;
  std::size_t rounds = 0;
  bool payload_match = false;
};

// `channel` is used as given; wrap it with TimeChannel for a span.
// Under a recorder and kChunkRetransmit, each feedback call is followed
// by a replay of ThresholdClassifier::Label + ToRunLengthForm and
// ComputeOptimalChunks on the receiver's codeword hints; their times
// become children of the arq.feedback span, and their result is
// checked against the feedback wire.
ExchangeResult RunExchange(const ppr::BitVec& payload,
                           const ppr::arq::PpArqConfig& config,
                           const ppr::arq::RecoveryStrategy& strategy,
                           const ppr::arq::BodyChannel& channel,
                           Recorder* recorder, ArqCounts* counts);

// Wraps `channel` in a span of `layer` (unchanged when recorder is null).
ppr::arq::BodyChannel TimeChannel(ppr::arq::BodyChannel channel, Layer layer,
                                  Recorder* recorder);

}  // namespace perfbench
