// The waveform BodyChannel of core::MakeWaveformChannel, recomposed from
// the library's public PHY, frame and pipeline calls so the traced run
// can put a span around each PHY stage (modulate, impair, sync, demod,
// despread, header decode). It must reproduce MakeWaveformChannel bit
// for bit: the self-check compares the two on the same inputs, and the
// traced run's digest must equal the untraced run's, which uses the
// library channel.
#pragma once

#include <cstdint>

#include "arq/link_sim.h"
#include "ppr/link.h"
#include "trace.h"

namespace perfbench {

// PHY counts read at the same boundaries as the spans.
struct WaveCounts {
  std::uint64_t transmissions = 0;
  std::uint64_t sync_samples = 0;  // samples scanned by FindPeaks
  std::uint64_t sync_hits = 0;     // preamble + postamble peaks
  std::uint64_t frames = 0;        // transmissions whose frame was found
  std::uint64_t postamble_frames = 0;
};

// Only the single-listener, unit-gain geometry MakeWaveformChannel uses
// is reproduced. `recorder` may be null; `counts` must outlive the
// channel.
ppr::arq::BodyChannel MakeTracedWaveformChannel(
    const ppr::core::WaveformChannelParams& params, Recorder* recorder,
    WaveCounts* counts);

}  // namespace perfbench
