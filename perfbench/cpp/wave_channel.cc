#include "wave_channel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <optional>

#include "common/rng.h"
#include "frame/frame_format.h"
#include "phy/channel.h"
#include "phy/despreader.h"
#include "phy/frame_sync.h"
#include "phy/msk_modem.h"
#include "phy/spreader.h"
#include "ppr/receiver_pipeline.h"

namespace perfbench {
namespace {

using ppr::BitVec;
using ppr::core::RecoveredFrame;
namespace phy = ppr::phy;
namespace frame = ppr::frame;

constexpr std::int64_t kChipsPerOctet = 2 * phy::kChipsPerSymbol;

phy::SampleVec ModulatePattern(const phy::ModemConfig& modem,
                               const std::vector<std::uint8_t>& octets) {
  const phy::ChipCodebook codebook;
  const phy::MskModulator modulator(modem);
  return modulator.Modulate(
      phy::SpreadBits(codebook, BitVec::FromBytes(octets)));
}

class TracedWaveLink {
 public:
  TracedWaveLink(const ppr::core::WaveformChannelParams& params,
                 Recorder* recorder, WaveCounts* counts)
      : params_(params),
        modulator_(params.pipeline.modem),
        demod_(params.pipeline.modem),
        preamble_(ModulatePattern(params.pipeline.modem,
                                  frame::PreamblePatternOctets())),
        postamble_(ModulatePattern(params.pipeline.modem,
                                   frame::PostamblePatternOctets())),
        rng_(params.seed),
        recorder_(recorder),
        counts_(counts) {}

  std::vector<phy::DecodedSymbol> Transmit(const BitVec& bits) {
    Scope channel_span(recorder_, Layer::kPprChannel);
    ++counts_->transmissions;
    const std::size_t nibbles = bits.size() / 4;
    BitVec padded = bits;
    while (padded.size() % 8 != 0) padded.PushBack(false);
    const auto payload = padded.ToBytes();

    frame::FrameHeader header;
    header.length = static_cast<std::uint16_t>(payload.size());
    header.dst = 2;
    header.src = 1;
    header.seq = static_cast<std::uint16_t>(++tx_index_);

    // Random draws in MakeWaveformChannel's order: carrier phase,
    // collision, burst octets, burst phase, burst offset, noise.
    const double phase = rng_.UniformDouble(0.0, 2.0 * std::numbers::pi);
    const bool collided = rng_.Bernoulli(params_.collision_probability);
    std::vector<std::uint8_t> junk(collided ? params_.interferer_octets : 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng_.UniformInt(256));

    phy::SampleVec wave;
    phy::SampleVec burst;
    {
      Scope s(recorder_, Layer::kPhyModulate);
      wave = modulator_.Modulate(header, payload);
      if (collided) burst = modulator_.ModulateOctets(junk);
    }
    const int sps = params_.pipeline.modem.samples_per_chip;
    phy::SampleVec air;
    {
      Scope s(recorder_, Layer::kPhyImpair);
      phy::ApplyCarrierOffset(wave, 0.0, phase);
      const auto guard = static_cast<std::size_t>(64 * sps);
      air.assign(wave.size() + 2 * guard, phy::Sample{0.0, 0.0});
      phy::MixInto(air, wave, guard);
      if (collided) {
        phy::ApplyCarrierOffset(
            burst, 0.0, rng_.UniformDouble(0.0, 2.0 * std::numbers::pi));
        const double gain =
            std::pow(10.0, params_.interferer_relative_db / 20.0);
        const std::size_t span =
            air.size() > burst.size() ? air.size() - burst.size() : 1;
        phy::MixInto(air, burst, rng_.UniformInt(span), gain);
      }
      const double sigma = phy::NoiseSigmaForEcN0(
          std::pow(10.0, params_.ec_n0_db / 10.0),
          params_.pipeline.modem.amplitude, sps);
      phy::AddAwgn(air, sigma, rng_);
    }

    for (const auto& f : Process(air)) {
      if (f.header.seq != header.seq || f.header.length != payload.size()) {
        continue;
      }
      auto symbols = f.PayloadSymbols();
      if (symbols.size() < nibbles) break;
      symbols.resize(nibbles);
      ++counts_->frames;
      if (f.sync == RecoveredFrame::SyncSource::kPostamble) {
        ++counts_->postamble_frames;
      }
      return symbols;
    }
    std::vector<phy::DecodedSymbol> all_bad(nibbles);
    for (auto& s : all_bad) {
      s.symbol = 0;
      s.hint = std::numeric_limits<double>::infinity();
      s.hamming_distance = phy::kChipsPerSymbol;
    }
    return all_bad;
  }

 private:
  // ReceiverPipeline::Process, stage by stage.
  std::vector<RecoveredFrame> Process(const phy::SampleVec& samples) {
    const auto& config = params_.pipeline;
    const std::size_t pattern_len = preamble_.ReferenceLength();
    std::vector<RecoveredFrame> frames;

    const auto pre_hits = FindPeaks(preamble_, samples, pattern_len);
    for (const auto& hit : pre_hits) {
      if (auto f = DecodeFromPreamble(samples, hit)) {
        frames.push_back(std::move(*f));
      }
    }
    const auto post_hits = FindPeaks(postamble_, samples, pattern_len);
    for (const auto& hit : post_hits) {
      auto f = DecodeFromPostamble(samples, hit);
      if (!f.has_value()) continue;
      const auto tolerance =
          static_cast<std::uint64_t>(4 * config.modem.samples_per_chip);
      const bool duplicate = std::any_of(
          frames.begin(), frames.end(), [&](const RecoveredFrame& g) {
            const std::uint64_t a = g.frame_start_sample;
            const std::uint64_t b = f->frame_start_sample;
            return (a > b ? a - b : b - a) <= tolerance;
          });
      if (!duplicate) frames.push_back(std::move(*f));
    }
    std::sort(frames.begin(), frames.end(),
              [](const RecoveredFrame& a, const RecoveredFrame& b) {
                return a.frame_start_sample < b.frame_start_sample;
              });
    return frames;
  }

  std::vector<phy::SyncHit> FindPeaks(const phy::WaveformCorrelator& corr,
                                      const phy::SampleVec& samples,
                                      std::size_t min_separation) {
    Scope s(recorder_, Layer::kPhySync);
    auto hits = corr.FindPeaks(samples, params_.pipeline.sync_threshold,
                               min_separation);
    counts_->sync_samples += samples.size();
    counts_->sync_hits += hits.size();
    return hits;
  }

  std::vector<phy::DecodedSymbol> DecodeSymbols(const phy::SampleVec& samples,
                                                std::int64_t chip0_sample,
                                                std::size_t num_symbols,
                                                double carrier_phase) {
    const int sps = params_.pipeline.modem.samples_per_chip;
    const phy::Sample derotate{std::cos(-carrier_phase),
                               std::sin(-carrier_phase)};
    std::vector<double> soft(num_symbols * phy::kChipsPerSymbol, 0.0);
    {
      Scope s(recorder_, Layer::kPhyDemod);
      for (std::size_t k = 0; k < soft.size(); ++k) {
        const std::int64_t base =
            chip0_sample + static_cast<std::int64_t>(k) * sps;
        const phy::Sample c =
            derotate * demod_.DemodulateChipComplexAt(samples, base);
        soft[k] = (k % 2 == 0) ? c.real() : c.imag();
      }
    }
    Scope s(recorder_, Layer::kPhyDespread);
    return phy::DespreadSoft(codebook_, soft, params_.pipeline.hint_kind);
  }

  std::optional<frame::FrameHeader> DecodeHeader(
      const std::vector<phy::DecodedSymbol>& symbols) {
    const auto octets = phy::DecodedSymbolsToBits(symbols).ToBytes();
    Scope s(recorder_, Layer::kFrameHeader);
    auto header = frame::DecodeHeader(octets);
    if (header.has_value() &&
        header->length > params_.pipeline.max_payload_octets) {
      return std::nullopt;
    }
    return header;
  }

  std::optional<RecoveredFrame> DecodeFromPreamble(
      const phy::SampleVec& samples, const phy::SyncHit& hit) {
    const int sps = params_.pipeline.modem.samples_per_chip;
    const auto frame_start = static_cast<std::int64_t>(hit.sample_offset);
    const std::int64_t header_chip0 =
        frame_start +
        static_cast<std::int64_t>(frame::kSyncPrefixOctets) * kChipsPerOctet *
            sps;
    const auto header = DecodeHeader(DecodeSymbols(
        samples, header_chip0, frame::kHeaderOctets * 2, hit.phase));
    if (!header.has_value()) return std::nullopt;
    const frame::FrameLayout layout(header->length);
    RecoveredFrame f;
    f.sync = RecoveredFrame::SyncSource::kPreamble;
    f.sync_score = hit.score;
    f.frame_start_sample = hit.sample_offset;
    f.header = *header;
    f.body_symbols = phy::ToLogicalNibbleOrder(DecodeSymbols(
        samples, header_chip0, layout.BodyOctets() * 2, hit.phase));
    return f;
  }

  std::optional<RecoveredFrame> DecodeFromPostamble(
      const phy::SampleVec& samples, const phy::SyncHit& hit) {
    const int sps = params_.pipeline.modem.samples_per_chip;
    const auto postamble_chip0 = static_cast<std::int64_t>(hit.sample_offset);
    const std::int64_t trailer_chip0 =
        postamble_chip0 -
        static_cast<std::int64_t>(frame::kTrailerOctets) * kChipsPerOctet * sps;
    const auto header = DecodeHeader(DecodeSymbols(
        samples, trailer_chip0, frame::kTrailerOctets * 2, hit.phase));
    if (!header.has_value()) return std::nullopt;
    const frame::FrameLayout layout(header->length);
    const std::int64_t frame_start =
        postamble_chip0 -
        static_cast<std::int64_t>(layout.PostambleOffset()) * kChipsPerOctet *
            sps;
    const std::int64_t header_chip0 =
        frame_start +
        static_cast<std::int64_t>(frame::kSyncPrefixOctets) * kChipsPerOctet *
            sps;
    RecoveredFrame f;
    f.sync = RecoveredFrame::SyncSource::kPostamble;
    f.sync_score = hit.score;
    f.frame_start_sample =
        frame_start < 0 ? 0 : static_cast<std::uint64_t>(frame_start);
    f.header = *header;
    f.header_from_trailer = true;
    f.body_symbols = phy::ToLogicalNibbleOrder(DecodeSymbols(
        samples, header_chip0, layout.BodyOctets() * 2, hit.phase));
    return f;
  }

  ppr::core::WaveformChannelParams params_;
  ppr::core::FrameModulator modulator_;
  phy::ChipCodebook codebook_;
  phy::MskDemodulator demod_;
  phy::WaveformCorrelator preamble_;
  phy::WaveformCorrelator postamble_;
  ppr::Rng rng_;
  std::uint64_t tx_index_ = 0;
  Recorder* recorder_;
  WaveCounts* counts_;
};

}  // namespace

ppr::arq::BodyChannel MakeTracedWaveformChannel(
    const ppr::core::WaveformChannelParams& params, Recorder* recorder,
    WaveCounts* counts) {
  auto link = std::make_shared<TracedWaveLink>(params, recorder, counts);
  return [link](const BitVec& bits) { return link->Transmit(bits); };
}

}  // namespace perfbench
