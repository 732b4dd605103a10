// End-to-end packet-recovery benchmark: four seeded, single-threaded,
// closed-loop workloads through the library's public entry points.
//
//   perfbench --workload W --seed N --seconds S [--trace 0|1]
//             [--units N] [--trace-out PATH] [--setup-only] [--check-library]
//
// Prints one JSON line: the run header, correctness counts, the digest
// of one pass and the metrics (end-to-end with --trace 0, the
// per-layer ledger with --trace 1). --units N overrides the units per
// pass; --check-library compares the exchange loop with the library's
// entry points. perfbench/run.py builds this binary and turns that line
// into the benchmark's result line.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arq/link_sim.h"
#include "arq/recovery_strategy.h"
#include "common/rng.h"
#include "engine/flow_engine.h"
#include "exchange.h"
#include "fec/gf256.h"
#include "phy/chip_sequences.h"
#include "ppr/link.h"
#include "trace.h"
#include "wave_channel.h"

namespace perfbench {
namespace {

namespace arq = ppr::arq;
namespace core = ppr::core;
namespace engine = ppr::engine;
using ppr::BitVec;
using ppr::Rng;

const std::uint64_t kMainStartNs = NowNs();

std::uint64_t SplitMix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Per-unit input seeds: a pure function of (workload seed, unit, stream),
// so unit i's inputs never depend on how many units ran before it.
std::uint64_t Derive(std::uint64_t seed, std::uint64_t unit,
                     std::uint64_t stream) {
  return SplitMix(SplitMix(SplitMix(seed) ^ unit) ^ (stream << 56));
}

// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
};

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

struct UnitResult {
  std::uint64_t ops = 0;
  std::uint64_t delivered = 0;  // payload delivered and equal to the sent one
  std::uint64_t airtime_bits = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Called before every pass over the units: a pass must start from
  // the same state so that each repeat of a unit does the same work.
  virtual void BeginPass() {}
  // Runs unit `index` (one exchange, or one wave of flows) and folds
  // its outcome into `digest`. Throws on a library error. Layer counts
  // are kept for traced executions only (non-null `recorder`).
  virtual UnitResult Run(std::uint32_t index, Recorder* recorder,
                         Digest* digest) = 0;
  // Ratios read at layer boundaries, for the traced ledger.
  virtual void CountMetrics(std::map<std::string, double>& out,
                            std::uint64_t ops, const Ledger& ledger) const = 0;
  // Distinct units a pass runs; a run repeats the pass.
  virtual std::uint32_t pass_units() const = 0;
  // Consecutive units that make up the operation a caller waits on,
  // the latency sample.
  virtual std::uint32_t latency_units() const { return 1; }
  // One operation, outside the measured sequence (set-up warm-up).
  virtual void WarmUp() {
    Digest ignored;
    Run(0, nullptr, &ignored);
  }
  // Equivalence with the library entry point / channel (self-check).
  virtual bool CheckAgainstLibrary(std::uint32_t /*units*/) { return true; }
};

// ------------------------------------------------------------ link

enum class LinkKind { kWave, kChipChunk, kChipCoded };

class LinkWorkload : public Workload {
 public:
  LinkWorkload(LinkKind kind, std::uint64_t seed) : kind_(kind), seed_(seed) {
    config_.recovery = kind == LinkKind::kChipCoded
                           ? arq::RecoveryMode::kCodedRepair
                           : arq::RecoveryMode::kChunkRetransmit;
    strategy_ = arq::MakeRecoveryStrategy(config_);
    // The Figure 16 link (bench/fig16_pparq_retx_sizes.cc).
    wave_.pipeline.modem.samples_per_chip = 4;
    wave_.pipeline.max_payload_octets = 400;
    wave_.ec_n0_db = 5.0;
    wave_.collision_probability = 0.5;
    wave_.interferer_relative_db = 3.0;
    wave_.interferer_octets = 60;
  }

  // wave_pparq: one pass takes about a minute with the current library,
  // longer than --seconds. A packet's cost depends on how many
  // retransmissions the seed's draw of collisions and noise asks for
  // (one to a dozen transmissions), so fewer distinct packets would let
  // the seed set the figures.
  std::uint32_t pass_units() const override {
    switch (kind_) {
      case LinkKind::kWave: return 100;
      case LinkKind::kChipChunk: return 600;
      case LinkKind::kChipCoded: return 200;
    }
    return 1;
  }

  // A wave_pparq latency sample is a 1000-byte message sent as four
  // back-to-back 250-byte packets, the caller waiting for all four.
  // Whether one packet needs a retransmission is close to a coin flip on
  // this link, so the per-packet time is bimodal with its median on the
  // edge between the modes; a four-packet sum is not.
  std::uint32_t latency_units() const override {
    return kind_ == LinkKind::kWave ? 4 : 1;
  }

  // One exchange of packet `index`: inputs from (seed, index).
  UnitResult Run(std::uint32_t index, Recorder* recorder,
                 Digest* digest) override {
    return Exchange(Payload(index), Derive(seed_, index, 2), recorder,
                    digest);
  }

  // wave_pparq warms up with a short exchange: a full packet would make
  // set-up time one more noisy exchange time. The chip workloads run
  // units 0-2 (on chip_pparq one packet of each size), which keeps their
  // set-up time well above the sub-millisecond noise of process start.
  void WarmUp() override {
    Digest ignored;
    if (kind_ != LinkKind::kWave) {
      for (std::uint32_t i = 0; i < 3; ++i) Run(i, nullptr, &ignored);
      return;
    }
    Rng rng(Derive(seed_, 0, 5));
    BitVec payload;
    for (int i = 0; i < 16; ++i) payload.AppendUint(rng.UniformInt(256), 8);
    Exchange(payload, Derive(seed_, 0, 6), nullptr, &ignored);
  }

  void CountMetrics(std::map<std::string, double>& out, std::uint64_t ops,
                    const Ledger& ledger) const override {
    const auto& w = wave_counts_;
    const double sync_s =
        static_cast<double>(
            ledger.layers[static_cast<std::size_t>(Layer::kPhySync)].self_ns) /
        1e9;
    out["phy.sync.msamples_per_s"] =
        sync_s > 0 ? static_cast<double>(w.sync_samples) / sync_s / 1e6 : 0.0;
    out["phy.sync.hits_per_tx"] = Ratio(w.sync_hits, w.transmissions);
    out["phy.sync.frame_yield"] = Ratio(w.frames, w.transmissions);
    out["phy.sync.postamble_frac"] = Ratio(w.postamble_frames, w.frames);
    out["arq.rounds_per_op"] = Ratio(arq_.rounds, ops);
    out["arq.feedback.bits_per_round"] = Ratio(arq_.feedback_bits, arq_.rounds);
    out["arq.repair.bits_per_round"] = Ratio(arq_.repair_bits, arq_.rounds);
    out["softphy.bad_runs_per_feedback"] =
        Ratio(arq_.bad_runs, arq_.label_replays);
    out["arq.chunking.chunks_per_feedback"] =
        Ratio(arq_.chunks, arq_.chunking_replays);
  }

  std::uint64_t replay_mismatches() const { return arq_.replay_mismatches; }

  bool CheckAgainstLibrary(std::uint32_t units) override {
    bool ok = true;
    for (std::uint32_t i = 0; i < units; ++i) {
      const BitVec payload = Payload(i);
      core::WaveformChannelParams wave = wave_;
      wave.seed = Derive(seed_, i, 2);
      arq::ArqRunStats lib;
      if (kind_ == LinkKind::kWave) {
        // core::RunWaveformPpArq draws the payload from this stream.
        Rng payload_rng(Derive(seed_, i, 1));
        lib = core::RunWaveformPpArq(payload.size() / 8, config_, wave,
                                     payload_rng);
        ok = ok && ChannelsAgree(wave, payload);
      } else {
        Rng chip_rng(Derive(seed_, i, 2));
        lib = arq::RunPpArqExchange(
            payload, config_,
            arq::MakeGilbertElliottChannel(codebook_, {}, chip_rng));
      }
      Rng chip_rng(Derive(seed_, i, 2));
      const auto channel =
          kind_ == LinkKind::kWave
              ? core::MakeWaveformChannel(wave)
              : arq::MakeGilbertElliottChannel(codebook_, {}, chip_rng);
      ArqCounts counts;
      const auto mine =
          RunExchange(payload, config_, *strategy_, channel, nullptr, &counts);
      ok = ok && mine.payload_match && lib.success == mine.stats.success &&
           lib.data_transmissions == mine.stats.data_transmissions &&
           lib.forward_bits == mine.stats.forward_bits &&
           lib.feedback_bits == mine.stats.feedback_bits &&
           lib.retransmission_bits == mine.stats.retransmission_bits;
    }
    return ok;
  }

 private:
  UnitResult Exchange(const BitVec& payload, std::uint64_t channel_seed,
                      Recorder* recorder, Digest* digest) {
    core::WaveformChannelParams wave = wave_;
    wave.seed = channel_seed;
    Rng chip_rng(channel_seed);
    arq::BodyChannel channel;
    if (kind_ == LinkKind::kWave) {
      channel = recorder
                    ? MakeTracedWaveformChannel(wave, recorder, &wave_counts_)
                    : core::MakeWaveformChannel(wave);
    } else {
      channel = TimeChannel(
          arq::MakeGilbertElliottChannel(codebook_, {}, chip_rng),
          Layer::kPhyChipChannel, recorder);
    }
    ArqCounts untraced;
    const auto r = RunExchange(payload, config_, *strategy_, channel,
                               recorder, recorder ? &arq_ : &untraced);
    digest->Add(r.stats.success);
    digest->Add(r.payload_match);
    digest->Add(r.stats.data_transmissions);
    digest->Add(r.stats.forward_bits);
    digest->Add(r.stats.feedback_bits);
    digest->Add(r.rounds);
    UnitResult out;
    out.ops = 1;
    out.delivered = r.payload_match ? 1 : 0;
    out.airtime_bits = r.stats.forward_bits + r.stats.feedback_bits;
    return out;
  }

  std::size_t PayloadOctets(std::uint32_t index) const {
    if (kind_ == LinkKind::kWave) return 250;
    if (kind_ == LinkKind::kChipCoded) return 1500;
    // An exactly even mix: each block of three units is a seeded
    // permutation of the three sizes.
    std::size_t sizes[3] = {64, 250, 1500};
    Rng rng(Derive(seed_, index / 3, 3));
    for (std::size_t k = 2; k > 0; --k) {
      std::swap(sizes[k], sizes[rng.UniformInt(k + 1)]);
    }
    return sizes[index % 3];
  }

  BitVec Payload(std::uint32_t index) const {
    Rng rng(Derive(seed_, index, 1));
    BitVec payload;
    const std::size_t octets = PayloadOctets(index);
    for (std::size_t i = 0; i < octets; ++i) {
      payload.AppendUint(rng.UniformInt(256), 8);
    }
    return payload;
  }

  // The recomposed channel against MakeWaveformChannel: the same two
  // transmissions (a full body, then a short repair-sized one) must
  // come back as identical codewords and hints.
  static bool ChannelsAgree(const core::WaveformChannelParams& wave,
                            const BitVec& payload) {
    const BitVec body = arq::PpArqSender::MakeBody(payload);
    const BitVec shorter = body.Slice(0, 96);
    WaveCounts counts;
    auto mine = MakeTracedWaveformChannel(wave, nullptr, &counts);
    auto lib = core::MakeWaveformChannel(wave);
    for (const BitVec* bits : {&body, &shorter}) {
      const auto a = mine(*bits);
      const auto b = lib(*bits);
      if (a.size() != b.size()) return false;
      for (std::size_t k = 0; k < a.size(); ++k) {
        if (a[k].symbol != b[k].symbol ||
            std::memcmp(&a[k].hint, &b[k].hint, sizeof(double)) != 0 ||
            a[k].hamming_distance != b[k].hamming_distance) {
          return false;
        }
      }
    }
    return true;
  }

  LinkKind kind_;
  std::uint64_t seed_;
  arq::PpArqConfig config_;
  std::unique_ptr<arq::RecoveryStrategy> strategy_;
  core::WaveformChannelParams wave_;
  ppr::phy::ChipCodebook codebook_;
  ArqCounts arq_;
  WaveCounts wave_counts_;
};

// ------------------------------------------------------------ flows

class FlowWorkload : public Workload {
 public:
  // Flows spawned together and run to completion with RunAll.
  static constexpr std::uint32_t kWaveFlows = 256;

  explicit FlowWorkload(std::uint64_t seed) : seed_(seed) { BeginPass(); }

  // Fresh engines: the shared repair-slot seeds and the event clock
  // advance across waves, so a repeated pass needs a new engine. The
  // traced run keeps a second engine for its traced executions, which
  // run the same waves in the same order as the untraced ones.
  void BeginPass() override {
    engine::EngineConfig config;
    config.seed = Derive(seed_, 0, 4);
    for (auto& e : engines_) e = std::make_unique<engine::FlowEngine>(config);
  }

  std::uint32_t pass_units() const override { return 400; }

  UnitResult Run(std::uint32_t index, Recorder* recorder,
                 Digest* digest) override {
    engine::FlowEngine& eng = *engines_[recorder ? 1 : 0];
    const engine::EngineStats before = eng.stats();
    for (std::uint32_t j = 0; j < kWaveFlows; ++j) {
      Scope s(recorder, Layer::kEngineSpawn);
      eng.SpawnFlow(static_cast<engine::FlowId>(index) * kWaveFlows + j);
    }
    {
      Scope s(recorder, Layer::kEngineRun);
      eng.RunAll();
    }
    const engine::EngineStats& after = eng.stats();
    for (const std::uint64_t v :
         {after.flows_spawned, after.flows_completed, after.flows_failed,
          after.compat_completed, after.rounds, after.repairs_sent,
          after.repairs_delivered, after.batch_calls, after.batch_bytes}) {
      digest->Add(v);
    }
    if (recorder) {
      counts_.rounds += after.rounds - before.rounds;
      counts_.repairs_sent += after.repairs_sent - before.repairs_sent;
      counts_.repairs_delivered +=
          after.repairs_delivered - before.repairs_delivered;
      counts_.batch_calls += after.batch_calls - before.batch_calls;
      counts_.batch_bytes += after.batch_bytes - before.batch_bytes;
      counts_.flows_failed += after.flows_failed - before.flows_failed;
    }
    UnitResult out;
    out.ops = after.flows_spawned - before.flows_spawned;
    // FlowEngine verifies every decoded block against its source and
    // throws on a mismatch; a completed flow is a correct delivery.
    out.delivered = after.flows_completed - before.flows_completed;
    out.airtime_bits = (after.repairs_sent - before.repairs_sent) *
                       eng.config().symbol_bytes * 8;
    return out;
  }

  void CountMetrics(std::map<std::string, double>& out, std::uint64_t ops,
                    const Ledger&) const override {
    out["engine.rounds_per_flow"] = Ratio(counts_.rounds, ops);
    out["engine.repairs_delivered_frac"] =
        Ratio(counts_.repairs_delivered, counts_.repairs_sent);
    out["engine.batch.span_bytes"] =
        Ratio(counts_.batch_bytes, counts_.batch_calls);
    out["engine.flows_failed"] = static_cast<double>(counts_.flows_failed);
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<engine::FlowEngine> engines_[2];  // untraced, traced
  engine::EngineStats counts_;  // summed over the traced waves
};

// ------------------------------------------------------------ runs

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  long units = -1;  // > 0: units per pass instead of the workload's
  std::string trace_out;
  bool setup_only = false;
  bool check_library = false;
};

// One side of a run: the untraced executions, or the traced ones.
struct LoopResult {
  std::vector<double> best_ms;  // per unit: the fastest of its repeats
  std::uint64_t passes = 0;
  std::uint64_t ops = 0;        // every execution
  std::uint64_t delivered = 0;  // every execution
  std::uint64_t unit_ns = 0;    // summed execution times
  std::uint64_t pass_ops = 0;   // the first pass
  std::uint64_t pass_airtime_bits = 0;
  std::uint32_t pass_units = 0;  // units the first pass completed
  Digest digest;                 // of the first pass
  bool ok = true;
};

// A run stops wherever it is after this long, even inside its first
// pass, so it ends within its time limit on a slow host.
constexpr double kHardCapSeconds = 120;

// Closed loop in passes: every pass runs units [0, units) in order, and
// passes repeat until `seconds` have passed; the first pass always
// completes (unless the hard cap ends it). Each repeat of a unit must
// reproduce the first pass's outcome. With a recorder, every unit runs
// twice in a row, untraced into `plain` and traced into `traced`, in
// alternating order, and the two executions must agree.
// Returns the loop's wall time in seconds.
double RunPasses(Workload& w, std::uint32_t units, double seconds,
                 LoopResult& plain, Recorder* recorder, LoopResult* traced) {
  LoopResult* sides[2] = {&plain, traced};
  for (LoopResult* r : sides) {
    if (r) r->best_ms.assign(units, std::numeric_limits<double>::infinity());
  }
  std::vector<std::uint64_t> first(units);
  const std::uint64_t t_start = NowNs();
  const auto elapsed = [t_start] {
    return static_cast<double>(NowNs() - t_start) / 1e9;
  };
  bool capped = false;
  for (std::uint32_t pass = 0; !capped; ++pass) {
    if (pass > 0 && elapsed() >= seconds) break;
    w.BeginPass();
    for (std::uint32_t i = 0; i < units; ++i) {
      if (elapsed() >= kHardCapSeconds) {
        capped = true;
        break;
      }
      for (int k = 0; k < (recorder ? 2 : 1); ++k) {
        const bool trace = recorder && (k + i) % 2 == 1;
        LoopResult& r = *sides[trace ? 1 : 0];
        Recorder* rec = trace ? recorder : nullptr;
        Digest unit_digest;
        UnitResult u;
        const std::uint64_t t0 = NowNs();
        try {
          if (rec) rec->BeginOp(i);
          Scope op(rec, Layer::kOp);
          u = w.Run(i, rec, &unit_digest);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: unit %u failed: %s\n", i, e.what());
          r.ok = false;
          u.ops = std::max<std::uint64_t>(u.ops, 1);
        }
        const std::uint64_t ns = NowNs() - t0;
        r.best_ms[i] = std::min(r.best_ms[i], static_cast<double>(ns) / 1e6);
        r.unit_ns += ns;
        r.ops += u.ops;
        r.delivered += u.delivered;
        if (pass == 0) {
          r.digest.Add(unit_digest.h);
          r.pass_ops += u.ops;
          r.pass_airtime_bits += u.airtime_bits;
          ++r.pass_units;
          if (k == 0) first[i] = unit_digest.h;
        }
        if (unit_digest.h != first[i]) {
          std::fprintf(stderr, "perfbench: unit %u changed on pass %u%s\n", i,
                       pass, trace ? " (traced)" : "");
          r.ok = false;
        }
      }
    }
    for (LoopResult* r : sides) {
      if (r) r->passes = pass + 1;
    }
  }
  return elapsed();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "wave_pparq") {
    return std::make_unique<LinkWorkload>(LinkKind::kWave, seed);
  }
  if (name == "chip_pparq") {
    return std::make_unique<LinkWorkload>(LinkKind::kChipChunk, seed);
  }
  if (name == "chip_coded") {
    return std::make_unique<LinkWorkload>(LinkKind::kChipCoded, seed);
  }
  if (name == "flow_engine") return std::make_unique<FlowWorkload>(seed);
  return nullptr;
}

// Set-up: build the workload (codebooks, strategy, engine) and run one
// warm-up operation on a fixed seed outside the measured sequence.
std::unique_ptr<Workload> SetUp(const Args& args) {
  auto w = MakeWorkload(args.workload, args.seed);
  if (!w) return nullptr;
  MakeWorkload(args.workload, 0xC0FFEE)->WarmUp();
  return w;
}

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

void PrintJson(const std::map<std::string, std::string>& header,
               const std::map<std::string, double>& metrics, bool correct,
               std::uint64_t attempted, std::uint64_t failed) {
  std::printf("{\"header\":{");
  bool first = true;
  for (const auto& [k, v] : header) {
    std::printf("%s\"%s\":%s", first ? "" : ",", k.c_str(), v.c_str());
    first = false;
  }
  std::printf("},\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"metrics\":{",
              correct ? "true" : "false", attempted, failed);
  first = true;
  for (const auto& [k, v] : metrics) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", k.c_str(), v);
    first = false;
  }
  std::printf("}}\n");
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

// Peak resident set of this process image. getrusage's ru_maxrss is
// not used: Linux carries it across execve, so it would report the
// launching interpreter's peak.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

std::map<std::string, std::string> Header(const Args& args) {
  std::map<std::string, std::string> h;
  h["gf_impl"] = Quote(std::string(
      ppr::fec::GfImplName(ppr::fec::GfActiveImpl())));
  std::string impls;
  for (const auto impl : ppr::fec::GfAvailableImpls()) {
    if (!impls.empty()) impls += ',';
    impls += Quote(std::string(ppr::fec::GfImplName(impl)));
  }
  h["gf_impls_available"] = "[" + impls + "]";
  h["compiler"] = Quote(PERFBENCH_COMPILER);
  h["build_type"] = Quote(PERFBENCH_BUILD_TYPE);
  h["nproc"] = std::to_string(std::thread::hardware_concurrency());
#if defined(PPR_OBS_OFF)
  h["obs_off"] = "true";
#else
  h["obs_off"] = "false";
#endif
  h["workload"] = Quote(args.workload);
  h["seed"] = std::to_string(args.seed);
  h["trace"] = std::to_string(args.trace);
  return h;
}

void AddTimingHeader(std::map<std::string, std::string>& h,
                     const LoopResult& r, double wall_s) {
  h["units"] = std::to_string(r.pass_units);
  h["passes"] = std::to_string(r.passes);
  h["ops"] = std::to_string(r.ops);
  h["digest"] = Quote(Hex(r.digest.h));
  h["measured_s"] = std::to_string(wall_s);
}

std::uint32_t PassUnits(const Args& args, const Workload& w) {
  return args.units > 0 ? static_cast<std::uint32_t>(args.units)
                        : w.pass_units();
}

int RunUntraced(const Args& args, Workload& w, double setup_s) {
  LoopResult r;
  const double wall_s =
      RunPasses(w, PassUnits(args, w), args.seconds, r, nullptr, nullptr);
  // Latency samples: each operation's units at their fastest repeat.
  const std::uint32_t group = w.latency_units();
  std::vector<double> sorted;
  for (std::uint32_t i = 0; i + group <= r.pass_units; i += group) {
    double ms = 0;
    for (std::uint32_t k = 0; k < group; ++k) ms += r.best_ms[i + k];
    sorted.push_back(ms);
  }
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  // The highest percentile with at least ten samples above it (the
  // largest sample when there are fewer than eleven).
  const std::size_t tail_index = n > 10 ? n - 11 : (n ? n - 1 : 0);
  const std::size_t above = n ? n - 1 - tail_index : 0;
  std::map<std::string, double> m;
  m["ops_per_s"] = static_cast<double>(r.ops) / wall_s;
  m["op_ms_p50"] = n == 0       ? 0.0
                   : n % 2 == 1 ? sorted[n / 2]
                                : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  m["op_ms_tail"] = n ? sorted[tail_index] : 0.0;
  m["delivered_frac"] =
      static_cast<double>(r.delivered) / static_cast<double>(r.ops);
  m["airtime_bits_per_op"] = static_cast<double>(r.pass_airtime_bits) /
                             static_cast<double>(r.pass_ops);
  m["setup_s"] = setup_s;
  m["peak_rss_mb"] = PeakRssMb();
  auto h = Header(args);
  AddTimingHeader(h, r, wall_s);
  h["latency_samples"] = std::to_string(n);
  h["tail_percentile"] = std::to_string(
      n ? 100.0 * static_cast<double>(n - above) / static_cast<double>(n)
        : 0.0);
  h["tail_samples_above"] = std::to_string(above);
  const bool correct = r.ok && n > 0 && r.delivered == r.ops;
  PrintJson(h, m, correct, r.ops, r.ops - r.delivered);
  return 0;
}

int RunTraced(const Args& args, Workload& w) {
  LoopResult plain;
  LoopResult traced;
  Recorder recorder;
  const double wall_s = RunPasses(w, PassUnits(args, w), args.seconds, plain,
                                  &recorder, &traced);
  const Ledger ledger = recorder.BuildLedger();

  std::map<std::string, double> m;
  const double ops = static_cast<double>(traced.ops);
  const double wall = static_cast<double>(ledger.op_wall_ns);
  std::fprintf(stderr, "ledger %s seed %" PRIu64 ": %" PRIu64
               " units, %.0f ops, %.3f ms/op\n",
               args.workload.c_str(), args.seed, ledger.ops, ops,
               wall / 1e6 / ops);
  std::fprintf(stderr, "  %-18s %10s %14s %8s\n", "layer", "calls/op",
               "self_ms/op", "share");
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const auto layer = static_cast<Layer>(i);
    if (layer == Layer::kReplay) continue;
    const auto& t = ledger.layers[i];
    const bool remainder = layer == Layer::kOp;
    const std::string name =
        remainder ? "ledger.unattributed" : LayerName(layer);
    const double self_ms = static_cast<double>(t.self_ns) / 1e6 / ops;
    const double share = wall > 0 ? static_cast<double>(t.self_ns) / wall : 0;
    if (!remainder) m[name + ".calls"] = static_cast<double>(t.calls) / ops;
    m[name + ".self_ms_per_op"] = self_ms;
    m[name + ".share"] = share;
    if (t.calls > 0) {
      std::fprintf(stderr, "  %-18s %10.3f %14.6f %8.4f\n",
                   remainder ? "(unattributed)" : name.c_str(),
                   static_cast<double>(t.calls) / ops, self_ms, share);
    }
  }
  const auto& replay = ledger.layers[static_cast<std::size_t>(Layer::kReplay)];
  std::fprintf(stderr, "  replay excluded from wall: %.6f ms/op\n",
               static_cast<double>(replay.self_ns) / 1e6 / ops);
  // Every workload reports every ratio; those its layers never reach
  // read zero.
  for (const char* name :
       {"phy.sync.msamples_per_s", "phy.sync.hits_per_tx",
        "phy.sync.frame_yield", "phy.sync.postamble_frac",
        "arq.rounds_per_op", "arq.feedback.bits_per_round",
        "arq.repair.bits_per_round", "softphy.bad_runs_per_feedback",
        "arq.chunking.chunks_per_feedback", "engine.rounds_per_flow",
        "engine.repairs_delivered_frac", "engine.batch.span_bytes",
        "engine.flows_failed"}) {
    m[name] = 0.0;
  }
  w.CountMetrics(m, traced.ops, ledger);
  // The same units, interleaved in time: traced ops/s (replay time
  // left out) over untraced ops/s.
  const double plain_ns = static_cast<double>(plain.unit_ns);
  m["trace.overhead"] = plain_ns / wall;

  std::uint64_t mismatches = 0;
  if (auto* link = dynamic_cast<LinkWorkload*>(&w)) {
    mismatches = link->replay_mismatches();
  }
  auto h = Header(args);
  AddTimingHeader(h, traced, wall_s);
  h["untraced_digest"] = Quote(Hex(plain.digest.h));
  h["spans"] = std::to_string(recorder.size());
  h["replay_mismatches"] = std::to_string(mismatches);
  constexpr std::size_t kMaxExportedSpans = 50000;
  if (!args.trace_out.empty()) {
    if (!recorder.WriteChromeTrace(args.trace_out, kMaxExportedSpans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    h["trace_file"] = Quote(args.trace_out);
    h["trace_exported_spans"] =
        std::to_string(std::min(recorder.size(), kMaxExportedSpans));
  }
  const bool correct = plain.ok && traced.ok &&
                       plain.delivered == plain.ops &&
                       traced.delivered == traced.ops &&
                       plain.digest.h == traced.digest.h && mismatches == 0;
  PrintJson(h, m, correct, traced.ops, traced.ops - traced.delivered);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--setup-only") {
      a.setup_only = true;
    } else if (k == "--check-library") {
      a.check_library = true;
    } else if (!has_value) {
      return false;
    } else if (k == "--workload") {
      a.workload = argv[++i];
    } else if (k == "--seed") {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(argv[++i]);
    } else if (k == "--units") {
      a.units = std::atol(argv[++i]);
    } else if (k == "--trace-out") {
      a.trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && a.units != 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "[--trace 0|1] [--units N] [--trace-out PATH] "
                 "[--setup-only] [--check-library]\n");
    return 2;
  }
  try {
    auto w = SetUp(args);
    if (!w) {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   args.workload.c_str());
      return 2;
    }
    const double setup_s = static_cast<double>(NowNs() - kMainStartNs) / 1e9;
    if (args.setup_only) {
      std::printf("{\"setup_s\":%.17g}\n", setup_s);
      return 0;
    }
    if (args.check_library) {
      const bool ok = w->CheckAgainstLibrary(
          args.units >= 0 ? static_cast<std::uint32_t>(args.units) : 2);
      std::printf("{\"library_equivalent\":%s}\n", ok ? "true" : "false");
      return ok ? 0 : 1;
    }
    return args.trace ? RunTraced(args, *w) : RunUntraced(args, *w, setup_s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
