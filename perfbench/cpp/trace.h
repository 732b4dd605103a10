// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened and closed by the benchmark's own code around calls
// into the library's public functions; they nest through an explicit
// stack, carry the operation they belong to and their parent span, and
// stay in memory until the run ends. A layer's self time is its span's
// duration minus the time its child spans cover.
//
// A null recorder makes every Scope a no-op, so the untraced run
// executes the same benchmark code with one branch per span site.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench {

// Every span name the ledger knows. kOp is the operation itself (its
// self time is the unattributed remainder), kReplay the traced run's
// re-execution of inner functions (excluded from operation wall time).
enum class Layer : std::uint8_t {
  kOp,
  kReplay,
  kPprChannel,
  kPhyModulate,
  kPhyImpair,
  kPhySync,
  kPhyDemod,
  kPhyDespread,
  kFrameHeader,
  kPhyChipChannel,
  kArqSession,
  kArqIngest,
  kArqFeedback,
  kSoftphyLabel,
  kArqChunking,
  kArqRepair,
  kArqApply,
  kEngineSpawn,
  kEngineRun,
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

const char* LayerName(Layer layer);

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  Layer layer = Layer::kOp;
  bool replayed = false;  // duration measured on a replay, placed inside
                          // its parent's interval
  std::uint32_t op = 0;
  std::int32_t parent = -1;  // index into the span list, -1 = root
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t child_ns = 0;  // time covered by direct children
};

struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t self_ns = 0;
};

struct Ledger {
  std::uint64_t ops = 0;
  std::uint64_t op_wall_ns = 0;  // operation spans minus replay time
  std::array<LayerTotals, kLayerCount> layers{};
};

class Recorder {
 public:
  void BeginOp(std::uint32_t op) { op_ = op; }

  std::int32_t Open(Layer layer) {
    Span s;
    s.layer = layer;
    s.op = op_;
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(s);
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    // Read last, so the bookkeeping above is not charged to this span.
    spans_.back().start_ns = NowNs();
    return id;
  }

  void Close(std::int32_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.dur_ns = NowNs() - s.start_ns;
    stack_.pop_back();
    if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child_ns += s.dur_ns;
  }

  // Records a child of span `parent` whose duration was measured
  // elsewhere (a replay of an inner public function), placed
  // `offset_ns` after the parent's start.
  void AddReplayed(std::int32_t parent, Layer layer, std::uint64_t offset_ns,
                   std::uint64_t dur_ns) {
    Span s;
    s.layer = layer;
    s.replayed = true;
    s.op = op_;
    s.parent = parent;
    Span& p = spans_[static_cast<std::size_t>(parent)];
    s.start_ns = p.start_ns + offset_ns;
    s.dur_ns = dur_ns;
    p.child_ns += dur_ns;
    spans_.push_back(s);
  }

  Ledger BuildLedger() const;

  // Chrome trace (chrome://tracing, Perfetto) of the first `max_spans`
  // spans, in the key-sorted layout bench/validate_trace.py checks.
  bool WriteChromeTrace(const std::string& path, std::size_t max_spans) const;

  std::size_t size() const { return spans_.size(); }

 private:
  // A deque never moves its spans, so a growing list costs no copies
  // that would land inside an open span.
  std::deque<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t op_ = 0;
};

// RAII span; a no-op when the recorder is null.
class Scope {
 public:
  Scope(Recorder* recorder, Layer layer)
      : recorder_(recorder), id_(recorder ? recorder->Open(layer) : -1) {}
  ~Scope() {
    if (recorder_) recorder_->Close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int32_t id() const { return id_; }

 private:
  Recorder* recorder_;
  std::int32_t id_;
};

}  // namespace perfbench
