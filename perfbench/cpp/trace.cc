#include "trace.h"

#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kReplay: return "bench.replay";
    case Layer::kPprChannel: return "ppr.channel";
    case Layer::kPhyModulate: return "phy.modulate";
    case Layer::kPhyImpair: return "phy.impair";
    case Layer::kPhySync: return "phy.sync";
    case Layer::kPhyDemod: return "phy.demod";
    case Layer::kPhyDespread: return "phy.despread";
    case Layer::kFrameHeader: return "frame.header";
    case Layer::kPhyChipChannel: return "phy.chip_channel";
    case Layer::kArqSession: return "arq.session";
    case Layer::kArqIngest: return "arq.ingest";
    case Layer::kArqFeedback: return "arq.feedback";
    case Layer::kSoftphyLabel: return "softphy.label";
    case Layer::kArqChunking: return "arq.chunking";
    case Layer::kArqRepair: return "arq.repair";
    case Layer::kArqApply: return "arq.apply";
    case Layer::kEngineSpawn: return "engine.spawn";
    case Layer::kEngineRun: return "engine.run";
    case Layer::kCount: break;
  }
  return "?";
}

Ledger Recorder::BuildLedger() const {
  Ledger ledger;
  for (const Span& s : spans_) {
    auto& totals = ledger.layers[static_cast<std::size_t>(s.layer)];
    ++totals.calls;
    totals.self_ns += s.dur_ns - s.child_ns;
    if (s.layer == Layer::kOp) {
      ++ledger.ops;
      ledger.op_wall_ns += s.dur_ns;
    } else if (s.layer == Layer::kReplay) {
      ledger.op_wall_ns -= s.dur_ns;
    }
  }
  return ledger;
}

bool Recorder::WriteChromeTrace(const std::string& path,
                                std::size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  const std::size_t n = spans_.size() < max_spans ? spans_.size() : max_spans;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"args\":{\"op\":%u,\"parent\":%d,\"replayed\":%d,"
                 "\"span\":%zu},\"cat\":\"perfbench\",\"dur\":%.3f,"
                 "\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f}",
                 i == 0 ? "" : ",", s.op, s.parent, s.replayed ? 1 : 0, i,
                 static_cast<double>(s.dur_ns) / 1e3, LayerName(s.layer),
                 static_cast<double>(s.start_ns - t0) / 1e3);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
