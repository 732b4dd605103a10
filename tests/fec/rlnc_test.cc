#include "fec/rlnc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "fec/gf256.h"

namespace ppr::fec {
namespace {

std::vector<std::uint8_t> Decoded(const RlncDecoder& d, std::size_t i) {
  const auto sym = d.Symbol(i);
  return {sym.begin(), sym.end()};
}

std::vector<std::vector<std::uint8_t>> RandomBlock(Rng& rng, std::size_t n,
                                                   std::size_t bytes) {
  std::vector<std::vector<std::uint8_t>> block(n);
  for (auto& s : block) {
    s.resize(bytes);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  }
  return block;
}

TEST(RlncTest, RepairCoefficientsAreDeterministicPerSeed) {
  const auto a = RepairCoefficients(42, 16);
  const auto b = RepairCoefficients(42, 16);
  const auto c = RepairCoefficients(43, 16);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 16u);
}

TEST(RlncTest, SystematicRoundtripNoLoss) {
  Rng rng(301);
  const auto block = RandomBlock(rng, 12, 20);
  RlncDecoder decoder(12, 20);
  for (std::size_t i = 0; i < block.size(); ++i) {
    EXPECT_TRUE(decoder.AddSource(i, block[i]));
  }
  ASSERT_TRUE(decoder.Complete());
  for (std::size_t i = 0; i < block.size(); ++i) {
    EXPECT_EQ(Decoded(decoder, i), block[i]);
  }
}

// Systematic encode -> erase a fraction of source symbols -> decode from
// the survivors plus repair symbols.
void RoundtripAtLoss(double loss, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = 32, bytes = 16;
  const auto block = RandomBlock(rng, n, bytes);
  RlncEncoder encoder(block);

  RlncDecoder decoder(n, bytes);
  std::size_t erased = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(loss)) {
      ++erased;
    } else {
      decoder.AddSource(i, block[i]);
    }
  }
  std::uint32_t next_seed = 1;
  std::size_t repairs_used = 0;
  while (!decoder.Complete()) {
    decoder.AddRepair(encoder.MakeRepair(next_seed++));
    ++repairs_used;
    ASSERT_LT(repairs_used, n + 16u) << "decoder failed to reach full rank";
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(Decoded(decoder, i), block[i]) << "loss=" << loss;
  }
  // Random GF(256) combinations are independent with high probability:
  // barely more repairs than erasures.
  EXPECT_LE(repairs_used, erased + 2) << "loss=" << loss;
}

TEST(RlncTest, RoundtripLightLoss) { RoundtripAtLoss(0.1, 302); }
TEST(RlncTest, RoundtripModerateLoss) { RoundtripAtLoss(0.4, 303); }
TEST(RlncTest, RoundtripHeavyLoss) { RoundtripAtLoss(0.8, 304); }

TEST(RlncTest, DecodesFromRepairAlone) {
  Rng rng(305);
  const std::size_t n = 10, bytes = 8;
  const auto block = RandomBlock(rng, n, bytes);
  RlncEncoder encoder(block);
  RlncDecoder decoder(n, bytes);
  std::uint32_t seed = 7;
  while (!decoder.Complete()) {
    decoder.AddRepair(encoder.MakeRepair(seed++));
    ASSERT_LT(seed, 7u + n + 8u);
  }
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(Decoded(decoder, i), block[i]);
}

TEST(RlncTest, DuplicatesDoNotIncreaseRank) {
  Rng rng(306);
  const auto block = RandomBlock(rng, 8, 4);
  RlncEncoder encoder(block);
  RlncDecoder decoder(8, 4);
  EXPECT_TRUE(decoder.AddSource(3, block[3]));
  EXPECT_FALSE(decoder.AddSource(3, block[3]));
  const auto repair = encoder.MakeRepair(99);
  EXPECT_TRUE(decoder.AddRepair(repair));
  EXPECT_FALSE(decoder.AddRepair(repair));
  EXPECT_EQ(decoder.rank(), 2u);
}

TEST(RlncTest, RejectsShapeMismatch) {
  RlncDecoder decoder(4, 8);
  EXPECT_THROW(decoder.AddEquation(std::vector<std::uint8_t>(3, 1),
                                   std::vector<std::uint8_t>(8, 0)),
               std::invalid_argument);
  EXPECT_THROW(decoder.AddEquation(std::vector<std::uint8_t>(4, 1),
                                   std::vector<std::uint8_t>(7, 0)),
               std::invalid_argument);
  EXPECT_THROW(RlncEncoder({}), std::invalid_argument);
  EXPECT_THROW(RlncEncoder({{1, 2}, {3}}), std::invalid_argument);
}

// Encode and decode must be bit-identical on every compiled GF(256)
// backend: the same repair symbols on the wire, the same rank
// progression, the same decoded block.
TEST(RlncTest, EncodeAndDecodeAreBackendInvariant) {
  struct Transcript {
    std::vector<RepairSymbol> repairs;
    std::vector<std::size_t> ranks;
    std::vector<std::vector<std::uint8_t>> decoded;
  };
  const auto run = [] {
    Rng rng(305);
    const std::size_t n = 24, bytes = 33;  // odd size: vector tails in play
    std::vector<std::vector<std::uint8_t>> block(n);
    for (auto& s : block) {
      s.resize(bytes);
      for (auto& b : s) b = static_cast<std::uint8_t>(rng.UniformInt(256));
    }
    const RlncEncoder encoder(block);
    Transcript t;
    RlncDecoder decoder(n, bytes);
    for (std::size_t i = 8; i < n; ++i) decoder.AddSource(i, block[i]);
    std::uint32_t seed = 1;
    while (!decoder.Complete()) {
      t.repairs.push_back(encoder.MakeRepair(seed++));
      decoder.AddRepair(t.repairs.back());
      t.ranks.push_back(decoder.rank());
    }
    for (std::size_t i = 0; i < n; ++i) t.decoded.push_back(Decoded(decoder, i));
    return t;
  };

  const Transcript reference = [&] {
    GfImplScope scope(GfImpl::kScalar);
    return run();
  }();
  EXPECT_EQ(reference.decoded.size(), 24u);
  for (const GfImpl impl : GfAvailableImpls()) {
    GfImplScope scope(impl);
    ASSERT_TRUE(scope.ok());
    const Transcript got = run();
    EXPECT_EQ(got.repairs, reference.repairs) << GfImplName(impl);
    EXPECT_EQ(got.ranks, reference.ranks) << GfImplName(impl);
    EXPECT_EQ(got.decoded, reference.decoded) << GfImplName(impl);
  }
}

TEST(RlncTest, ResetReturnsToRankZeroAndDecodesAgain) {
  Rng rng(99);
  const auto block = RandomBlock(rng, 8, 16);
  RlncEncoder encoder(block);
  RlncDecoder decoder(8, 16);
  for (std::uint32_t s = 0; decoder.rank() < 8; ++s) {
    decoder.AddRepair(encoder.MakeRepair(s));
  }
  ASSERT_TRUE(decoder.Complete());

  // Reset keeps the shape but drops the basis; the decoder then
  // decodes a different ingest order to the same symbols.
  decoder.Reset();
  EXPECT_EQ(decoder.rank(), 0u);
  EXPECT_FALSE(decoder.Complete());
  for (std::size_t i = 0; i < 4; ++i) decoder.AddSource(i, block[i]);
  for (std::uint32_t s = 100; decoder.rank() < 8; ++s) {
    decoder.AddRepair(encoder.MakeRepair(s));
  }
  ASSERT_TRUE(decoder.Complete());
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(Decoded(decoder, i), block[i]);
}

TEST(RlncTest, RepairCoefficientsIntoMatchesAllocatingForm) {
  for (std::uint32_t seed : {0u, 1u, 42u, 0xFFFFFFFFu}) {
    const auto want = RepairCoefficients(seed, 24);
    std::vector<std::uint8_t> got(24);
    RepairCoefficientsInto(seed, got);
    EXPECT_EQ(got, want) << "seed=" << seed;
  }
}

// The same lossy decode driven through AddEquation (owning vectors)
// and AddEquationSpan (borrowed spans) lands on identical rank
// trajectories and identical recovered symbols.
TEST(RlncTest, SpanIngestMatchesOwningIngest) {
  Rng rng(907);
  const auto block = RandomBlock(rng, 12, 40);
  const RlncEncoder encoder(block);

  RlncDecoder owning(12, 40);
  RlncDecoder span(12, 40);
  // Half the systematic symbols arrive; repairs carry the rest.
  for (std::size_t i = 0; i < 12; i += 2) {
    EXPECT_TRUE(owning.AddSource(i, block[i]));
    EXPECT_TRUE(span.AddSourceSpan(i, block[i]));
  }
  for (std::uint32_t seed = 1; !owning.Complete(); ++seed) {
    const RepairSymbol repair = encoder.MakeRepair(seed);
    const auto coefs = RepairCoefficients(seed, 12);
    const bool a = owning.AddEquation(coefs, repair.data);
    const bool b = span.AddEquationSpan(coefs, repair.data);
    EXPECT_EQ(a, b) << "seed=" << seed;
    EXPECT_EQ(owning.rank(), span.rank());
  }
  ASSERT_TRUE(span.Complete());
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(Decoded(owning, i), block[i]);
    EXPECT_EQ(Decoded(span, i), block[i]);
  }
}

TEST(RlncTest, AddRepairBatchMatchesSerialAddRepair) {
  Rng rng(919);
  const auto block = RandomBlock(rng, 10, 32);
  const RlncEncoder encoder(block);
  std::vector<RepairSymbol> repairs;
  for (std::uint32_t seed = 1; seed <= 14; ++seed) {
    repairs.push_back(encoder.MakeRepair(seed));
  }
  RlncDecoder serial(10, 32);
  RlncDecoder batched(10, 32);
  std::size_t serial_gained = 0;
  for (const auto& r : repairs) {
    if (serial.Complete()) break;  // the batch form stops here too
    if (serial.AddRepair(r)) ++serial_gained;
  }
  const std::size_t batch_gained = batched.AddRepairBatch(repairs);
  EXPECT_EQ(batch_gained, serial_gained);
  EXPECT_EQ(batched.rank(), serial.rank());
  ASSERT_TRUE(batched.Complete());
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(Decoded(batched, i), block[i]);
  }
}

// Reset() keeps the row buffers for reuse; the second decode must be
// exactly as good as a fresh decoder's.
TEST(RlncTest, ResetRecyclesRowsAcrossDecodes) {
  Rng rng(929);
  RlncDecoder decoder(9, 48);
  for (int round = 0; round < 3; ++round) {
    const auto block = RandomBlock(rng, 9, 48);
    const RlncEncoder encoder(block);
    for (std::uint32_t seed = 1; !decoder.Complete(); ++seed) {
      decoder.AddRepair(encoder.MakeRepair(PartySeed(0, seed + round * 64)));
    }
    for (std::size_t i = 0; i < 9; ++i) {
      EXPECT_EQ(Decoded(decoder, i), block[i]) << "round=" << round;
    }
    decoder.Reset();
    EXPECT_EQ(decoder.rank(), 0u);
  }
}

// GaussJordanInsert over caller-owned rows laid out like the flow
// engine's arena: one fused [coefs(width) | data] row per column at a
// stride that reserves max_width coefficient bytes, so rows have slack
// past their live width whenever width < max_width. Fed the same
// equation stream as RlncDecoder — fresh seeded repairs alternating
// with dependent combinations of earlier rows, and more rows than full
// rank needs — it must accept exactly the rows the decoder accepts,
// return `width` and leave the whole arena byte-identical on every
// dependent row, never touch the slack, and decode the same symbols.
TEST(GaussJordanInsertTest, StridedRowsMatchRlncDecoder) {
  struct Case {
    std::size_t width;
    std::size_t max_width;  // coefficient bytes the stride reserves
    std::size_t bytes;
    std::uint64_t seed;
  };
  const Case cases[] = {
      {1, 3, 8, 1201},   {2, 3, 64, 1202},  {3, 3, 16, 1203},
      {5, 64, 32, 1204}, {12, 16, 1, 1205},
  };
  constexpr std::uint8_t kSlack = 0xA5;
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "width=" << c.width
                                    << " max_width=" << c.max_width
                                    << " bytes=" << c.bytes);
    Rng rng(c.seed);
    const auto block = RandomBlock(rng, c.width, c.bytes);
    const RlncEncoder encoder(block);
    const std::size_t row_bytes = c.width + c.bytes;
    const std::size_t stride = c.max_width + c.bytes;
    std::vector<std::uint8_t> arena(c.max_width * stride, kSlack);
    std::vector<std::uint8_t*> basis(c.width, nullptr);
    std::vector<GfTerm> terms;
    RlncDecoder decoder(c.width, c.bytes);

    std::vector<std::vector<std::uint8_t>> fed;
    std::size_t dependent = 0;
    for (std::uint32_t step = 1; step <= 2 * c.width + 4; ++step) {
      std::vector<std::uint8_t> row(row_bytes);
      if (step % 2 == 1) {
        RepairCoefficientsInto(step, std::span(row).first(c.width));
        const RepairSymbol repair = encoder.MakeRepair(step);
        std::copy(repair.data.begin(), repair.data.end(),
                  row.begin() + static_cast<std::ptrdiff_t>(c.width));
      } else {
        row = fed.back();  // in the span of what was fed
        GfAxpy(row, 3, fed.front());
      }
      fed.push_back(row);
      const std::vector<std::uint8_t> before = arena;
      const bool gained =
          decoder.AddEquationSpan(std::span(row).first(c.width),
                                  std::span(row).subspan(c.width));
      const std::size_t lead = GaussJordanInsert(basis, row, terms);
      ASSERT_EQ(lead != c.width, gained) << "step=" << step;
      if (lead == c.width) {
        ++dependent;
        EXPECT_EQ(arena, before) << "step=" << step;
        continue;
      }
      ASSERT_EQ(basis[lead], nullptr);
      basis[lead] = arena.data() + lead * stride;
      std::copy(row.begin(), row.end(), basis[lead]);
    }
    ASSERT_TRUE(decoder.Complete());
    EXPECT_GE(dependent, c.width + 2);
    for (std::size_t i = 0; i < c.width; ++i) {
      const std::uint8_t* pivot = arena.data() + i * stride;
      for (std::size_t k = 0; k < c.width; ++k) {
        EXPECT_EQ(pivot[k], i == k ? 1 : 0) << "row=" << i << " col=" << k;
      }
      const std::vector<std::uint8_t> got(pivot + c.width, pivot + row_bytes);
      EXPECT_EQ(got, Decoded(decoder, i)) << "row=" << i;
      EXPECT_EQ(got, block[i]) << "row=" << i;
    }
    for (std::size_t b = 0; b < arena.size(); ++b) {
      const bool live = b / stride < c.width && b % stride < row_bytes;
      if (!live) {
        ASSERT_EQ(arena[b], kSlack) << "byte=" << b;
      }
    }
  }
}

}  // namespace
}  // namespace ppr::fec
