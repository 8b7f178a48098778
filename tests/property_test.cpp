// Parameterized property-style sweeps (TEST_P/INSTANTIATE_TEST_SUITE_P):
// order preservation of key encodings across component widths, histogram
// percentile coherence across distributions, ring buffer round trips across
// sizes/offsets, and Slice/oracle equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/key_encoder.h"
#include "common/random.h"
#include "common/slice.h"
#include "log/log_buffer.h"

namespace ermia {
namespace {

// ---- key encoding order preservation, swept over integer widths -----------

enum class IntKind { kU16, kU32, kU64, kI64 };

class KeyOrderProperty : public ::testing::TestWithParam<IntKind> {
 protected:
  std::string Encode(int64_t v) const {
    KeyEncoder enc;
    switch (GetParam()) {
      case IntKind::kU16:
        enc.U16(static_cast<uint16_t>(v));
        break;
      case IntKind::kU32:
        enc.U32(static_cast<uint32_t>(v));
        break;
      case IntKind::kU64:
        enc.U64(static_cast<uint64_t>(v));
        break;
      case IntKind::kI64:
        enc.I64(v);
        break;
    }
    return enc.slice().ToString();
  }

  // Numeric comparison matching the encoder's value domain.
  bool NumLess(int64_t a, int64_t b) const {
    switch (GetParam()) {
      case IntKind::kU16:
        return static_cast<uint16_t>(a) < static_cast<uint16_t>(b);
      case IntKind::kU32:
        return static_cast<uint32_t>(a) < static_cast<uint32_t>(b);
      case IntKind::kU64:
        return static_cast<uint64_t>(a) < static_cast<uint64_t>(b);
      case IntKind::kI64:
        return a < b;
    }
    return false;
  }
};

TEST_P(KeyOrderProperty, RandomPairsPreserveOrder) {
  FastRandom rng(17);
  for (int i = 0; i < 20000; ++i) {
    const int64_t a = static_cast<int64_t>(rng.Next());
    const int64_t b = static_cast<int64_t>(rng.Next());
    const std::string ea = Encode(a), eb = Encode(b);
    if (NumLess(a, b)) {
      EXPECT_LT(ea, eb) << a << " vs " << b;
    } else if (NumLess(b, a)) {
      EXPECT_LT(eb, ea) << a << " vs " << b;
    } else {
      EXPECT_EQ(ea, eb);
    }
  }
}

TEST_P(KeyOrderProperty, BoundaryNeighborsOrdered) {
  const std::vector<int64_t> interesting = {
      0, 1, -1, 255, 256, 65535, 65536, INT32_MAX, INT64_MAX, INT64_MIN,
      static_cast<int64_t>(UINT32_MAX)};
  for (int64_t base : interesting) {
    for (int64_t d : {-1, 1}) {
      // Unsigned arithmetic wraps without overflow, giving each unsigned
      // width its true neighbour. A signed INT64_MAX + 1 or INT64_MIN - 1
      // does not exist, so that one neighbour is skipped.
      int64_t unused;
      if (GetParam() == IntKind::kI64 &&
          __builtin_add_overflow(base, d, &unused)) {
        continue;
      }
      const int64_t other = static_cast<int64_t>(static_cast<uint64_t>(base) +
                                                 static_cast<uint64_t>(d));
      const std::string ea = Encode(base), eb = Encode(other);
      if (NumLess(base, other)) {
        EXPECT_LT(ea, eb);
      } else if (NumLess(other, base)) {
        EXPECT_LT(eb, ea);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, KeyOrderProperty,
                         ::testing::Values(IntKind::kU16, IntKind::kU32,
                                           IntKind::kU64, IntKind::kI64),
                         [](const ::testing::TestParamInfo<IntKind>& info) {
                           switch (info.param) {
                             case IntKind::kU16:
                               return "U16";
                             case IntKind::kU32:
                               return "U32";
                             case IntKind::kU64:
                               return "U64";
                             case IntKind::kI64:
                               return "I64";
                           }
                           return "?";
                         });

// ---- histogram coherence across distributions ------------------------------

enum class Dist { kUniform, kZipfish, kBimodal, kConstant };

class HistogramProperty : public ::testing::TestWithParam<Dist> {
 protected:
  std::vector<uint64_t> Sample(size_t n) const {
    FastRandom rng(23);
    std::vector<uint64_t> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      switch (GetParam()) {
        case Dist::kUniform:
          out.push_back(rng.UniformU64(1, 1000000));
          break;
        case Dist::kZipfish:
          out.push_back(1 + (rng.Next() % (1ull << (rng.Next() % 24))));
          break;
        case Dist::kBimodal:
          out.push_back(rng.Bernoulli(0.5) ? rng.UniformU64(10, 20)
                                           : rng.UniformU64(100000, 200000));
          break;
        case Dist::kConstant:
          out.push_back(777);
          break;
      }
    }
    return out;
  }
};

TEST_P(HistogramProperty, PercentilesMonotoneAndBounded) {
  Histogram h;
  auto samples = Sample(50000);
  for (uint64_t v : samples) h.Add(v);
  double prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    const double v = h.Percentile(p);
    EXPECT_GE(v + 1e-9, prev) << "p=" << p;
    prev = v;
  }
  EXPECT_GE(h.Percentile(0.01) + 1, static_cast<double>(h.min()));
  EXPECT_LE(h.Percentile(100), static_cast<double>(h.max()) + 1);
}

TEST_P(HistogramProperty, MedianNearOracle) {
  Histogram h;
  auto samples = Sample(50000);
  for (uint64_t v : samples) h.Add(v);
  std::sort(samples.begin(), samples.end());
  const double oracle = static_cast<double>(samples[samples.size() / 2]);
  const double measured = h.Percentile(50);
  // Log-bucketed resolution: within ~8% (or the linear bucket width).
  EXPECT_NEAR(measured, oracle, std::max(8.0, oracle * 0.08));
}

TEST_P(HistogramProperty, MergeEqualsCombinedFeed) {
  auto samples = Sample(20000);
  Histogram whole, a, b;
  for (size_t i = 0; i < samples.size(); ++i) {
    whole.Add(samples[i]);
    (i % 2 ? a : b).Add(samples[i]);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.min(), whole.min());
  EXPECT_EQ(a.max(), whole.max());
  EXPECT_DOUBLE_EQ(a.mean(), whole.mean());
  for (double p : {25.0, 50.0, 95.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), whole.Percentile(p));
  }
}

INSTANTIATE_TEST_SUITE_P(AllDists, HistogramProperty,
                         ::testing::Values(Dist::kUniform, Dist::kZipfish,
                                           Dist::kBimodal, Dist::kConstant),
                         [](const ::testing::TestParamInfo<Dist>& info) {
                           switch (info.param) {
                             case Dist::kUniform:
                               return "Uniform";
                             case Dist::kZipfish:
                               return "Zipfish";
                             case Dist::kBimodal:
                               return "Bimodal";
                             case Dist::kConstant:
                               return "Constant";
                           }
                           return "?";
                         });

// ---- ring buffer round trips across capacities ------------------------------

class RingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RingProperty, RandomOffsetsRoundTrip) {
  const uint64_t capacity = GetParam();
  LogRingBuffer ring(capacity);
  FastRandom rng(5);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t size = rng.UniformU64(1, capacity / 2);
    const uint64_t offset = rng.Next() >> 12;
    std::string data(size, 0);
    for (auto& c : data) c = static_cast<char>(rng.Next());
    ring.Write(offset, data.data(), size);
    std::string out(size, 0);
    for (uint64_t i = 0; i < size; ++i) out[i] = *ring.At(offset + i);
    ASSERT_EQ(out, data) << "capacity=" << capacity << " offset=" << offset;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, RingProperty,
                         ::testing::Values(1u << 10, 1u << 14, 1u << 20));

// ---- Slice equivalence with std::string oracle ------------------------------

TEST(SliceProperty, CompareMatchesStringOracle) {
  FastRandom rng(31);
  for (int i = 0; i < 20000; ++i) {
    std::string a(rng.UniformU64(0, 12), 0);
    std::string b(rng.UniformU64(0, 12), 0);
    for (auto& c : a) c = static_cast<char>(rng.UniformU64(0, 255));
    for (auto& c : b) c = static_cast<char>(rng.UniformU64(0, 255));
    const int got = Slice(a).compare(Slice(b));
    // std::string compares char (possibly signed); build the unsigned oracle.
    const int oracle =
        std::lexicographical_compare(
            a.begin(), a.end(), b.begin(), b.end(),
            [](char x, char y) {
              return static_cast<unsigned char>(x) <
                     static_cast<unsigned char>(y);
            })
            ? -1
            : (a == b ? 0 : 1);
    EXPECT_EQ(got < 0 ? -1 : (got > 0 ? 1 : 0), oracle);
  }
}

}  // namespace
}  // namespace ermia
