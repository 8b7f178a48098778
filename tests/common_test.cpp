// Unit tests for the common layer: Status, Slice, Varstr, key encoding,
// random generators, histogram, latches, and the thread registry.
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/key_encoder.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/spin_latch.h"
#include "common/status.h"
#include "common/sysconf.h"
#include "common/varstr.h"

namespace ermia {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_FALSE(s.ShouldAbort());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::Conflict("head locked");
  EXPECT_TRUE(s.IsConflict());
  EXPECT_TRUE(s.ShouldAbort());
  EXPECT_EQ(s.ToString(), "CONFLICT: head locked");
  EXPECT_TRUE(Status::Aborted().ShouldAbort());
  EXPECT_TRUE(Status::Phantom().ShouldAbort());
  EXPECT_FALSE(Status::NotFound().ShouldAbort());
  EXPECT_FALSE(Status::KeyExists().ShouldAbort());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("y").IsCorruption());
}

TEST(SliceTest, CompareIsMemcmpOrder) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("b").compare(Slice("ab")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);  // prefix sorts first
  EXPECT_EQ(Slice("same").compare(Slice("same")), 0);
  EXPECT_TRUE(Slice("abc").starts_with(Slice("ab")));
  EXPECT_FALSE(Slice("abc").starts_with(Slice("b")));
}

TEST(SliceTest, UnsignedComparison) {
  const char hi[] = {'\x80', 0};
  const char lo[] = {'\x01', 0};
  EXPECT_GT(Slice(hi, 1).compare(Slice(lo, 1)), 0);  // 0x80 > 0x01 unsigned
}

TEST(VarstrTest, RoundTrip) {
  Varstr v{Slice("hello")};
  EXPECT_EQ(v.slice().ToString(), "hello");
  EXPECT_EQ(v.size(), 5u);
  Varstr w;
  EXPECT_TRUE(w.empty());
  w.Assign(Slice("x"));
  EXPECT_LT(v.compare(w), 0);  // "hello" < "x"
}

TEST(KeyEncoderTest, IntegersPreserveOrder) {
  auto key = [](uint64_t v) { return KeyEncoder().U64(v).varstr(); };
  EXPECT_LT(key(1).compare(key(2)), 0);
  EXPECT_LT(key(255).compare(key(256)), 0);
  EXPECT_LT(key(0).compare(key(UINT64_MAX)), 0);
  EXPECT_LT(key(1ull << 32).compare(key((1ull << 32) + 1)), 0);
}

TEST(KeyEncoderTest, SignedIntegersPreserveOrder) {
  auto key = [](int64_t v) { return KeyEncoder().I64(v).varstr(); };
  EXPECT_LT(key(-5).compare(key(-4)), 0);
  EXPECT_LT(key(-1).compare(key(0)), 0);
  EXPECT_LT(key(0).compare(key(1)), 0);
  EXPECT_LT(key(INT64_MIN).compare(key(INT64_MAX)), 0);
}

TEST(KeyEncoderTest, CompositeKeysOrderByComponents) {
  auto key = [](uint32_t a, const char* s, uint32_t b) {
    return KeyEncoder().U32(a).Str(s, 8).U32(b).varstr();
  };
  EXPECT_LT(key(1, "zzz", 9).compare(key(2, "aaa", 0)), 0);
  EXPECT_LT(key(1, "aaa", 9).compare(key(1, "aab", 0)), 0);
  EXPECT_LT(key(1, "aaa", 1).compare(key(1, "aaa", 2)), 0);
}

TEST(KeyDecoderTest, RoundTrip) {
  KeyEncoder enc;
  enc.U32(7).U64(123456789ull).Str("abc", 4).I64(-42);
  KeyDecoder dec(enc.slice());
  EXPECT_EQ(dec.U32(), 7u);
  EXPECT_EQ(dec.U64(), 123456789ull);
  EXPECT_EQ(dec.Str(4).ToString(), std::string("abc\0", 4));
  EXPECT_EQ(dec.I64(), -42);
}

TEST(RandomTest, UniformInRange) {
  FastRandom rng(1);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.UniformU64(5, 10);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 10u);
  }
}

TEST(RandomTest, Deterministic) {
  FastRandom a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, NURandInRange) {
  FastRandom rng(3);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.NURand(1023, 1, 3000);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 3000u);
  }
}

TEST(RandomTest, BernoulliRate) {
  FastRandom rng(9);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.1);
  EXPECT_NEAR(hits / 100000.0, 0.1, 0.01);
}

TEST(RandomTest, ZipfSkewsLow) {
  ZipfianRandom zipf(1000, 0.9);
  FastRandom rng(7);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) counts[zipf.Next(rng)]++;
  // The most popular key should be far above uniform (20 per key).
  int max_count = 0;
  for (auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 200);
}

// The key stream follows the caller's seed: the same seed replays it, a
// different seed gives a different one.
TEST(RandomTest, ZipfStreamFollowsCallerSeed) {
  const ZipfianRandom zipf(100000, 0.99);
  auto stream = [&](uint64_t seed) {
    FastRandom rng(seed);
    std::vector<uint64_t> keys;
    for (int i = 0; i < 64; ++i) keys.push_back(zipf.Next(rng));
    return keys;
  };
  EXPECT_EQ(stream(42), stream(42));
  EXPECT_NE(stream(42), stream(43));
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Add(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_NEAR(h.mean(), 50.5, 0.01);
  EXPECT_NEAR(h.Percentile(50), 50, 8);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Add(10);
  b.Add(1000000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000000u);
}

TEST(HistogramTest, LargeValuesLandInBuckets) {
  Histogram h;
  h.Add(1ull << 40);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GT(h.Percentile(99), 0.0);
}

TEST(SpinLatchTest, MutualExclusion) {
  SpinLatch latch;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        SpinLatchGuard g(latch);
        counter++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 40000);
}

TEST(SpinLatchTest, TryLock) {
  SpinLatch latch;
  EXPECT_TRUE(latch.TryLock());
  EXPECT_FALSE(latch.TryLock());
  latch.Unlock();
  EXPECT_TRUE(latch.TryLock());
  latch.Unlock();
}

TEST(ThreadRegistryTest, DenseUniqueIds) {
  constexpr int kThreads = 8;
  std::vector<uint32_t> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ids[t] = ThreadRegistry::MyId();
      EXPECT_EQ(ids[t], ThreadRegistry::MyId());  // stable per thread
      ThreadRegistry::Deregister();
    });
  }
  for (auto& t : threads) t.join();
  for (uint32_t id : ids) EXPECT_LT(id, kMaxThreads);
}

TEST(ThreadRegistryTest, SlotsRecycleAfterDeregister) {
  uint32_t first = 0;
  std::thread([&] {
    first = ThreadRegistry::MyId();
    ThreadRegistry::Deregister();
  }).join();
  uint32_t second = 0;
  std::thread([&] {
    second = ThreadRegistry::MyId();
    ThreadRegistry::Deregister();
  }).join();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace ermia
