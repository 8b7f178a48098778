// Ablation: OLC B+-tree throughput — point lookups, inserts, scans, and
// mixed read/write, single- and multi-threaded (the index is Fig. 11's
// largest component, so its constants matter). The Large cases use 4M keys,
// a tree far beyond the last-level cache, and the TiedPrefix cases use
// 12-byte TPC-C-style keys that share their first 8 bytes, so every
// comparison goes past the node's key slices. Tree-building cases report
// bytes_per_key: the resident-memory growth of the load over its key count.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>

#include "common/key_encoder.h"
#include "common/random.h"
#include "index/btree.h"

namespace {

using namespace ermia;

constexpr uint64_t kPreload = 100000;
constexpr uint64_t kLargePreload = 4000000;
// Tied-prefix keys: (warehouse, district, order), 12 bytes; each of the
// kDistricts districts holds kOrdersPerDistrict orders.
constexpr uint32_t kDistricts = 40;
constexpr uint32_t kOrdersPerDistrict = 25000;

uint64_t ResidentBytes() {
  long pages = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<uint64_t>(resident) *
         static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

KeyEncoder TiedKey(uint32_t district, uint32_t order) {
  KeyEncoder e;
  e.U32(1 + district / 10).U32(1 + district % 10).U32(order);
  return e;
}

// Loads `n` keys built by key(i) into a fresh tree; returns it with the
// load's resident-memory growth per key.
template <typename KeyFn>
BTree* LoadTree(uint64_t n, KeyFn key, double* bytes_per_key) {
  const uint64_t before = ResidentBytes();
  auto* tree = new BTree();
  NodeHandle nh;
  for (uint64_t i = 0; i < n; ++i) {
    tree->Insert(key(i).slice(), static_cast<Oid>(i + 1), &nh, nullptr);
  }
  *bytes_per_key =
      static_cast<double>(ResidentBytes() - before) / static_cast<double>(n);
  return tree;
}

double large_bytes_per_key = 0;
BTree* LargeTree() {
  static BTree* tree = LoadTree(
      kLargePreload, [](uint64_t i) { return KeyEncoder().U64(i); },
      &large_bytes_per_key);
  return tree;
}

double tied_bytes_per_key = 0;
BTree* TiedTree() {
  static BTree* tree = LoadTree(
      uint64_t{kDistricts} * kOrdersPerDistrict,
      [](uint64_t i) {
        return TiedKey(static_cast<uint32_t>(i / kOrdersPerDistrict),
                       static_cast<uint32_t>(i % kOrdersPerDistrict));
      },
      &tied_bytes_per_key);
  return tree;
}

BTree* SharedTree() {
  static BTree tree;
  static bool loaded = [] {
    NodeHandle nh;
    for (uint64_t i = 0; i < kPreload; ++i) {
      tree.Insert(KeyEncoder().U64(i).slice(), static_cast<Oid>(i + 1), &nh,
                  nullptr);
    }
    return true;
  }();
  (void)loaded;
  return &tree;
}

void BM_Lookup(benchmark::State& state) {
  BTree* tree = SharedTree();
  FastRandom rng(state.thread_index() + 1);
  NodeHandle nh;
  for (auto _ : state) {
    Oid oid = 0;
    benchmark::DoNotOptimize(tree->Lookup(
        KeyEncoder().U64(rng.UniformU64(0, kPreload - 1)).slice(), &oid, &nh));
  }
}
BENCHMARK(BM_Lookup)->Threads(1)->Threads(2)->Threads(4);

void BM_LookupLarge(benchmark::State& state) {
  BTree* tree = LargeTree();
  FastRandom rng(state.thread_index() + 1);
  NodeHandle nh;
  for (auto _ : state) {
    Oid oid = 0;
    benchmark::DoNotOptimize(tree->Lookup(
        KeyEncoder().U64(rng.UniformU64(0, kLargePreload - 1)).slice(), &oid,
        &nh));
  }
  state.counters["bytes_per_key"] =
      benchmark::Counter(large_bytes_per_key, benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_LookupLarge)->Threads(1)->Threads(2);

void BM_LookupTiedPrefix(benchmark::State& state) {
  BTree* tree = TiedTree();
  FastRandom rng(state.thread_index() + 5);
  NodeHandle nh;
  for (auto _ : state) {
    Oid oid = 0;
    const auto key = TiedKey(
        static_cast<uint32_t>(rng.UniformU64(0, kDistricts - 1)),
        static_cast<uint32_t>(rng.UniformU64(0, kOrdersPerDistrict - 1)));
    benchmark::DoNotOptimize(tree->Lookup(key.slice(), &oid, &nh));
  }
  state.counters["bytes_per_key"] =
      benchmark::Counter(tied_bytes_per_key, benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_LookupTiedPrefix)->Threads(1)->Threads(2);

void BM_ScanTiedPrefix100(benchmark::State& state) {
  BTree* tree = TiedTree();
  FastRandom rng(9);
  for (auto _ : state) {
    const auto district =
        static_cast<uint32_t>(rng.UniformU64(0, kDistricts - 1));
    const auto from =
        static_cast<uint32_t>(rng.UniformU64(0, kOrdersPerDistrict - 100));
    size_t n = 0;
    tree->Scan(
        TiedKey(district, from).slice(), TiedKey(district, from + 99).slice(),
        [&](const Slice&, Oid) {
          ++n;
          return true;
        },
        nullptr);
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100);
  state.counters["bytes_per_key"] =
      benchmark::Counter(tied_bytes_per_key, benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_ScanTiedPrefix100);

void BM_Insert(benchmark::State& state) {
  static BTree tree;
  static std::atomic<uint64_t> next{0};
  NodeHandle nh;
  for (auto _ : state) {
    const uint64_t k = next.fetch_add(1, std::memory_order_relaxed);
    tree.Insert(KeyEncoder().U64(k).slice(), static_cast<Oid>(k + 1), &nh,
                nullptr);
  }
}
BENCHMARK(BM_Insert)->Threads(1)->Threads(2)->Threads(4);

void BM_Scan100(benchmark::State& state) {
  BTree* tree = SharedTree();
  FastRandom rng(7);
  for (auto _ : state) {
    const uint64_t from = rng.UniformU64(0, kPreload - 200);
    size_t n = 0;
    tree->Scan(
        KeyEncoder().U64(from).slice(), KeyEncoder().U64(from + 99).slice(),
        [&](const Slice&, Oid) {
          ++n;
          return true;
        },
        nullptr);
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_Scan100);

void BM_MixedReadInsert(benchmark::State& state) {
  static BTree tree;
  static std::atomic<uint64_t> next{1u << 20};
  FastRandom rng(state.thread_index() + 3);
  NodeHandle nh;
  for (auto _ : state) {
    if (rng.Bernoulli(0.2)) {
      const uint64_t k = next.fetch_add(1, std::memory_order_relaxed);
      tree.Insert(KeyEncoder().U64(k).slice(), static_cast<Oid>(k), &nh,
                  nullptr);
    } else {
      Oid oid = 0;
      const uint64_t hi = next.load(std::memory_order_relaxed);
      benchmark::DoNotOptimize(tree.Lookup(
          KeyEncoder().U64((1u << 20) + rng.UniformU64(0, hi - (1u << 20)))
              .slice(),
          &oid, &nh));
    }
  }
}
BENCHMARK(BM_MixedReadInsert)->Threads(1)->Threads(2)->Threads(4);

}  // namespace

BENCHMARK_MAIN();
