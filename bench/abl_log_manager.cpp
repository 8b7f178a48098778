// Ablation: cost of the log manager's design choices (§3.3). Compares the
// single-fetch-add reservation against a mutex-serialized alternative,
// measures reserve+install round trips at several block sizes, and the cost
// of segment rotation.
#include <benchmark/benchmark.h>

#include <mutex>

#include "bench/driver.h"
#include "log/log_manager.h"

namespace {

using namespace ermia;

struct LogFixture {
  LogFixture(uint64_t segment_size = 64ull << 20) {
    config.log_segment_size = segment_size;
    config.log_buffer_size = 1ull << 22;
    bench::ScopedDatabase* unused = nullptr;
    (void)unused;
    char shm_tmpl[] = "/dev/shm/ermia-abl-XXXXXX";
    char tmp_tmpl[] = "/tmp/ermia-abl-XXXXXX";
    char* d = ::mkdtemp(shm_tmpl);
    if (d == nullptr) d = ::mkdtemp(tmp_tmpl);
    dir = d;
    config.log_dir = dir;
    log = std::make_unique<LogManager>(config, &metrics);
    ERMIA_CHECK(log->Open().ok());
  }
  ~LogFixture() {
    log.reset();
    std::string cmd = "rm -rf '" + dir + "'";
    int rc = std::system(cmd.c_str());
    (void)rc;
  }
  EngineConfig config;
  std::string dir;
  metrics::EngineMetrics metrics;
  std::unique_ptr<LogManager> log;
};

std::vector<char> MakeBlock(uint64_t offset, uint32_t size) {
  std::vector<char> block(size, 'b');
  LogBlockHeader hdr{};
  hdr.magic = kLogBlockMagic;
  hdr.type = LogBlockType::kTxn;
  hdr.offset = offset;
  hdr.total_size = (size + 31u) & ~31u;
  hdr.payload_bytes = size - sizeof hdr;
  hdr.checksum = LogChecksum(block.data() + sizeof hdr, hdr.payload_bytes);
  std::memcpy(block.data(), &hdr, sizeof hdr);
  return block;
}

// One fetch_add + private serialization + one buffer copy (ERMIA's design).
void BM_ReserveInstall(benchmark::State& state) {
  static LogFixture fixture;
  const uint32_t size = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    Lsn lsn = fixture.log->ReserveBlock(size);
    auto block = MakeBlock(lsn.offset(), size);
    fixture.log->InstallBlock(lsn, block.data(), size);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * size);
  ThreadRegistry::Deregister();
}
BENCHMARK(BM_ReserveInstall)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Threads(1)->Threads(2)->Threads(4);

// Baseline alternative: a mutex around the whole reservation, emulating a
// classically latched log buffer.
void BM_MutexReserveInstall(benchmark::State& state) {
  static LogFixture fixture;
  static std::mutex mu;
  const uint32_t size = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    std::lock_guard<std::mutex> g(mu);
    Lsn lsn = fixture.log->ReserveBlock(size);
    auto block = MakeBlock(lsn.offset(), size);
    fixture.log->InstallBlock(lsn, block.data(), size);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * size);
  ThreadRegistry::Deregister();
}
BENCHMARK(BM_MutexReserveInstall)->Arg(256)->Threads(1)->Threads(2)->Threads(4);

// Segment rotation: tiny segments force a rotation every few blocks.
void BM_SegmentRotationHeavy(benchmark::State& state) {
  LogFixture fixture(1 << 16);
  const uint32_t size = 4096 + 32;
  for (auto _ : state) {
    Lsn lsn = fixture.log->ReserveBlock(size);
    auto block = MakeBlock(lsn.offset(), size);
    fixture.log->InstallBlock(lsn, block.data(), size);
  }
  state.counters["rotations"] = static_cast<double>(
      fixture.metrics.Sum(metrics::Ctr::kLogSegmentRotations));
  state.counters["skips"] =
      static_cast<double>(fixture.metrics.Sum(metrics::Ctr::kLogSkipBlocks));
  ThreadRegistry::Deregister();
}
BENCHMARK(BM_SegmentRotationHeavy);

// Aborted reservations: the skip-record path.
void BM_ReserveSkip(benchmark::State& state) {
  static LogFixture fixture;
  for (auto _ : state) {
    Lsn lsn = fixture.log->ReserveBlock(256);
    fixture.log->InstallSkip(lsn, 256);
  }
  ThreadRegistry::Deregister();
}
BENCHMARK(BM_ReserveSkip)->Threads(1)->Threads(4);

}  // namespace

BENCHMARK_MAIN();
