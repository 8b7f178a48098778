// Ablation: shared-nothing log replay across EngineConfig::recovery_threads
// workers. Generates a log of ERMIA_BENCH_LOG_MB megabytes (default 16; set
// 1024+ for paper-scale runs), then reopens the same directory once per
// worker count (ERMIA_BENCH_THREADS) and times Database::Recover(). Replay is
// reported as GB/s over the bytes the recovery actually scanned (metrics:
// recovery_replay_bytes), the speedup against the first worker count, and
// the per-stage wall times (read, verify, install). Since a clean Close()
// writes nothing and Recover() only rebuilds in-memory state, every pass
// replays the identical log, so the records replayed must match across
// worker counts: the binary exits 1 if they do not.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"

using namespace ermia;
using namespace ermia::bench;

namespace {

constexpr int kRows = 4096;
constexpr int kOpsPerTxn = 8;
constexpr size_t kValueSize = 256;

uint64_t EnvLogMb() {
  if (const char* env = std::getenv("ERMIA_BENCH_LOG_MB")) {
    const uint64_t mb = std::strtoull(env, nullptr, 10);
    if (mb > 0) return mb;
  }
  return 16;
}

std::string KeyFor(int row) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "k%06d", row);
  return buf;
}

// Fills `dir` with roughly `target_mb` of update-heavy log. Two writer
// threads on disjoint row stripes, asynchronous commit: generation speed is
// not the quantity under test.
void GenerateLog(const std::string& dir, uint64_t target_mb) {
  EngineConfig config;
  config.log_dir = dir;
  config.synchronous_commit = false;
  Database db(config);
  Table* table = db.CreateTable("kv");
  Index* pk = db.CreateIndex(table, "kv_pk");
  ERMIA_CHECK(db.Open().ok());

  std::vector<Oid> oids(kRows);
  const std::string value(kValueSize, 'v');
  for (int r = 0; r < kRows; ++r) {
    Transaction txn(&db, CcScheme::kSi);
    ERMIA_CHECK(txn.Insert(table, pk, KeyFor(r), value, &oids[r]).ok());
    ERMIA_CHECK(txn.Commit().ok());
  }

  const uint64_t target_bytes = target_mb << 20;
  // value + record header + block header amortized: used only to pace the
  // "are we there yet" checks, not as ground truth.
  const uint64_t approx_txn_bytes = kOpsPerTxn * (kValueSize + 64);
  const uint64_t txns_per_check =
      1 + target_bytes / (64 * approx_txn_bytes);
  std::atomic<bool> done{false};
  auto writer = [&](int stripe) {
    uint64_t rng = 0x9e3779b97f4a7c15ull * (stripe + 1);
    while (!done.load(std::memory_order_acquire)) {
      for (uint64_t i = 0; i < txns_per_check; ++i) {
        Transaction txn(&db, CcScheme::kSi);
        bool ok = true;
        for (int op = 0; op < kOpsPerTxn; ++op) {
          rng = rng * 6364136223846793005ull + 1442695040888963407ull;
          const int row = static_cast<int>((rng >> 33) % (kRows / 2)) +
                          stripe * (kRows / 2);
          if (!txn.Update(table, oids[row], value).ok()) {
            ok = false;
            break;
          }
        }
        if (!ok) {
          txn.Abort();
          continue;
        }
        ERMIA_CHECK(txn.Commit().ok());
      }
      if (stripe == 0 && db.log().CurrentOffset() >= target_bytes) {
        done.store(true, std::memory_order_release);
      }
    }
    ThreadRegistry::Deregister();
  };
  std::thread t0(writer, 0), t1(writer, 1);
  t0.join();
  t1.join();
}

struct RecoveryPoint {
  double seconds = 0;
  uint64_t bytes = 0;
  uint64_t records = 0;
  // Stage wall times (ms): checkpoint load, read, verify, install.
  double ckpt_ms = 0, read_ms = 0, verify_ms = 0, install_ms = 0;
  BenchResult result;
};

RecoveryPoint RecoverOnce(const std::string& dir, uint32_t workers) {
  EngineConfig config;
  config.log_dir = dir;
  config.recovery_threads = workers;
  Database db(config);
  Table* table = db.CreateTable("kv");
  (void)db.CreateIndex(table, "kv_pk");
  ERMIA_CHECK(db.Open().ok());

  const auto t0 = std::chrono::steady_clock::now();
  ERMIA_CHECK(db.Recover().ok());
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  RecoveryPoint p;
  p.seconds = secs;
  const metrics::MetricsSnapshot snap = db.SnapshotMetrics();
  p.bytes = snap.counter(metrics::Ctr::kRecoveryReplayBytes);
  p.records = snap.counter(metrics::Ctr::kRecoveryReplayRecords);
  p.ckpt_ms = snap.counter(metrics::Ctr::kRecoveryCheckpointUs) / 1e3;
  p.read_ms = snap.counter(metrics::Ctr::kRecoveryReadUs) / 1e3;
  p.verify_ms = snap.counter(metrics::Ctr::kRecoveryVerifyUs) / 1e3;
  p.install_ms = snap.counter(metrics::Ctr::kRecoveryInstallUs) / 1e3;
  p.result.seconds = secs;
  p.result.threads = workers;
  p.result.recovery_ms = secs * 1000.0;
  p.result.engine = snap;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("abl_recovery: shared-nothing log replay by worker count",
              "recovery replay ablation (paper §3.7, log-is-the-database)");
  JsonReporter json(argc, argv, "abl_recovery");

  const uint64_t log_mb = EnvLogMb();
  const std::vector<uint32_t> workers = EnvThreads({1, 2, 4, 8});

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("\nhardware threads: %u, target log: %llu MB "
              "(ERMIA_BENCH_LOG_MB)\n",
              hw, static_cast<unsigned long long>(log_mb));
  if (hw <= 1) {
    std::printf("note: replay workers only beat one worker with real\n"
                "parallelism; on a single hardware thread the speedup\n"
                "column will hover near 1x.\n");
  }

  // Generation directory: tmpfs when available, as the paper stores the log.
  char shm_tmpl[] = "/dev/shm/ermia-ablrec-XXXXXX";
  char tmp_tmpl[] = "/tmp/ermia-ablrec-XXXXXX";
  char* d = ::mkdtemp(shm_tmpl);
  if (d == nullptr) d = ::mkdtemp(tmp_tmpl);
  ERMIA_CHECK(d != nullptr);
  const std::string dir = d;

  std::printf("\ngenerating %llu MB update log (%d rows, %d ops/txn, %zuB "
              "values)...\n",
              static_cast<unsigned long long>(log_mb), kRows, kOpsPerTxn,
              kValueSize);
  GenerateLog(dir, log_mb);

  std::printf("\n%8s %12s %12s %12s %10s %9s %9s %9s\n", "workers",
              "recover-ms", "replay-GB/s", "records", "speedup", "read-ms",
              "verify-ms", "install-ms");
  double first_secs = 0;
  double last_speedup = 0;
  uint64_t first_records = 0;
  bool records_match = true;
  for (size_t i = 0; i < workers.size(); ++i) {
    const uint32_t w = workers[i];
    RecoveryPoint p = RecoverOnce(dir, w);
    if (i == 0) {
      first_secs = p.seconds;
      first_records = p.records;
    }
    records_match = records_match && p.records == first_records;
    const double gbps =
        p.seconds > 0 ? static_cast<double>(p.bytes) / p.seconds / 1e9 : 0.0;
    last_speedup = p.seconds > 0 ? first_secs / p.seconds : 0.0;
    std::printf("%8u %12.1f %12.3f %12llu %9.2fx %9.1f %9.1f %9.1f\n", w,
                p.seconds * 1000.0, gbps,
                static_cast<unsigned long long>(p.records), last_speedup,
                p.read_ms, p.verify_ms, p.install_ms);
    json.Add("replay/workers=" + std::to_string(w), p.result);
  }
  std::printf("\nspeedup at max workers: %.2fx\n", last_speedup);

  std::string cmd = "rm -rf '" + dir + "'";
  int rc = std::system(cmd.c_str());
  (void)rc;
  if (!records_match) {
    std::fprintf(stderr,
                 "abl_recovery: records replayed differ across worker "
                 "counts\n");
    return 1;
  }
  return 0;
}
