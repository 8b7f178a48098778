#include "bench/driver.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "metrics/json.h"

namespace ermia {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now().time_since_epoch())
          .count());
}

}  // namespace

BenchResult RunBench(Database* db, Workload* workload,
                     const BenchOptions& options) {
  const size_t ntypes = workload->NumTxnTypes();
  std::vector<std::vector<TxnTypeStats>> per_worker(
      options.threads, std::vector<TxnTypeStats>(ntypes));

  // Make sure OCC's read-only snapshot covers whatever the loader committed.
  db->RefreshOccSnapshot();

  prof::Enable(options.profile);
  // Scope the engine metrics (and the profiling cycle counters they embed)
  // to this run by diffing snapshots around it.
  const metrics::MetricsSnapshot before = db->SnapshotMetrics();
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::atomic<uint32_t> ready{0};

  std::vector<std::thread> workers;
  workers.reserve(options.threads);
  for (uint32_t w = 0; w < options.threads; ++w) {
    workers.emplace_back([&, w] {
      FastRandom rng(options.seed * 7919 + w * 104729 + 1);
      auto& stats = per_worker[w];
      ready.fetch_add(1);
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const uint64_t t_begin = prof::Cycles();
      while (!stop.load(std::memory_order_acquire)) {
        const size_t type = workload->PickTxnType(rng);
        const uint64_t t0 = NowMicros();
        Status s = workload->RunTxn(db, options.scheme, type, w,
                                    options.threads, rng);
        if (s.ok()) {
          stats[type].commits++;
          stats[type].latency.Add(NowMicros() - t0);
        } else {
          stats[type].aborts++;
        }
      }
      // Counters live in global per-slot storage (common/profiling.h); the
      // run-scoped snapshot delta picks them up, so no per-worker merge.
      prof::Bump(prof::MyCounters().total_cycles, prof::Cycles() - t_begin);
      ThreadRegistry::Deregister();
    });
  }

  while (ready.load() < options.threads) std::this_thread::yield();
  const auto wall_begin = Clock::now();
  start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(options.seconds));
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - wall_begin).count();
  prof::Enable(false);

  BenchResult result;
  result.seconds = elapsed;
  result.threads = options.threads;
  result.per_type.resize(ntypes);
  for (size_t t = 0; t < ntypes; ++t) {
    result.type_names.push_back(workload->TxnTypeName(t));
    for (uint32_t w = 0; w < options.threads; ++w) {
      result.per_type[t].Merge(per_worker[w][t]);
    }
  }
  result.engine = db->SnapshotMetrics().DeltaSince(before);
  result.prof = result.engine.profile;
  return result;
}

JsonReporter::JsonReporter(int argc, char** argv, std::string bench_name)
    : bench_name_(std::move(bench_name)) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      path_ = argv[i + 1];
      break;
    }
  }
}

JsonReporter::~JsonReporter() {
  if (path_.empty()) return;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "JsonReporter: cannot open %s\n", path_.c_str());
    return;
  }
  std::string doc = "{\"bench\":\"";
  doc += metrics::JsonEscape(bench_name_);
  doc += "\",\"results\":[";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) doc += ',';
    doc += "{\"label\":\"";
    doc += metrics::JsonEscape(entries_[i].first);
    doc += "\",\"result\":";
    doc += entries_[i].second;
    doc += '}';
  }
  doc += "]}\n";
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "# wrote %s\n", path_.c_str());
}

void JsonReporter::Add(const std::string& label, const BenchResult& result) {
  if (path_.empty()) return;
  entries_.emplace_back(label, result.ToJson());
}

double EnvSeconds(double def) {
  const char* v = std::getenv("ERMIA_BENCH_SECONDS");
  return v != nullptr ? std::atof(v) : def;
}

Status ParseThreadList(const std::string& text, std::vector<uint32_t>* out) {
  out->clear();
  size_t pos = 0;
  for (;;) {
    const size_t comma = std::min(text.find(',', pos), text.size());
    const std::string entry = text.substr(pos, comma - pos);
    // Six digits bound stoul's input; anything longer is out of range.
    const bool digits =
        !entry.empty() && entry.size() <= 6 &&
        entry.find_first_not_of("0123456789") == std::string::npos;
    const unsigned long n = digits ? std::stoul(entry) : 0;
    if (n < 1 || n > kMaxThreads) {
      return Status::InvalidArgument(
          "thread count '" + entry + "' is not a number in [1, " +
          std::to_string(kMaxThreads) + "]");
    }
    out->push_back(static_cast<uint32_t>(n));
    if (comma == text.size()) return Status::OK();
    pos = comma + 1;
  }
}

std::vector<uint32_t> EnvThreads(const std::vector<uint32_t>& def) {
  const char* v = std::getenv("ERMIA_BENCH_THREADS");
  if (v == nullptr) return def;
  std::vector<uint32_t> out;
  const Status s = ParseThreadList(v, &out);
  if (!s.ok()) {
    std::fprintf(stderr, "ERMIA_BENCH_THREADS=\"%s\": %s\n", v,
                 s.ToString().c_str());
    std::exit(2);
  }
  return out;
}

uint32_t EnvScale(uint32_t def) {
  const char* v = std::getenv("ERMIA_BENCH_SCALE");
  return v != nullptr ? static_cast<uint32_t>(std::atoi(v)) : def;
}

double EnvDensity(double def) {
  const char* v = std::getenv("ERMIA_BENCH_DENSITY");
  return v != nullptr ? std::atof(v) : def;
}

ScopedDatabase::ScopedDatabase(EngineConfig config) {
  // Log to tmpfs, as the paper does ("log records are written to tmpfs
  // asynchronously"); fall back to /tmp when /dev/shm is unavailable.
  char shm_tmpl[] = "/dev/shm/ermia-bench-XXXXXX";
  char tmp_tmpl[] = "/tmp/ermia-bench-XXXXXX";
  char* d = ::mkdtemp(shm_tmpl);
  if (d == nullptr) d = ::mkdtemp(tmp_tmpl);
  ERMIA_CHECK(d != nullptr);
  dir = d;
  config.log_dir = dir;
  db = new Database(config);
}

ScopedDatabase::~ScopedDatabase() {
  delete db;
  // Best-effort cleanup of the temp log directory.
  if (dir.find("ermia-bench-") != std::string::npos) {
    std::string cmd = "rm -rf '" + dir + "'";
    int rc = std::system(cmd.c_str());
    (void)rc;
  }
}

}  // namespace bench
}  // namespace ermia
