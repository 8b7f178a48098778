// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// One benchmark run against the engine's public API: load a fresh database,
// run an untimed warm-up and then a fixed, seeded number of transactions
// with a closed-loop driver (in several rounds, each on a fresh database,
// for tpcc-hybrid), check the results, Close(), re-open and Recover() from
// the same log, and check again. Prints one JSON object as the last line of
// stdout; run.py turns it into the benchmark's result.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s>
//                    --log-dir <empty dir> [--mode run|setup] [--trace 0|1]
//
// --mode setup stops after the load and reports only its time. --trace 1
// splits the measured phase into chunks that alternate between untraced and
// traced (prof:: cycle brackets plus the sampled flight recorder) and
// reports per-layer metrics from the traced chunks.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/profiling.h"
#include "common/random.h"
#include "metrics/json.h"
#include "oracle.h"
#include "spec.h"
#include "stats.h"
#include "trace/trace.h"
#include "trace/trace_reader.h"

namespace perfbench {
namespace {

using ermia::Database;
using ermia::EngineConfig;
using ermia::Status;
using ermia::metrics::AbortReason;
using ermia::metrics::Ctr;
using ermia::metrics::Hist;
using ermia::metrics::JsonWriter;
using ermia::metrics::MetricsSnapshot;
using Clock = std::chrono::steady_clock;

constexpr ermia::CcScheme kScheme = ermia::CcScheme::kSiSsn;
// Attempts per request before it counts as failed.
constexpr uint32_t kMaxAttempts = 1000;
// Traced runs alternate untraced and traced chunks in pairs, flipping the
// order every pair so neither kind always runs on the larger database.
constexpr uint32_t kTracePairs = 4;
constexpr uint32_t kTraceSampleEvery = 16;
// A phase that runs this long, or twice its budget if that is longer, has
// hung in the engine (a log hole keeps Close() spinning, for one): the run
// reports where the time went and exits with kStallExit, without a result.
// It is well above the slowest legitimate phase seen (a 60 s GC drain in
// Close() after ycsb-update) and below run.py's 150 s limit per process.
constexpr double kPhaseLimitSeconds = 100;
constexpr int kStallExit = 3;
// Untraced runs split the measured phase into this many chunks and report
// medians over them.
constexpr uint32_t kMeasureChunks = 20;
// The untimed warm-up before each round's measured work, as a share of it.
constexpr double kWarmupShare = 0.125;
// Recover() runs this many times from the run's log; recover_s is the median.
constexpr uint32_t kRecoveries = 3;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   Clock::now().time_since_epoch())
                                   .count());
}

// ---- arguments ------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  uint64_t seconds = 10;
  std::string log_dir;
  bool setup_only = false;
  bool trace = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_runner: %s\n", why.c_str());
  std::exit(2);
}

uint64_t ParseUint(const std::string& flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || v[0] == '-') {
    Usage(flag + " needs a non-negative integer, got '" + v + "'");
  }
  return x;
}

void ParseArgs(int argc, char** argv, Args* a, WorkloadSpec* spec) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) Usage(std::string("missing value for ") + argv[i]);
    kv[argv[i]] = argv[i + 1];
  }
  auto take = [&](const std::string& flag) -> const char* {
    auto it = kv.find(flag);
    return it == kv.end() ? nullptr : it->second.c_str();
  };
  if (const char* v = take("--workload")) a->workload = v;
  if (!DefaultSpec(a->workload, spec)) Usage("unknown --workload '" + a->workload + "'");
  if (const char* v = take("--seed")) a->seed = ParseUint("--seed", v);
  if (const char* v = take("--seconds")) a->seconds = ParseUint("--seconds", v);
  if (a->seconds < 1 || a->seconds > 60) Usage("--seconds must be in [1, 60]");
  if (const char* v = take("--log-dir")) a->log_dir = v;
  if (a->log_dir.empty()) Usage("--log-dir is required");
  if (const char* v = take("--mode")) {
    if (std::strcmp(v, "setup") != 0 && std::strcmp(v, "run") != 0) {
      Usage("--mode must be run or setup");
    }
    a->setup_only = std::strcmp(v, "setup") == 0;
  }
  if (const char* v = take("--trace")) a->trace = ParseUint("--trace", v) != 0;
  for (const auto& [flag, value] : kv) {
    static const char* kKnown[] = {"--workload", "--seed", "--seconds",
                                   "--log-dir",  "--mode", "--trace"};
    bool known = false;
    for (const char* k : kKnown) known = known || flag == k;
    if (!known) Usage("unknown flag " + flag);
  }
  const std::string invalid = Validate(*spec);
  if (!invalid.empty()) Usage("invalid workload parameters: " + invalid);
}

// ---- phases ---------------------------------------------------------------

// Wall time of each phase, plus, for a phase longer than its budget, where
// the time went: CPU seconds of the process and of each thread (wall time
// not covered by CPU was spent waiting) and the engine counters that moved.
class Phases {
 public:
  Phases() : watchdog_([this] { Watch(); }) {}
  ~Phases() {
    {
      std::lock_guard<std::mutex> g(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    watchdog_.join();
  }

  void Begin(const std::string& name, double budget_s, Database* db) {
    std::lock_guard<std::mutex> g(mu_);
    name_ = name;
    budget_ = budget_s;
    db_ = db;
    cpu0_ = ThreadCpuSeconds();
    process_cpu0_ = ProcessCpuSeconds();
    if (db_ != nullptr) m0_ = db_->SnapshotMetrics();
    t0_ = Clock::now();
    active_ = true;
  }

  double End() {
    std::lock_guard<std::mutex> g(mu_);
    active_ = false;
    const double wall = SecondsSince(t0_);
    times_.emplace_back(name_, wall);
    if (wall > budget_) Explain(wall);
    return wall;
  }

  // Emits "phases" (wall seconds per phase) and "overruns" (the
  // explanation of every phase that exceeded its budget).
  void Write(JsonWriter* j) const {
    std::lock_guard<std::mutex> g(mu_);
    j->Key("phases").BeginObject();
    for (const auto& [name, s] : times_) j->Field(name + "_s", s);
    j->EndObject();
    j->Key("overruns").BeginObject();
    for (const auto& [name, text] : overruns_) j->Field(name, text);
    j->EndObject();
  }

 private:
  void Explain(double wall) {
    // Threads that exited during the phase (joined daemons) are missing from
    // the per-thread list but counted in the process total.
    std::string text = "wall " + std::to_string(wall) + " s > budget " +
                       std::to_string(budget_) + " s; process cpu " +
                       std::to_string(ProcessCpuSeconds() - process_cpu0_) +
                       " s; live threads:";
    std::map<std::string, double> before(cpu0_.begin(), cpu0_.end());
    for (const auto& [thread, cpu] : ThreadCpuSeconds()) {
      const double d = cpu - (before.count(thread) ? before[thread] : 0.0);
      if (d >= 0.01) text += " " + thread + "=" + std::to_string(d) + "s";
    }
    if (db_ != nullptr) {
      const MetricsSnapshot m1 = db_->SnapshotMetrics();
      text += "; counters:";
      for (uint32_t c = 0; c < ermia::metrics::kFirstSampledGauge; ++c) {
        const uint64_t d = CounterDelta(m1, m0_, static_cast<Ctr>(c));
        if (d != 0) {
          text += std::string(" ") + ermia::metrics::CtrName(static_cast<Ctr>(c)) +
                  "=" + std::to_string(d);
        }
      }
    }
    std::fprintf(stderr, "perfbench: phase %s overran: %s\n", name_.c_str(),
                 text.c_str());
    overruns_.emplace_back(name_, text);
  }

  // Runs on its own thread: abandons a phase past its hard limit. Hung
  // engine threads cannot be joined, so this skips all teardown.
  void Watch() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stop_) {
      cv_.wait_for(lk, std::chrono::milliseconds(500));
      if (!active_) continue;
      const double wall = SecondsSince(t0_);
      if (wall <= std::max(kPhaseLimitSeconds, 2 * budget_)) continue;
      std::fprintf(stderr, "perfbench: phase %s stalled\n", name_.c_str());
      Explain(wall);
      std::fflush(stderr);
      std::_Exit(kStallExit);
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool active_ = false;
  std::string name_;
  double budget_ = 0;
  Database* db_ = nullptr;
  Clock::time_point t0_;
  std::vector<std::pair<std::string, double>> cpu0_;
  double process_cpu0_ = 0;
  MetricsSnapshot m0_;
  std::vector<std::pair<std::string, double>> times_;
  std::vector<std::pair<std::string, std::string>> overruns_;
  std::thread watchdog_;  // last: starts after every field it reads
};

// ---- closed-loop driver -----------------------------------------------------

struct WorkerTally {
  uint64_t commits = 0;
  uint64_t attempts = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> errors;
  // Request latencies (ns, retries included) of recorded chunks, by type.
  std::vector<std::vector<double>> latency_ns;
  // Attempts and commits of recorded chunks, by type.
  std::vector<uint64_t> type_attempts, type_commits;
};

struct ChunkResult {
  double wall_s = 0;
  uint64_t commits = 0;
  uint64_t attempts = 0;
};

bool IsAbort(const Status& s) {
  return s.IsConflict() || s.IsAborted() || s.IsPhantom() || s.IsLogUnavailable();
}

// Persistent worker threads that run chunks of requests on command, so one
// phase can be split into traced and untraced chunks without re-creating
// threads (each thread keeps its registry slot and its input stream).
class Driver {
 public:
  Driver(Database* db, ermia::bench::Workload* wl, const WorkloadSpec& spec)
      : db_(db), wl_(wl), spec_(spec), tallies_(spec.workers) {
    for (auto& t : tallies_) {
      t.latency_ns.resize(wl->NumTxnTypes());
      t.type_attempts.resize(wl->NumTxnTypes());
      t.type_commits.resize(wl->NumTxnTypes());
    }
    for (uint32_t w = 0; w < spec.workers; ++w) {
      threads_.emplace_back([this, w] { Loop(w); });
    }
  }

  ~Driver() {
    quit_.store(true);
    generation_.fetch_add(1, std::memory_order_acq_rel);
    for (auto& t : threads_) t.join();
  }

  // Reseeds every worker's input stream for a new phase.
  void Seed(uint64_t seed, uint64_t phase) {
    rngs_.clear();
    for (uint32_t w = 0; w < spec_.workers; ++w) {
      rngs_.emplace_back(seed * 0x9E3779B97F4A7C15ull + (w + 1) * 0xBF58476D1CE4E5B9ull +
                         phase * 0x94D049BB133111EBull);
    }
  }

  // Runs `per_worker` requests on every worker and waits for all of them.
  // `traced` turns on the cycle brackets and the flight recorder for the
  // chunk; `record` keeps the request latencies.
  ChunkResult RunChunk(uint64_t per_worker, bool traced, bool record) {
    per_worker_ = per_worker;
    traced_ = traced;
    record_ = record;
    uint64_t c0 = 0, a0 = 0;
    for (const auto& t : tallies_) {
      c0 += t.commits;
      a0 += t.attempts;
    }
    if (traced) {
      ermia::prof::Enable(true);
      ermia::trace::Configure(ermia::TraceMode::kSampled, kTraceSampleEvery);
    }
    done_.store(0);
    const auto t0 = Clock::now();
    generation_.fetch_add(1, std::memory_order_acq_rel);
    while (done_.load(std::memory_order_acquire) < spec_.workers) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ChunkResult r;
    r.wall_s = SecondsSince(t0);
    if (traced) {
      ermia::trace::Configure(ermia::TraceMode::kOff, kTraceSampleEvery);
      ermia::prof::Enable(false);
    }
    for (const auto& t : tallies_) {
      r.commits += t.commits;
      r.attempts += t.attempts;
    }
    r.commits -= c0;
    r.attempts -= a0;
    return r;
  }

  // Moves the recorded request latencies out of every worker, by type.
  // Call between chunks only.
  std::vector<std::vector<double>> Harvest() {
    std::vector<std::vector<double>> out(wl_->NumTxnTypes());
    for (auto& t : tallies_) {
      for (size_t type = 0; type < out.size(); ++type) {
        out[type].insert(out[type].end(), t.latency_ns[type].begin(),
                         t.latency_ns[type].end());
        t.latency_ns[type].clear();
      }
    }
    return out;
  }

  const std::vector<WorkerTally>& tallies() const { return tallies_; }

  // Zeroes every worker's outcome counts, so that warm-up requests are not
  // part of the result. Call between chunks only.
  void ResetTallies() {
    for (auto& t : tallies_) {
      t.commits = t.attempts = t.failed = 0;
      t.errors.clear();
    }
  }

 private:

  void Loop(uint32_t w) {
    uint64_t seen = 0;
    for (;;) {
      uint64_t g;
      while ((g = generation_.load(std::memory_order_acquire)) == seen) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      seen = g;
      if (quit_.load()) break;
      const uint64_t start = ermia::prof::Cycles();
      RunRequests(w, per_worker_);
      if (traced_) {
        ermia::prof::Bump(ermia::prof::MyCounters().total_cycles,
                          ermia::prof::Cycles() - start);
      }
      done_.fetch_add(1, std::memory_order_acq_rel);
    }
    ermia::ThreadRegistry::Deregister();
  }

  void RunRequests(uint32_t w, uint64_t n) {
    WorkerTally& t = tallies_[w];
    ermia::FastRandom& rng = rngs_[w];
    for (uint64_t i = 0; i < n; ++i) {
      const size_t type = wl_->PickTxnType(rng);
      const uint64_t t0 = NowNs();
      for (uint32_t attempt = 1;; ++attempt) {
        Status s = wl_->RunTxn(db_, kScheme, type, w, spec_.workers, rng);
        ++t.attempts;
        if (record_) ++t.type_attempts[type];
        if (s.ok()) {
          ++t.commits;
          if (record_) {
            t.latency_ns[type].push_back(static_cast<double>(NowNs() - t0));
            ++t.type_commits[type];
          }
          break;
        }
        if (!IsAbort(s) || attempt >= kMaxAttempts) {
          ++t.failed;
          ++t.errors[s.ToString()];
          break;
        }
      }
    }
  }

  Database* db_;
  ermia::bench::Workload* wl_;
  const WorkloadSpec& spec_;
  std::vector<WorkerTally> tallies_;
  std::vector<ermia::FastRandom> rngs_;
  std::vector<std::thread> threads_;
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint32_t> done_{0};
  std::atomic<bool> quit_{false};
  uint64_t per_worker_ = 0;
  bool traced_ = false;
  bool record_ = false;
};

// ---- per-layer accounting over the traced chunks ----------------------------

// Sum of the traced chunks' metric deltas, and the spans their trace dumps
// hold.
struct TraceAccum {
  MetricsSnapshot delta;  // counters (gauges included) and histograms
  double wall_s = 0;
  uint64_t commits = 0;
  uint64_t attempts = 0;
  std::vector<double> certify_ns, gc_pass_ns, flush_ns;

  void Add(const MetricsSnapshot& after, const MetricsSnapshot& before) {
    for (uint32_t c = 0; c < static_cast<uint32_t>(Ctr::kNumCounters); ++c) {
      delta.counters[c] += CounterDelta(after, before, static_cast<Ctr>(c));
    }
    const MetricsSnapshot d = after.DeltaSince(before);
    for (uint32_t h = 0; h < static_cast<uint32_t>(Hist::kNumHists); ++h) {
      for (size_t b = 0; b < ermia::metrics::kHistBuckets; ++b) {
        delta.hists[h].buckets[b] += d.hists[h].buckets[b];
      }
      delta.hists[h].count += d.hists[h].count;
      delta.hists[h].sum += d.hists[h].sum;
    }
    delta.profile.Add(d.profile);
  }

  void AddSpans(const std::string& path, uint64_t lo_tsc, uint64_t hi_tsc) {
    using ermia::trace::Event;
    ermia::trace::TraceDump dump;
    if (!ermia::trace::ReadTraceDump(path, &dump).ok()) return;
    auto append = [&](std::vector<double>* v, Event b, Event e) {
      auto s = SpanDurationsNs(dump, b, e, lo_tsc, hi_tsc);
      v->insert(v->end(), s.begin(), s.end());
    };
    append(&certify_ns, Event::kCertifyBegin, Event::kCertifyEnd);
    append(&gc_pass_ns, Event::kGcPassBegin, Event::kGcPassEnd);
    append(&flush_ns, Event::kLogFlushBegin, Event::kLogFlushEnd);
  }
};

// Cycles inside the engine's prof:: brackets.
uint64_t BracketCycles(const ermia::prof::Counters& p) {
  return p.index_cycles + p.indirection_cycles + p.log_cycles + p.epoch_cycles +
         p.cc_cycles;
}

// Per-layer metrics from the traced chunks, named layer.metric (layers: txn,
// cc, index, storage, log, epoch) plus unattributed.* and trace.*.
void WritePerLayer(JsonWriter* j, TraceAccum& acc, double untraced_tps) {
  const MetricsSnapshot& d = acc.delta;
  const ermia::prof::Counters& p = d.profile;
  const double commits = static_cast<double>(acc.commits);
  const double per_txn = commits > 0 ? 1.0 / commits : 0.0;
  const double total = static_cast<double>(p.total_cycles);
  const double reads = static_cast<double>(d.counter(Ctr::kTxnReads));

  // Cycles per committed transaction, by bracket; unattributed is the rest
  // of the workers' time (Run() checks that it is not negative).
  j->Field("txn.cycles_per_txn", total * per_txn);
  j->Field("index.cycles_per_txn", static_cast<double>(p.index_cycles) * per_txn);
  j->Field("storage.indirection_cycles_per_txn",
           static_cast<double>(p.indirection_cycles) * per_txn);
  j->Field("log.cycles_per_txn", static_cast<double>(p.log_cycles) * per_txn);
  j->Field("epoch.cycles_per_txn", static_cast<double>(p.epoch_cycles) * per_txn);
  j->Field("cc.cycles_per_txn", static_cast<double>(p.cc_cycles) * per_txn);
  j->Field("unattributed.cycles_per_txn",
           (total - static_cast<double>(BracketCycles(p))) * per_txn);

  j->Field("index.read_retries_per_lookup",
         Ratio(static_cast<double>(d.counter(Ctr::kIndexReadRetries)), reads));
  j->Field("cc.certify_us_p50", Quantile(&acc.certify_ns, 0.5) / 1e3);
  j->Field("cc.ssn_bitmap_advertises_per_read",
         Ratio(static_cast<double>(d.counter(Ctr::kSsnBitmapAdvertises)), reads));
  for (AbortReason r : {AbortReason::kExplicit, AbortReason::kSiFirstUpdaterWins,
                        AbortReason::kSiSnapshotOverwrite,
                        AbortReason::kSsnExclusionRead,
                        AbortReason::kSsnExclusionUpdate,
                        AbortReason::kSsnExclusionCommit, AbortReason::kPhantom}) {
    j->Field(std::string("cc.aborts_per_ktxn.") + ermia::metrics::AbortReasonName(r),
           Ratio(1000.0 * static_cast<double>(d.abort_count(r)),
                 static_cast<double>(acc.attempts)));
  }

  j->Field("log.bytes_per_commit",
         Ratio(static_cast<double>(d.counter(Ctr::kLogFlushedBytes)), commits));
  j->Field("log.flushes_per_s",
         Ratio(static_cast<double>(d.counter(Ctr::kLogFlushes)), acc.wall_s));
  j->Field("log.flush_us_p99", Quantile(&acc.flush_ns, 0.99) / 1e3);

  j->Field("storage.gc_passes_per_s",
         Ratio(static_cast<double>(d.counter(Ctr::kGcPasses)), acc.wall_s));
  j->Field("storage.gc_pass_ms_p50", Quantile(&acc.gc_pass_ns, 0.5) / 1e6);
  j->Field("storage.gc_chain_len_p99", d.hist(Hist::kGcChainLength).Percentile(99));
  j->Field("storage.gc_reclaimed_per_update",
         Ratio(static_cast<double>(d.counter(Ctr::kGcVersionsReclaimed)),
               static_cast<double>(d.counter(Ctr::kTxnUpdates))));
  const double hits = static_cast<double>(d.counter(Ctr::kVerAllocFreelistHits));
  j->Field("storage.alloc_freelist_hit_ratio",
         Ratio(hits, hits + static_cast<double>(d.counter(Ctr::kVerAllocSlabCarves) +
                                                d.counter(Ctr::kVerAllocMallocFallbacks))));

  j->Field("epoch.straggler_stalls", d.counter(Ctr::kEpochStragglerStalls));

  const double pool_hits = static_cast<double>(d.counter(Ctr::kTxnResPoolHits));
  j->Field("txn.res_pool_hit_ratio",
         Ratio(pool_hits, pool_hits + static_cast<double>(d.counter(Ctr::kTxnResPoolMisses))));

  const double traced_tps = Ratio(commits, acc.wall_s);
  j->Field("trace.traced_tps", traced_tps);
  j->Field("trace.overhead_pct", Ratio(untraced_tps - traced_tps, untraced_tps) * 100.0);
}

// ---- the run ------------------------------------------------------------------

// Throughput and latency of the recorded (untraced) chunks of the measured
// phase. End-to-end figures are medians over chunks, so a burst of
// interference on the shared host moves one chunk, not the result.
struct Recorded {
  std::vector<double> chunk_tps, chunk_short_p50, chunk_short_p95, chunk_short_p99;
  std::vector<std::vector<double>> by_type;  // every sample, ns
  double wall_s = 0;
  uint64_t commits = 0;

  void AddChunk(const ChunkResult& r, const std::vector<std::vector<double>>& samples,
                const WorkloadSpec& spec) {
    wall_s += r.wall_s;
    commits += r.commits;
    chunk_tps.push_back(Ratio(static_cast<double>(r.commits), r.wall_s));
    std::vector<double> short_ns;
    by_type.resize(samples.size());
    for (size_t type = 0; type < samples.size(); ++type) {
      by_type[type].insert(by_type[type].end(), samples[type].begin(),
                           samples[type].end());
      if (!IsLongType(spec, type)) {
        short_ns.insert(short_ns.end(), samples[type].begin(), samples[type].end());
      }
    }
    chunk_short_p50.push_back(Quantile(&short_ns, 0.5) / 1e3);
    chunk_short_p95.push_back(Quantile(&short_ns, 0.95) / 1e3);
    chunk_short_p99.push_back(Quantile(&short_ns, 0.99) / 1e3);
  }
};

// Time and engine metrics of one Recover() of the run's log.
struct Recovery {
  double seconds = 0;
  MetricsSnapshot metrics;
};

int Run(const Args& args, const WorkloadSpec& spec) {
  Phases phases;
  std::vector<std::string> failed_checks;
  // Each round loads a fresh database into its own log directory; the last
  // round's log is the one recovered.
  auto round_config = [&](uint32_t r) {
    EngineConfig config;
    config.log_dir = args.log_dir + "/round" + std::to_string(r + 1);
    std::filesystem::create_directories(config.log_dir);
    return config;
  };
  auto tag = [&](uint32_t r, const char* phase) {
    return spec.rounds == 1 ? std::string(phase)
                            : "round" + std::to_string(r + 1) + "." + phase;
  };

  const uint32_t chunks_per_round =
      std::max<uint32_t>(1, (args.trace ? 2 * kTracePairs : kMeasureChunks) / spec.rounds);
  const uint32_t chunks = chunks_per_round * spec.rounds;
  const uint64_t chunk =
      std::max<uint64_t>(1, spec.txns_per_second * args.seconds / spec.workers / chunks);
  const uint64_t requests = chunk * chunks * spec.workers;
  const uint64_t warmup_per_worker = static_cast<uint64_t>(
      static_cast<double>(chunk * chunks_per_round) * kWarmupShare);

  std::unique_ptr<Database> db;
  std::unique_ptr<ermia::bench::Workload> wl;
  std::vector<std::string> type_names;
  double setup_s = 0;
  Recorded rec;
  TraceAccum acc;
  uint64_t commits = 0, attempts = 0, failed = 0;
  std::map<std::string, uint64_t> errors;
  uint64_t aborts[static_cast<size_t>(AbortReason::kNumReasons)] = {};
  std::vector<uint64_t> type_attempts, type_commits;  // recorded chunks only
  ermia::tpcc::TpccTables tpcc_tables;
  constexpr uint32_t kDistricts = 10;
  Status s;
  for (uint32_t round = 0; round < spec.rounds; ++round) {
    // Set-up: a fresh database and the workload's load.
    const EngineConfig config = round_config(round);
    phases.Begin(tag(round, "setup"), 30, nullptr);
    db = std::make_unique<Database>(config);
    wl = MakeWorkload(spec);
    s = db->Open();
    if (s.ok()) s = wl->Load(db.get());
    db->RefreshOccSnapshot();
    const double load_s = phases.End();
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: load failed: %s\n", s.ToString().c_str());
      return 1;
    }
    if (round == 0) setup_s = load_s;
    if (args.setup_only) {
      JsonWriter j;
      j.BeginObject().Field("mode", "setup").Field("setup_s", setup_s).EndObject();
      std::printf("%s\n", j.str().c_str());
      std::fflush(stdout);
      // The caller deletes the log directory; skip the teardown of a
      // database nothing else will read.
      std::_Exit(0);
    }
    type_names.clear();
    for (size_t t = 0; t < wl->NumTxnTypes(); ++t) type_names.push_back(wl->TxnTypeName(t));

    // The driver's threads stop before the database they use is closed.
    std::optional<Driver> driver(std::in_place, db.get(), wl.get(), spec);
    phases.Begin(tag(round, "warmup"), 30, db.get());
    driver->Seed(args.seed, 2 * round);
    if (warmup_per_worker > 0) driver->RunChunk(warmup_per_worker, false, false);
    phases.End();
    // Warm-up outcomes are not part of the result.
    driver->ResetTallies();

    phases.Begin(tag(round, "measured"), 2.0 * static_cast<double>(args.seconds) + 20,
                 db.get());
    const MetricsSnapshot measured_start = db->SnapshotMetrics();
    driver->Seed(args.seed, 2 * round + 1);
    for (uint32_t k = 0; k < chunks_per_round; ++k) {
      // Traced runs alternate U T, T U, U T, T U over the whole run.
      const uint32_t c = round * chunks_per_round + k;
      const bool traced = args.trace && ((c % 2 == 1) == ((c / 2) % 2 == 0));
      const MetricsSnapshot before = db->SnapshotMetrics();
      const uint64_t lo = ermia::prof::Cycles();
      const ChunkResult r = driver->RunChunk(chunk, traced, !traced);
      const uint64_t hi = ermia::prof::Cycles();
      if (!traced) {
        rec.AddChunk(r, driver->Harvest(), spec);
        continue;
      }
      acc.Add(db->SnapshotMetrics(), before);
      acc.wall_s += r.wall_s;
      acc.commits += r.commits;
      acc.attempts += r.attempts;
      const std::string dump = config.log_dir + "/trace.bin";
      if (db->DumpTrace(dump).ok()) acc.AddSpans(dump, lo, hi);
      std::remove(dump.c_str());
    }
    phases.End();
    type_attempts.resize(type_names.size());
    type_commits.resize(type_names.size());
    for (const auto& t : driver->tallies()) {
      commits += t.commits;
      attempts += t.attempts;
      failed += t.failed;
      for (const auto& [e, n] : t.errors) errors[e] += n;
      for (size_t type = 0; type < type_names.size(); ++type) {
        type_attempts[type] += t.type_attempts[type];
        type_commits[type] += t.type_commits[type];
      }
    }
    driver.reset();
    const MetricsSnapshot round_delta = db->SnapshotMetrics().DeltaSince(measured_start);
    for (uint32_t r = 0; r < static_cast<uint32_t>(AbortReason::kNumReasons); ++r) {
      aborts[r] += round_delta.abort_count(static_cast<AbortReason>(r));
    }

    if (spec.kind == Kind::kTpccHybrid) {
      tpcc_tables = static_cast<ermia::tpcc::TpccWorkload*>(wl.get())->tables();
      const std::string bad =
          CheckTpccConsistency(db.get(), tpcc_tables, spec.warehouses, kDistricts);
      if (!bad.empty()) failed_checks.push_back(tag(round, "after_run") + ":" + bad);
    }
    if (round + 1 < spec.rounds) {
      db->Close();
      db.reset();
      wl.reset();
      std::filesystem::remove_all(config.log_dir);
    }
  }
  const double peak_rss_mb = PeakRssMiB();
  const MetricsSnapshot run_end = db->SnapshotMetrics();

  // Oracle on the live database of the last round.
  phases.Begin("verify", 30, db.get());
  std::vector<IndexDigest> before_close;
  s = DigestDatabase(db.get(), &before_close);
  if (!s.ok()) failed_checks.push_back("after_run:digest_scan " + s.ToString());
  phases.End();

  phases.Begin("close", 2, db.get());
  db->Close();
  const double close_s = phases.End();
  phases.Begin("teardown", 30, nullptr);
  db.reset();
  wl.reset();
  phases.End();

  // Restart from the same log directory, kRecoveries times; each recovered
  // database must match the state before Close().
  std::vector<Recovery> recoveries;
  for (uint32_t i = 1; i <= kRecoveries; ++i) {
    const std::string tag = std::to_string(i);
    auto rdb = std::make_unique<Database>(round_config(spec.rounds - 1));
    CreateSchema(rdb.get(), spec, &tpcc_tables);
    s = rdb->Open();
    phases.Begin("recover" + tag, 30, rdb.get());
    if (s.ok()) s = rdb->Recover();
    Recovery r;
    r.seconds = phases.End();
    if (!s.ok()) {
      failed_checks.push_back("recover" + tag + " " + s.ToString());
      break;
    }
    r.metrics = rdb->SnapshotMetrics();
    recoveries.push_back(r);

    phases.Begin("verify_recovered" + tag, 30, rdb.get());
    if (spec.kind == Kind::kTpccHybrid) {
      const std::string bad =
          CheckTpccConsistency(rdb.get(), tpcc_tables, spec.warehouses, kDistricts);
      if (!bad.empty()) failed_checks.push_back("after_recover" + tag + ":" + bad);
    }
    std::vector<IndexDigest> after;
    s = DigestDatabase(rdb.get(), &after);
    if (!s.ok()) {
      failed_checks.push_back("after_recover" + tag + ":digest_scan " + s.ToString());
    }
    const std::string diff = CompareDigests(before_close, after);
    if (!diff.empty()) failed_checks.push_back("after_recover" + tag + ":" + diff);
    phases.End();
    phases.Begin("close_recovered" + tag, 30, rdb.get());
    rdb->Close();
    rdb.reset();
    phases.End();
  }
  // The recovery with the median time stands for the run.
  std::sort(recoveries.begin(), recoveries.end(),
            [](const Recovery& a, const Recovery& b) { return a.seconds < b.seconds; });
  const Recovery recovery = recoveries.empty() ? Recovery{} : recoveries[recoveries.size() / 2];

  const double overall_tps = Ratio(static_cast<double>(rec.commits), rec.wall_s);
  if (args.trace) {
    // unattributed = total - brackets, so the brackets plus unattributed
    // equal the total by definition; what can fail is unattributed >= 0.
    const auto& p = acc.delta.profile;
    if (p.total_cycles == 0) {
      failed_checks.push_back("trace:no_total_cycles");
    } else if (BracketCycles(p) > p.total_cycles) {
      failed_checks.push_back(
          "trace:cycle_identity brackets=" + std::to_string(BracketCycles(p)) +
          " > total=" + std::to_string(p.total_cycles) +
          " (nested brackets: the index bracket around a range scan also times the"
          " record reads of its callback, so index.cycles_per_txn double-counts and"
          " unattributed.cycles_per_txn is negative)");
    }
  }
  if (commits == 0) failed_checks.push_back("no_commits");

  JsonWriter j;
  j.BeginObject();
  j.Field("mode", "run").Field("workload", spec.name).Field("seed", args.seed);
  j.Key("trace").Bool(args.trace);
  j.Key("correct").Bool(failed_checks.empty());
  j.Key("failed_checks").BeginObject();
  for (size_t i = 0; i < failed_checks.size(); ++i) {
    j.Field(std::to_string(i), failed_checks[i]);
  }
  j.EndObject();
  j.Field("attempted", requests).Field("failed", failed);
  j.Key("errors").BeginObject();
  for (const auto& [e, n] : errors) j.Field(e, n);
  j.EndObject();
  phases.Write(&j);

  std::vector<double> long_ns;
  for (size_t type = 0; type < rec.by_type.size(); ++type) {
    if (IsLongType(spec, type)) {
      long_ns.insert(long_ns.end(), rec.by_type[type].begin(), rec.by_type[type].end());
    }
  }
  size_t short_samples = 0;
  for (size_t type = 0; type < rec.by_type.size(); ++type) {
    if (!IsLongType(spec, type)) short_samples += rec.by_type[type].size();
  }
  j.Key("end_to_end").BeginObject();
  j.Field("throughput_tps", Quantile(&rec.chunk_tps, 0.5));
  j.Field("chunk_tps_min", Quantile(&rec.chunk_tps, 0));
  j.Field("chunk_tps_max", Quantile(&rec.chunk_tps, 1));
  j.Field("short_p50_us", Quantile(&rec.chunk_short_p50, 0.5));
  j.Field("short_p95_us", Quantile(&rec.chunk_short_p95, 0.5));
  j.Field("short_p99_us", Quantile(&rec.chunk_short_p99, 0.5));
  j.Field("short_samples", short_samples);
  j.Field("chunks", rec.chunk_tps.size());
  j.Field("overall_tps", overall_tps);
  if (spec.kind == Kind::kTpccHybrid) {
    j.Field("long_tps", Ratio(static_cast<double>(long_ns.size()), rec.wall_s));
    j.Field("long_p50_us", Quantile(&long_ns, 0.5) / 1e3);
    j.Field("long_p99_us", Quantile(&long_ns, 0.99) / 1e3);
    j.Field("long_samples", long_ns.size());
    const size_t q2 = static_cast<size_t>(ermia::tpcc::TpccTxnType::kQ2Star);
    j.Field("long_commit_ratio", Ratio(static_cast<double>(type_commits[q2]),
                                     static_cast<double>(type_attempts[q2])));
  }
  j.Field("commit_ratio", Ratio(static_cast<double>(commits), static_cast<double>(attempts)));
  j.Field("setup_s", setup_s);
  j.Field("recover_s", recovery.seconds);
  j.Field("peak_rss_mb", peak_rss_mb);
  j.EndObject();

  // Aborts by reason over the measured phases (warm-ups excluded).
  j.Key("aborts").BeginObject();
  for (uint32_t r = 0; r < static_cast<uint32_t>(AbortReason::kNumReasons); ++r) {
    j.Field(ermia::metrics::AbortReasonName(static_cast<AbortReason>(r)), aborts[r]);
  }
  j.EndObject();

  // Committed requests, commit ratio and median latency per transaction
  // type, over the recorded chunks.
  j.Key("types").BeginObject();
  for (size_t type = 0; type < rec.by_type.size(); ++type) {
    j.Key(type_names[type]).BeginObject();
    j.Field("committed", rec.by_type[type].size());
    j.Field("commit_ratio", Ratio(static_cast<double>(type_commits[type]),
                                static_cast<double>(type_attempts[type])));
    j.Field("p50_us", Quantile(&rec.by_type[type], 0.5) / 1e3);
    j.EndObject();
  }
  j.EndObject();

  if (args.trace) {
    j.Key("per_layer").BeginObject();
    WritePerLayer(&j, acc, overall_tps);
    j.Field("epoch.boundary_lag", run_end.counter(Ctr::kEpochBoundaryLag));
    j.Field("storage.version_slab_mb",
            static_cast<double>(run_end.counter(Ctr::kVerAllocSlabBytes)) / (1 << 20));
    j.Field("engine.close_s", close_s);
    const MetricsSnapshot& rm = recovery.metrics;
    j.Field("engine.recovery_records", rm.counter(Ctr::kRecoveryReplayRecords));
    j.Field("engine.recovery_mb_per_s",
            Ratio(static_cast<double>(rm.counter(Ctr::kRecoveryReplayBytes)) / (1 << 20),
                  recovery.seconds));
    j.Field("engine.recovery_batch_us_p99",
            rm.hist(Hist::kRecoveryBatchUs).Percentile(99));
    j.EndObject();
  }
  j.EndObject();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Die with the harness that started us, so an interrupted run leaves no
  // process behind.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  perfbench::Args args;
  perfbench::WorkloadSpec spec;
  perfbench::ParseArgs(argc, argv, &args, &spec);
  return perfbench::Run(args, spec);
}
