// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Benchmark driver (paper §4.1 methodology): N worker threads, each pinned to
// a dense registry slot, run randomly mixed transactions against one Database
// for a fixed duration; commits, aborts, and committed-latency histograms are
// gathered per transaction type. Workloads implement the Workload interface;
// one figure binary = one parameter sweep over RunBench.
#ifndef ERMIA_BENCH_DRIVER_H_
#define ERMIA_BENCH_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/stats.h"
#include "common/random.h"
#include "common/status.h"
#include "engine/database.h"

namespace ermia {
namespace bench {

class Workload {
 public:
  virtual ~Workload() = default;

  // Populates the database (fresh for every run, as in the paper).
  virtual Status Load(Database* db) = 0;

  virtual size_t NumTxnTypes() const = 0;
  virtual const char* TxnTypeName(size_t type) const = 0;

  // Draws a transaction type according to the workload mix.
  virtual size_t PickTxnType(FastRandom& rng) const = 0;

  // Executes one transaction of `type` to completion (commit or abort) and
  // returns the outcome. `worker_id` is dense in [0, threads).
  virtual Status RunTxn(Database* db, CcScheme scheme, size_t type,
                        uint32_t worker_id, uint32_t num_workers,
                        FastRandom& rng) = 0;
};

struct BenchOptions {
  uint32_t threads = 1;
  double seconds = 1.0;
  CcScheme scheme = CcScheme::kSi;
  uint64_t seed = 42;
  bool profile = false;  // enable the Fig. 11 component cycle counters
};

BenchResult RunBench(Database* db, Workload* workload,
                     const BenchOptions& options);

// ---- shared environment knobs so `for b in build/bench/*` stays fast on a
// small box but scales to paper-sized runs -----------------------------------

// ERMIA_BENCH_SECONDS (default `def`): run duration per data point.
double EnvSeconds(double def);
// ERMIA_BENCH_THREADS ("1,2,4"): thread counts for scalability sweeps; the
// default list is derived from the hardware. An invalid list (see
// ParseThreadList) prints the reason and exits with status 2.
std::vector<uint32_t> EnvThreads(const std::vector<uint32_t>& def);
// Parses a comma-separated list of thread counts. Every entry must be a
// decimal number in [1, kMaxThreads].
Status ParseThreadList(const std::string& text, std::vector<uint32_t>* out);
// ERMIA_BENCH_SCALE (default `def`): scale factor (e.g., TPC-C warehouses).
uint32_t EnvScale(uint32_t def);
// ERMIA_BENCH_DENSITY (default `def` in (0,1]): table-population density so
// small boxes can load quickly; 1.0 = full spec sizes.
double EnvDensity(double def);

// Fresh database with a temp log directory (deleted on destruction).
struct ScopedDatabase {
  explicit ScopedDatabase(EngineConfig config = {});
  ~ScopedDatabase();
  Database* db;
  std::string dir;
};

// Machine-readable output for figure/ablation binaries: construct from main's
// argv, Add() one entry per data point, and the destructor writes a single
// JSON document {"bench": ..., "results": [...]} to the path given by
// `--json <path>` (no-op when the flag is absent, so every binary can carry
// one unconditionally).
class JsonReporter {
 public:
  JsonReporter(int argc, char** argv, std::string bench_name);
  ~JsonReporter();

  void Add(const std::string& label, const BenchResult& result);
  bool enabled() const { return !path_.empty(); }

 private:
  std::string bench_name_;
  std::string path_;
  std::vector<std::pair<std::string, std::string>> entries_;  // label, json
};

}  // namespace bench
}  // namespace ermia

#endif  // ERMIA_BENCH_DRIVER_H_
