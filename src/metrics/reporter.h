// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Opt-in JSON-lines deltas of the engine metrics snapshot. Enabled via
// EngineConfig::metrics_report_interval_ms, which is also how often the
// Database's maintenance loop calls EmitDelta; output goes to
// EngineConfig::metrics_report_path (empty = stderr).
//
// The reporter pulls snapshots through a std::function so it has no compile-
// time dependency on Database (which owns both the reporter and the registry).
#ifndef ERMIA_METRICS_REPORTER_H_
#define ERMIA_METRICS_REPORTER_H_

#include <cstdio>
#include <functional>
#include <string>

#include "common/macros.h"
#include "metrics/metrics.h"

namespace ermia {
namespace metrics {

class Reporter {
 public:
  using SnapshotFn = std::function<MetricsSnapshot()>;

  // Opens `path` (empty = stderr) and takes the baseline snapshot the first
  // delta is measured from.
  Reporter(SnapshotFn source, uint64_t interval_ms, std::string path);
  // Closes the output file; emits nothing (the owner calls EmitDelta for
  // the final partial interval).
  ~Reporter();
  ERMIA_NO_COPY(Reporter);

  // Writes one line: the delta since the previous call (or the baseline).
  void EmitDelta();

 private:
  SnapshotFn source_;
  const uint64_t interval_ms_;

  std::FILE* out_ = nullptr;  // owned; null = stderr
  MetricsSnapshot last_;
  uint64_t seq_ = 0;
};

}  // namespace metrics
}  // namespace ermia

#endif  // ERMIA_METRICS_REPORTER_H_
