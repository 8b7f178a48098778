// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Small statistics helpers: exact quantiles of recorded samples, span
// durations paired out of flight-recorder dumps, per-thread CPU time, and
// metrics-snapshot arithmetic for the traced run.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "metrics/metrics.h"
#include "trace/trace_reader.h"

namespace perfbench {

// Quantile q in [0, 1] of `v` with linear interpolation between the two
// nearest ranks; sorts `v`. 0 for an empty vector.
double Quantile(std::vector<double>* v, double q);

// Durations, in nanoseconds, of begin/end pairs recorded on one thread, for
// pairs that start at or after `lo_tsc` and end at or before `hi_tsc`.
std::vector<double> SpanDurationsNs(const ermia::trace::TraceDump& dump,
                                    ermia::trace::Event begin,
                                    ermia::trace::Event end, uint64_t lo_tsc,
                                    uint64_t hi_tsc);

// CPU seconds (user + system) consumed so far by each thread of this
// process, keyed by "<name>/<tid>".
std::vector<std::pair<std::string, double>> ThreadCpuSeconds();

// CPU seconds (user + system) consumed so far by the whole process,
// including threads that have exited.
double ProcessCpuSeconds();

// Peak resident set size of this process so far, in MiB (VmHWM).
double PeakRssMiB();

// Monotone counter delta for one counter, including the sampled gauges the
// engine overlays (MetricsSnapshot::DeltaSince keeps gauges absolute).
inline uint64_t CounterDelta(const ermia::metrics::MetricsSnapshot& after,
                             const ermia::metrics::MetricsSnapshot& before,
                             ermia::metrics::Ctr c) {
  const uint64_t a = after.counter(c), b = before.counter(c);
  return a > b ? a - b : 0;
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
