// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Process-wide configuration and the dense thread registry. Every thread that
// touches the engine (workers, loaders, background daemons) registers once and
// receives a small dense id; epoch managers and per-thread log staging buffers
// are indexed by it.
#ifndef ERMIA_COMMON_SYSCONF_H_
#define ERMIA_COMMON_SYSCONF_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/macros.h"

namespace ermia {

// Upper bound on concurrently registered threads. Registration slots are
// recycled when threads deregister, so long-running processes that churn
// threads stay within the bound.
inline constexpr uint32_t kMaxThreads = 256;

class ThreadRegistry {
 public:
  // Dense id of the calling thread, registering it on first use.
  static uint32_t MyId();

  // Releases the calling thread's slot for reuse. Safe to call multiple
  // times; after release, the next MyId() re-registers.
  static void Deregister();

  // High-water mark of ids ever handed out (for iteration bounds).
  static uint32_t HighWaterMark();
};

// Flight-recorder trace granularity (trace/trace.h). kSampled records the
// full lifecycle of 1-in-trace_sample_every transactions (daemon events are
// always recorded when tracing is on); kAll records every transaction.
enum class TraceMode : uint32_t { kOff = 0, kSampled = 1, kAll = 2 };

// Version allocation backend (storage/version_alloc.h). kSlab is the
// epoch-integrated per-thread slab allocator; kMalloc keeps raw malloc/free
// selectable for sanitizer runs (real frees for use-after-free detection)
// and A/B ablation.
enum class VersionAllocMode : uint32_t { kSlab = 0, kMalloc = 1 };

struct EngineConfig {
  // Directory for log segment files and checkpoints. Empty = fully in-memory
  // logging (log records still flow through the central buffer but are
  // discarded instead of written, for benchmarks that isolate CC cost).
  std::string log_dir;

  // Size of one log segment file. Small by default so tests exercise segment
  // rotation; benchmarks raise it.
  uint64_t log_segment_size = 64ull << 20;

  // Central log ring buffer capacity.
  uint64_t log_buffer_size = 16ull << 20;

  // If false, the post-commit log flush is asynchronous (paper setup: log to
  // tmpfs asynchronously).
  bool synchronous_commit = false;

  // Fig. 10 emulation: make every update operation its own round trip to the
  // centralized log buffer (WAL style) instead of one block per transaction.
  // Benchmark-only: aborted transactions leave records in the log, so
  // recovery is unsupported in this mode.
  bool log_per_operation = false;

  // SSN read-mostly optimizations (cc/safe_snapshot.h). The engine always
  // maintains a lagging safe-snapshot LSN: the highest offset below which
  // every transaction has fully post-committed and published its stamps, and
  // below which no committed backward rw-dependency (final sstamp < offset <=
  // cstamp) crosses. These two flags gate what is done with it; the
  // ERMIA_SSN_READOPT environment variable ("off" | "on"/"both" |
  // "safesnap" | "readopt") overrides both at Database construction.
  //
  // ssn_safe_snapshot: declared read-only SiSsn transactions begin at the
  // safe-snapshot LSN and read with zero tracking — no reader slot, no
  // bitmap RMWs, no read set, trivial commit, can never abort. Off by
  // default because the snapshot visibly lags the log tail (a read-only
  // transaction may not observe its own thread's latest commits).
  bool ssn_safe_snapshot = false;

  // ssn_read_opt: non-read-only SiSsn transactions skip reader-bitmap
  // advertisement (and the full read-set entry) for versions whose clsn is
  // older than the safe-snapshot LSN; only the commit-time pstamp update
  // survives. Semantics-preserving (see docs/INTERNALS.md "Read-mostly
  // optimizations"), so it defaults on together with safe snapshots when
  // ERMIA_SSN_READOPT=on.
  bool ssn_read_opt = false;

  // Garbage collection: background thread trims version chains.
  bool enable_gc = true;
  uint64_t gc_interval_ms = 40;

  // OCC read-only snapshot refresh period (Silo's copy-on-write snapshots are
  // modeled as a periodically advanced snapshot LSN).
  uint64_t occ_snapshot_interval_ms = 20;

  // Recovery parallelism: number of replay workers for checkpoint loading
  // and log-tail replay. Table records are partitioned by stripes of
  // consecutive OIDs and index entries by a hash of the key, so per-chain
  // LSN order is preserved with no cross-worker coordination — the property
  // the indirection arrays (§3.2) and segmented LSN space (§3.3) were
  // designed to enable. 0 = use the hardware concurrency; 1 runs the same
  // replay with one worker (the crash harness checks 1 ≡ N workers).
  uint32_t recovery_threads = 0;

  // Periodic fuzzy checkpoints (paper §3.7: "OID arrays are periodically
  // copied"). 0 disables the daemon; checkpoints can still be taken
  // explicitly via Database::TakeCheckpoint().
  uint64_t checkpoint_interval_ms = 0;

  // Version allocation backend. The ERMIA_VERSION_ALLOCATOR environment
  // variable ("slab" | "malloc") overrides this at Database construction.
  VersionAllocMode version_allocator = VersionAllocMode::kSlab;

  // Metrics reporter daemon: every interval, emit a JSON-lines delta of the
  // engine metrics snapshot. 0 disables the daemon (the registry itself is
  // always on and queryable via Database::SnapshotMetrics()).
  uint64_t metrics_report_interval_ms = 0;

  // Destination for reporter output; empty = stderr.
  std::string metrics_report_path;

  // Flight recorder (trace/trace.h): per-thread binary event rings, always
  // compiled in and gated at run time by this mode. The ERMIA_TRACE
  // environment variable ("off" | "sampled[:N]" | "all") overrides it at
  // Database construction. The recorder is process-global; only one open
  // Database should enable tracing at a time (the enabling Database turns it
  // off again on Close()).
  TraceMode trace_mode = TraceMode::kOff;

  // Sampling period for TraceMode::kSampled: trace 1 in N transactions
  // (per-thread decision, so every worker contributes samples).
  uint32_t trace_sample_every = 64;

  // Slow-transaction capture: committed transactions whose begin-to-commit
  // latency exceeds this persist their full event breakdown as a JSON line.
  // 0 disables capture. Only traced transactions are eligible, so under
  // kSampled this sees 1-in-N of the slow tail.
  uint64_t trace_slow_txn_us = 0;

  // Destination for slow-transaction JSON lines; empty = stderr.
  std::string trace_slow_txn_path;

  // If non-empty, Database::Open installs a fatal-signal handler that dumps
  // the trace rings to this path post-mortem (composes with the crash
  // harness: the handler re-raises, preserving the death signal).
  std::string trace_crash_dump_path;

  // ---- graceful degradation (docs/INTERNALS.md "Degraded modes") ----------

  // Log-stall protocol: steady-state flush failures degrade the engine
  // instead of crashing it. ENOSPC/EDQUOT on a segment write parks the
  // flusher in a stalled state that retries with bounded backoff while new
  // write transactions are rejected with Status::LogUnavailable (reads keep
  // running); any other write error or a failed fdatasync poisons the log:
  // a sticky read-only mode that never acknowledges durability past the last
  // known-good offset. A stalled flusher retries with exponential backoff
  // from initial to max.
  uint64_t log_stall_retry_initial_ms = 10;
  uint64_t log_stall_retry_max_ms = 1000;

  // Abort-storm governor (engine/governor.h): AIMD admission gate that sheds
  // concurrent writers when the measured abort rate crosses the high
  // watermark and re-grows the limit when it falls below the low one.
  // Off by default (it trades peak throughput for goodput under contention).
  bool governor_enabled = false;
  uint32_t governor_high_permille = 650;  // shrink limit above this rate
  uint32_t governor_low_permille = 300;   // grow limit below this rate
  uint32_t governor_min_writers = 1;      // floor for the writer limit
  // Minimum (commits + aborts) per tick before the rate is considered
  // meaningful; quiet ticks leave the limit untouched.
  uint32_t governor_min_sample = 64;

  // Engine watchdog (engine/watchdog.h): background daemon that detects a
  // non-advancing durable offset with pending log bytes, stuck epoch
  // boundaries, and a stuck safe-snapshot horizon; a trip logs one line,
  // bumps kWatchdogTrips, and (if watchdog_dump_dir is set) drops a trace
  // dump + metrics snapshot there. watchdog_interval_ms = 0 disables it.
  uint64_t watchdog_interval_ms = 500;
  uint64_t watchdog_grace_ms = 5000;
  std::string watchdog_dump_dir;
};

}  // namespace ermia

#endif  // ERMIA_COMMON_SYSCONF_H_
