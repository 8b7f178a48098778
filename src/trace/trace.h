// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Flight-recorder tracing: always-compiled, run-time-gated per-thread binary
// event rings, in the spirit of Taurus's logging-pipeline telemetry
// (arXiv:2010.06760) and the per-event CC attribution of Larson et al.
// (arXiv:1201.0228).
//
// Design:
//  * One Ring per ThreadRegistry slot. A thread writes only its own ring
//    (single-writer bump, like the metrics shards): the 4 record words are
//    stored relaxed, then the head index is published with a release store.
//    On wrap the oldest record is overwritten; the drop count is derivable
//    as max(0, head - capacity) and is surfaced through the metrics
//    registry as the kTraceEventsDropped gauge.
//  * Records are fixed 32-byte tuples: rdtsc timestamp, two u64 payload
//    words, and a meta word packing txn id (low 32 bits of the TID), event
//    id, and thread slot. Record fields are relaxed atomics so a concurrent
//    dump (DumpTrace from another thread, the metrics gauge walk) is
//    race-free; a dumper re-validates the head afterwards and discards
//    records the writer may have overwritten mid-read.
//  * The recorder is process-global (like prof::g_thread_counters) so the
//    fatal-signal dump path needs no object lookup: DumpToFd() touches only
//    static storage and write(2), making it async-signal-safe.
//  * Gating: Emit() is called behind the caller's own cheap check —
//    transactions carry a `traced_` bool decided once at begin (sampling),
//    daemons check Active(). When trace_mode is off the added cost on hot
//    paths is one predictable branch on a relaxed load or a member bool.
#ifndef ERMIA_TRACE_TRACE_H_
#define ERMIA_TRACE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/macros.h"
#include "common/status.h"
#include "common/sysconf.h"

namespace ermia {
namespace trace {

// Event vocabulary. Paired *Begin/*End events become spans in the Perfetto
// export; the rest render as instants. Appending is free; renumbering
// invalidates old binary dumps (kDumpVersion guards this).
enum class Event : uint16_t {
  kNone = 0,  // zero-initialized slot, never emitted (decoder skip marker)
  // Transaction lifecycle. payloads: begin(a=scheme, b=read_only);
  // read/update/insert/delete(a=table fid, b=oid); scan(a=index fid,
  // b=delivered rows); commit(payloads unused); abort(a=AbortReason).
  kTxnBegin,
  kTxnRead,
  kTxnUpdate,
  kTxnInsert,
  kTxnDelete,
  kTxnScan,
  // Commit certification (SSN exclusion test, OCC validation, 2PL node-set
  // validation; SI has no certification phase and emits neither).
  // payloads: end(a=1 pass, 0 fail).
  kCertifyBegin,
  kCertifyEnd,
  // Synchronous-commit group-commit wait. payloads: a=durable target offset.
  kLogFlushWaitBegin,
  kLogFlushWaitEnd,
  kTxnCommit,
  kTxnAbort,
  // Daemon events. epoch(a=new GC epoch);
  // gc end(a=versions reclaimed); flush(a=batch bytes); rotation(a=segment
  // start offset); checkpoint(a=begin offset).
  kEpochAdvance,
  kGcPassBegin,
  kGcPassEnd,
  kLogFlushBegin,
  kLogFlushEnd,
  kLogRotation,
  kCkptBegin,
  kCkptCollected,
  kCkptDataSynced,
  kCkptEnd,
  // Safe-snapshot daemon (cc/safe_snapshot.h). payloads: a=published safe
  // offset, b=candidates burnt by a poisoning backward edge so far.
  kSafeSnapshotPublish,
  // Graceful degradation. Stall span: begin(a=durable offset at stall,
  // b=errno), end(a=durable offset at resume, b=retries spent). poisoned
  // (a=last durable offset, b=errno) is sticky and emits once. governor
  // limit(a=new writer limit, b=abort rate permille); watchdog trip
  // (a=reason code, b=reason-specific detail, e.g. the stuck offset).
  kLogStallBegin,
  kLogStallEnd,
  kLogPoisoned,
  kGovernorLimit,
  kWatchdogTrip,
  kNumEvents,
};

const char* EventName(Event e);

// 32-byte record. meta packs (txn << 32) | (event << 16) | thread: the txn
// id is truncated to the low 32 bits of the TID, which cannot collide within
// one ring's window (TIDs are dense small integers from the TID table).
struct Record {
  std::atomic<uint64_t> tsc{0};
  std::atomic<uint64_t> a{0};
  std::atomic<uint64_t> b{0};
  std::atomic<uint64_t> meta{0};
};
static_assert(sizeof(Record) == 32, "trace records are fixed 32-byte tuples");

inline constexpr uint64_t PackMeta(uint64_t txn, Event e, uint32_t thread) {
  return (txn << 32) | (static_cast<uint64_t>(e) << 16) |
         static_cast<uint64_t>(thread & 0xffff);
}

// Events per ring; power of two (index masking) and large enough to hold the
// full lifecycle of hundreds of recent transactions per thread. 4096 × 32 B
// × kMaxThreads = 32 MiB of zero-initialized BSS, untouched until traced.
inline constexpr uint64_t kRingEvents = 4096;

struct alignas(kCacheLineSize) Ring {
  // Monotonic count of records ever written; slot = head & (kRingEvents-1).
  // Published with release so a dumper that acquires head sees every record
  // below it fully written.
  std::atomic<uint64_t> head{0};
  char pad[kCacheLineSize - sizeof(std::atomic<uint64_t>)];
  Record records[kRingEvents];
};

// Binary dump format: FileHeader, then one RingHeader + `count` plain
// 32-byte records (oldest first) per non-empty ring.
inline constexpr uint64_t kDumpMagic = 0x43525441494d5245ull;  // "ERMIATRC"
inline constexpr uint32_t kDumpVersion = 1;

struct FileHeader {
  uint64_t magic;
  uint32_t version;
  uint32_t record_size;
  uint32_t ring_events;
  uint32_t nrings;           // RingHeader sections that follow
  double cycles_per_ns;      // prof::CyclesPerNs() (1.0 on non-x86)
  uint64_t anchor_tsc;       // Cycles() at calibration...
  uint64_t anchor_unix_ns;   // ...and CLOCK_REALTIME at the same instant
};

struct RingHeader {
  uint32_t thread;   // ThreadRegistry slot
  uint32_t count;    // records that follow (= min(head, kRingEvents))
  uint64_t head;     // total records ever written by this slot
  uint64_t dropped;  // head - count (overwritten before this dump)
};

// ---- run-time gate ---------------------------------------------------------

// Process-global mode word. Configure is not thread-safe against concurrent
// Emit-ers changing mode semantics mid-txn, but every transition off→on→off
// here is driven by Database::Open/Close, bracketing all traced work.
void Configure(TraceMode mode, uint32_t sample_every);
TraceMode Mode();
inline std::atomic<uint32_t> g_mode{0};  // TraceMode, relaxed fast-path load
inline bool Active() {
  return g_mode.load(std::memory_order_relaxed) !=
         static_cast<uint32_t>(TraceMode::kOff);
}

// Per-thread sampling decision for a new transaction: true if its lifecycle
// should be recorded (always under kAll, 1-in-N under kSampled, never off).
bool SampleTxn();

// ---- recording -------------------------------------------------------------

// Appends one record to the calling thread's ring. Callers gate this on
// Active()/their sampling decision; Emit itself does not re-check the mode.
void Emit(Event e, uint64_t txn, uint64_t a, uint64_t b);

// Process-wide totals across all rings (for the metrics gauges): events ever
// recorded and events lost to ring wrap.
uint64_t TotalRecorded();
uint64_t TotalDropped();

// Zeroes every ring and the sampling counters. Test-only: callers must
// guarantee no concurrent Emit.
void ResetForTest();

// ---- extraction ------------------------------------------------------------

// Writes the binary dump to an open descriptor using only write(2) and
// relaxed atomic loads — async-signal-safe (no allocation, no locks). The
// per-ring snapshot re-reads head after copying and trims records the owner
// may have overwritten during the copy.
bool DumpToFd(int fd);

// Convenience wrapper: create/truncate `path`, DumpToFd, close.
Status DumpToFile(const std::string& path);

// Installs a handler for fatal signals (SEGV, BUS, ILL, FPE, ABRT) that
// dumps the rings to `path` and re-raises with the default disposition, so
// the process still dies with the original signal (the crash harness's
// WTERMSIG checks keep working). `path` is copied into static storage.
void InstallCrashHandler(const std::string& path);

// ---- slow-transaction capture ----------------------------------------------

// Enables capture: committed transactions slower than threshold_us persist
// their event breakdown as one JSON line to `path` (empty = stderr).
// threshold_us == 0 disables. Not thread-safe against in-flight captures;
// called from Database::Open/Close only.
void ConfigureSlowTxnSink(uint64_t threshold_us, const std::string& path);

// Called by Transaction::Finish for traced commits: if end-begin exceeds the
// configured threshold, walks the calling thread's own ring and writes the
// transaction's events (relative-time, named) plus derived span durations as
// a JSON line. `txn` is the full TID; `scheme` a CcSchemeName() string.
void MaybeCaptureSlowTxn(uint64_t txn, uint64_t begin_tsc, uint64_t end_tsc,
                         const char* scheme);

}  // namespace trace
}  // namespace ermia

#endif  // ERMIA_TRACE_TRACE_H_
