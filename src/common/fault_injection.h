// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Hardened I/O primitives for the durability path, with deterministic
// crash-fault injection built in.
//
// Every syscall that makes (or pretends to make) bytes durable — segment
// pwrites, checkpoint writes, fdatasync/fsync, file creation — goes through
// this layer instead of calling libc directly. That buys two things:
//
//  1. Correct-by-construction retry semantics: EINTR is retried, partial
//     reads/writes are continued, and short-read-at-EOF is distinguished
//     from a hard error, in exactly one place.
//  2. A fault plan: tests arm a seed-driven plan (torn write, short write,
//     failed fsync, crash-before-op) that fires on the Nth instrumented
//     durability syscall. The crash-recovery harness forks a workload child,
//     arms a plan, and lets the process die mid-write — the recovery oracle
//     then proves no acknowledged commit was lost.
//
// When no plan is armed the overhead is one relaxed atomic load per call.
#ifndef ERMIA_COMMON_FAULT_INJECTION_H_
#define ERMIA_COMMON_FAULT_INJECTION_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace ermia {
namespace fault {

enum class Mode : uint8_t {
  kNone = 0,
  // Write a seed-chosen prefix (possibly zero bytes) of the triggering
  // write, then kill the process with SIGKILL: a torn write at crash time.
  kTornWrite,
  // Write a prefix and report failure to the caller, then disarm: a
  // survivable short write (ENOSPC-shaped). Callers degrade gracefully —
  // checkpoints return an error, the log flusher enters the stall protocol
  // (kStalled).
  kShortWrite,
  // Fail the triggering fdatasync/fsync with EIO, then disarm. The log
  // flusher poisons itself (sticky read-only): a "successful" commit after a
  // failed fsync would acknowledge data that is not durable.
  kFsyncError,
  // Kill the process with SIGKILL before performing the triggering op.
  kCrash,
};

// Sentinel for Plan::fire_count: the fault fires on every eligible op until
// an explicit Disarm(). Steady-state degradation tests use this to hold a
// "disk full" condition and then release it.
inline constexpr uint64_t kFireUntilDisarmed = UINT64_MAX;

struct Plan {
  Mode mode = Mode::kNone;
  uint64_t seed = 0;           // drives the torn-write prefix length
  uint64_t trigger_after = 0;  // fire on the Nth instrumented op (1-based)
  // How many times a survivable fault (kShortWrite, kFsyncError) fires
  // before auto-disarming. The default preserves the historical one-shot
  // semantics; kFireUntilDisarmed makes the condition sticky. The trigger
  // window is [trigger_after, ∞): an armed survivable fault fires on every
  // *eligible* op (kShortWrite on writes, kFsyncError on fsyncs) at or past
  // the trigger until its fires are spent.
  uint64_t fire_count = 1;
};

// Arms `plan` process-wide and resets the op counter. Call before the
// workload starts (typically right after fork in a harness child).
void InstallPlan(const Plan& plan);

// Disarms fault injection (does not reset the op counter).
void Disarm();

bool Armed();

// Instrumented durability ops performed so far (armed or not, counting
// starts at InstallPlan).
uint64_t OpCount();

// ---- instrumented syscalls (fault points) --------------------------------

// write()s all n bytes; retries EINTR and partial writes. Returns false on
// hard error (errno preserved) — including an injected short write.
bool WriteAll(int fd, const void* data, size_t n);

// pwrite() counterpart of WriteAll.
bool PwriteAll(int fd, const void* data, size_t n, off_t off);

// fdatasync()/fsync() with EINTR retry. Return 0 or -1 (errno set).
int Fdatasync(int fd);
int Fsync(int fd);

// open(path, flags, mode) with EINTR retry; a fault point because file
// creation is part of the durability story (markers, segments).
int CreateFile(const char* path, int flags, mode_t mode);

// Makes a directory's entries durable: open + fsync + close of the
// directory itself. Required after creating/renaming files whose *existence*
// is load-bearing (segment files, checkpoint data, marker files).
Status SyncDir(const std::string& dir);

// ---- uninstrumented hardened reads ---------------------------------------
// Reads are never fault points (a crash cannot corrupt a read), but they
// share the retry semantics.

// Reads exactly n bytes unless EOF intervenes. Returns the number of bytes
// read; *hard_error is set iff the shortfall was a real I/O error rather
// than end-of-file. EINTR and partial reads are retried.
size_t ReadFull(int fd, void* dst, size_t n, bool* hard_error);

// pread() counterpart of ReadFull.
size_t PreadFull(int fd, void* dst, size_t n, off_t off, bool* hard_error);

}  // namespace fault
}  // namespace ermia

#endif  // ERMIA_COMMON_FAULT_INJECTION_H_
