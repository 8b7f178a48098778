#!/usr/bin/env bash
# ThreadSanitizer pass over the concurrency-sensitive suites, built with
# -DERMIA_SANITIZE=thread. The SSN parallel-commit protocol is latch-free, the
# log flusher reads ring bytes that producers publish only through the
# completion frontier, and the B+-tree's optimistic readers (single-key and
# batched lookups) race its writers' splits, so their correctness rests on
# the memory orderings TSan checks here.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-tsan}
cmake -B "$BUILD_DIR" -S . -DERMIA_SANITIZE=thread
cmake --build "$BUILD_DIR" -j --target \
  cc_ssn_test cc_ssn_parallel_test txn_semantics_test concurrency_test \
  metrics_test trace_test version_alloc_test ssn_readopt_test \
  serializability_stress_test crash_recovery_harness \
  degraded_mode_test governor_test log_test log_edge_test btree_stress_test

# tsan.supp waives only the optimistic-lock-coupling reads in the B+-tree
# (benign by protocol: validated against the node version word and retried).
export TSAN_OPTIONS=${TSAN_OPTIONS:-"halt_on_error=1 suppressions=$PWD/tsan.supp"}
for t in cc_ssn_test cc_ssn_parallel_test txn_semantics_test concurrency_test \
         metrics_test trace_test version_alloc_test ssn_readopt_test \
         serializability_stress_test degraded_mode_test governor_test \
         log_test log_edge_test btree_stress_test; do
  echo "=== $t (tsan) ==="
  "$BUILD_DIR/tests/$t"
done

# Safe-snapshot / read-opt pass: ERMIA_SSN_READOPT=on flips both read-mostly
# optimizations (docs/INTERNALS.md "Read-mostly optimizations"), so TSan sees
# the snapshot daemon's candidate/drain/publish protocol, the sharded poison
# table, the zero-tracking read-only path, and the compensation scan over the
# per-thread committer index racing real SSN commit traffic. The stress test
# also runs its own differential off/on mix internally; the env override here
# additionally turns the optimizations on for every other scheme's runs and
# for the parallel-commit suite.
for t in cc_ssn_parallel_test serializability_stress_test ssn_readopt_test; do
  echo "=== $t (tsan, ERMIA_SSN_READOPT=on) ==="
  ERMIA_SSN_READOPT=on "$BUILD_DIR/tests/$t"
done

# The concurrency suite again with the slab allocator forced on, so TSan
# covers the transfer-cache Treiber stacks and the epoch-deferred limbo path
# under real cross-thread version traffic (default config already enables
# slab, but the explicit pass keeps coverage if the default ever flips).
for t in cc_ssn_parallel_test concurrency_test version_alloc_test; do
  echo "=== $t (tsan, ERMIA_VERSION_ALLOCATOR=slab) ==="
  ERMIA_VERSION_ALLOCATOR=slab "$BUILD_DIR/tests/$t"
done

# The crash harness forks workload children whose flusher/checkpoint/worker
# threads race against an injected kill — a good TSan target for the
# durability path. A short sweep keeps the wall-clock sane under TSan.
echo "=== crash_recovery_harness (tsan, 8 seeds) ==="
ERMIA_CRASH_SEEDS=8 "$BUILD_DIR/tests/crash_recovery_harness"

# Wide-replay pass: the same sweep with 6 replay workers, so TSan sees the
# crew's step barriers, the per-partition installs, and the checkpoint/tail
# barrier under real contention even on small CI machines. The harness's
# differential step also recovers with one worker.
echo "=== crash_recovery_harness (tsan, 6 replay workers) ==="
ERMIA_CRASH_SEEDS=8 ERMIA_RECOVERY_THREADS=6 \
  "$BUILD_DIR/tests/crash_recovery_harness"

# Replay itself, across the full recovery unit suite (1, 3 and 4 workers).
cmake --build "$BUILD_DIR" -j --target recovery_test
echo "=== recovery_test (tsan) ==="
"$BUILD_DIR/tests/recovery_test"
