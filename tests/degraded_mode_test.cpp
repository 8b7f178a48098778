// Graceful-degradation tests (docs/INTERNALS.md "Degraded modes & overload
// protection"): the log-stall protocol and the poisoned read-only mode.
//
//  - An injected steady-state ENOSPC parks the flusher in kStalled: new
//    write transactions are shed with Status::LogUnavailable, reads keep
//    running, and when the fault clears the flusher resumes and writes are
//    admitted again — no crash, no lost ack.
//  - An injected fdatasync failure poisons the log: sticky read-only mode,
//    durable offset frozen at the last known-good value, zero durability
//    acks after the failure (the fsync-gate), checkpoints refused.
//  - A poisoned log keeps releasing ring space (over discarded ranges) so
//    producers never deadlock behind the frozen durable offset.
//  - The watchdog trips (once) on a log that stays degraded, and re-arms
//    only after recovery.
//  - A stall does not park the maintenance loop behind a checkpoint.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "engine/database.h"
#include "engine/watchdog.h"
#include "log/log_manager.h"
#include "test_util.h"

namespace ermia {
namespace {

// Spin-waits (1ms granularity) for `pred` with a generous deadline: the
// transitions under test are driven by the flusher's 1ms poll plus stall
// backoff, so they land in milliseconds unless something is actually broken.
template <typename Pred>
bool WaitFor(Pred&& pred, int timeout_ms = 10000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

EngineConfig DegradedConfig() {
  EngineConfig config;
  config.synchronous_commit = false;
  config.checkpoint_interval_ms = 0;
  config.watchdog_interval_ms = 0;  // tests drive CheckOnce() themselves
  // Fast stall retries so resume-after-disarm is immediate.
  config.log_stall_retry_initial_ms = 1;
  config.log_stall_retry_max_ms = 4;
  return config;
}

uint64_t Counter(Database* db, metrics::Ctr c) {
  return db->SnapshotMetrics().counter(c);
}

Status PutTxn(Database* db, Table* table, Index* pk, const std::string& key,
              const std::string& value) {
  Transaction txn(db, CcScheme::kSi);
  Oid oid = 0;
  Status s = txn.Insert(table, pk, key, value, &oid);
  if (s.IsKeyExists()) {
    s = txn.GetOid(pk, key, &oid);
    if (s.ok()) s = txn.Update(table, oid, value);
  }
  if (!s.ok()) {
    txn.Abort();
    return s;
  }
  return txn.Commit();
}

TEST(DegradedModeTest, EnospcStallShedsWritersThenResumes) {
  testing::TempDb db(DegradedConfig());
  Table* table = db->CreateTable("kv");
  Index* pk = db->CreateIndex(table, "kv_pk");
  ASSERT_TRUE(db->Open().ok());

  ASSERT_TRUE(PutTxn(db.get(), table, pk, "k0", "v0").ok());
  ASSERT_TRUE(db->log().WaitForDurable(db->log().CurrentOffset()).ok());
  // A writer admitted before the stall; it commits while the log is stalled.
  auto late = std::make_unique<Transaction>(db.get(), CcScheme::kSi);
  ASSERT_TRUE(late->Insert(table, pk, "late", "lv", nullptr).ok());

  // Steady-state disk-full: every segment pwrite fails with ENOSPC until the
  // explicit Disarm below (the trigger threshold is already past).
  fault::Plan plan;
  plan.mode = fault::Mode::kShortWrite;
  plan.trigger_after = 1;
  plan.fire_count = fault::kFireUntilDisarmed;
  fault::InstallPlan(plan);

  // Async commit returns immediately; the flusher hits ENOSPC and stalls.
  ASSERT_TRUE(PutTxn(db.get(), table, pk, "k1", "v1").ok());
  ASSERT_TRUE(WaitFor([&] { return db->log().health() == LogHealth::kStalled; }))
      << "flusher never entered the stalled state";
  EXPECT_FALSE(db->log().WritesAllowed());

  // Writers are shed at the first write operation, with LogUnavailable —
  // which the retry policy treats as retryable, not as a CC abort.
  {
    Transaction txn(db.get(), CcScheme::kSi);
    Oid oid = 0;
    Status s = txn.Insert(table, pk, "k2", "v2", &oid);
    EXPECT_TRUE(s.IsLogUnavailable()) << s.ToString();
    EXPECT_FALSE(s.ShouldAbort());
    txn.Abort();
  }
  // Reads keep running against the stalled log.
  {
    Transaction txn(db.get(), CcScheme::kSi, /*read_only=*/true);
    Slice v;
    ASSERT_TRUE(txn.Get(pk, "k0", &v).ok());
    EXPECT_EQ(v.ToString(), "v0");
    EXPECT_TRUE(txn.Commit().ok());
  }

  // A stalled log still takes the commit of a writer admitted earlier: its
  // block completes in the ring while no flush can land.
  ASSERT_TRUE(late->Commit().ok());
  late.reset();
  const uint64_t completed_during_stall = db->log().CurrentOffset();
  ASSERT_TRUE(WaitFor([&] {
    return db->log().CompleteUntil() >= completed_during_stall;
  }));
  EXPECT_EQ(db->log().health(), LogHealth::kStalled);

  const uint64_t durable_stalled = db->log().DurableOffset();
  EXPECT_LT(durable_stalled, completed_during_stall);
  fault::Disarm();
  ASSERT_TRUE(WaitFor([&] { return db->log().health() == LogHealth::kHealthy; }))
      << "flusher never resumed after the fault cleared";
  EXPECT_TRUE(db->log().WritesAllowed());

  // Resuming flushes everything completed before and during the stall (k1,
  // late), and new writes are admitted and become durable.
  EXPECT_GE(db->log().DurableOffset(), completed_during_stall);
  ASSERT_TRUE(PutTxn(db.get(), table, pk, "k3", "v3").ok());
  ASSERT_TRUE(db->log().WaitForDurable(db->log().CurrentOffset()).ok());
  EXPECT_GT(db->log().DurableOffset(), durable_stalled);
  {
    Transaction txn(db.get(), CcScheme::kSi, /*read_only=*/true);
    Slice v;
    ASSERT_TRUE(txn.Get(pk, "k1", &v).ok());
    EXPECT_EQ(v.ToString(), "v1");
    ASSERT_TRUE(txn.Get(pk, "k3", &v).ok());
    EXPECT_TRUE(txn.Commit().ok());
  }

  EXPECT_GE(Counter(db.get(), metrics::Ctr::kLogStalls), 1u);
  EXPECT_GE(Counter(db.get(), metrics::Ctr::kLogStallRetries), 1u);
  EXPECT_GE(Counter(db.get(), metrics::Ctr::kLogStallResumes), 1u);
  EXPECT_GE(Counter(db.get(), metrics::Ctr::kLogWriterRejects), 1u);
  EXPECT_EQ(Counter(db.get(), metrics::Ctr::kLogPoisonEvents), 0u);
  EXPECT_EQ(Counter(db.get(), metrics::Ctr::kLogHealthState),
            static_cast<uint64_t>(LogHealth::kHealthy));

  // The blocks the stall held back are on disk: a restart recovers them.
  db.ShutDown();
  db.Restart(DegradedConfig());
  table = db->CreateTable("kv");
  pk = db->CreateIndex(table, "kv_pk");
  ASSERT_TRUE(db->Open().ok());
  ASSERT_TRUE(db->Recover().ok());
  Transaction txn(db.get(), CcScheme::kSi, /*read_only=*/true);
  for (const char* key : {"k0", "k1", "late", "k3"}) {
    Slice v;
    EXPECT_TRUE(txn.Get(pk, key, &v).ok()) << key;
  }
  EXPECT_TRUE(txn.Commit().ok());
}

TEST(DegradedModeTest, FsyncFailurePoisonsStickyReadOnly) {
  EngineConfig config = DegradedConfig();
  config.synchronous_commit = true;  // exercise the blocked-committer path
  testing::TempDb db(config);
  Table* table = db->CreateTable("kv");
  Index* pk = db->CreateIndex(table, "kv_pk");
  ASSERT_TRUE(db->Open().ok());

  ASSERT_TRUE(PutTxn(db.get(), table, pk, "k0", "v0").ok());
  const uint64_t durable_before = db->log().DurableOffset();

  fault::Plan plan;
  plan.mode = fault::Mode::kFsyncError;
  plan.trigger_after = 1;
  fault::InstallPlan(plan);

  // The synchronous committer blocks in WaitForDurable; the flusher's
  // fdatasync fails, the log poisons, and the waiter is released with
  // LogUnavailable. The commit is visible (its stamp was installed before
  // the durability wait) but was never acknowledged durable.
  Status cs = PutTxn(db.get(), table, pk, "k1", "v1");
  EXPECT_TRUE(cs.IsLogUnavailable()) << cs.ToString();
  EXPECT_EQ(db->log().health(), LogHealth::kPoisoned);

  // The fsync-gate: durability is frozen at the last known-good offset and
  // never advances again, even though the fault has "cleared".
  fault::Disarm();
  EXPECT_EQ(db->log().DurableOffset(), durable_before);
  EXPECT_TRUE(db->log().WaitForDurable(db->log().CurrentOffset())
                  .IsLogUnavailable());
  EXPECT_EQ(db->log().health(), LogHealth::kPoisoned) << "poison must stick";

  // New write transactions are rejected outright; reads keep running and
  // see both the acked commit and the visible-but-unacked one.
  {
    Transaction txn(db.get(), CcScheme::kSi);
    Oid oid = 0;
    EXPECT_TRUE(txn.Insert(table, pk, "k2", "v2", &oid).IsLogUnavailable());
    txn.Abort();
  }
  {
    Transaction txn(db.get(), CcScheme::kSi, /*read_only=*/true);
    Slice v;
    ASSERT_TRUE(txn.Get(pk, "k0", &v).ok());
    EXPECT_EQ(v.ToString(), "v0");
    ASSERT_TRUE(txn.Get(pk, "k1", &v).ok());
    EXPECT_EQ(v.ToString(), "v1");
    EXPECT_TRUE(txn.Commit().ok());
  }

  // Checkpoints would have to wait for durability that will never come:
  // refused with LogUnavailable instead of hanging.
  EXPECT_TRUE(db->TakeCheckpoint(nullptr).IsLogUnavailable());

  EXPECT_GE(Counter(db.get(), metrics::Ctr::kLogPoisonEvents), 1u);
  EXPECT_GE(Counter(db.get(), metrics::Ctr::kLogWriterRejects), 1u);
  EXPECT_EQ(Counter(db.get(), metrics::Ctr::kLogHealthState),
            static_cast<uint64_t>(LogHealth::kPoisoned));

  // Wait out any in-flight flusher pass before tearing down, then make sure
  // durability never advanced.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(db->log().DurableOffset(), durable_before);
}

// A poisoned log must keep releasing ring space over the ranges it discards;
// otherwise producers block forever in WaitForBufferSpace behind a durable
// offset that will never move again. Standalone LogManager with a ring small
// enough to wrap many times past the poison point.
TEST(DegradedModeTest, PoisonedLogReleasesRingSpace) {
  const std::string dir = testing::MakeTempDir();
  EngineConfig config;
  config.log_dir = dir;
  config.log_segment_size = 1 << 20;
  config.log_buffer_size = 1 << 16;  // 64 KiB ring
  config.synchronous_commit = true;  // flusher fsyncs, so poison can fire
  config.log_stall_retry_initial_ms = 1;
  config.log_stall_retry_max_ms = 4;
  {
    LogManager log(config);
    ASSERT_TRUE(log.Open().ok());

    auto install = [&log](uint32_t size) {
      Lsn lsn = log.ReserveBlock(size);
      std::vector<char> block(size, 'p');
      LogBlockHeader hdr{};
      hdr.magic = kLogBlockMagic;
      hdr.type = LogBlockType::kTxn;
      hdr.offset = lsn.offset();
      hdr.total_size = (size + 31u) & ~31u;
      hdr.num_records = 0;
      hdr.payload_bytes = size - static_cast<uint32_t>(sizeof hdr);
      hdr.checksum = LogChecksum(block.data() + sizeof hdr, hdr.payload_bytes);
      std::memcpy(block.data(), &hdr, sizeof hdr);
      log.InstallBlock(lsn, block.data(), size);
      return lsn;
    };

    Lsn first = install(512);
    ASSERT_TRUE(log.WaitForDurable(first.offset() + 512).ok());

    fault::Plan plan;
    plan.mode = fault::Mode::kFsyncError;
    plan.trigger_after = 1;
    fault::InstallPlan(plan);
    install(512);
    ASSERT_TRUE(WaitFor([&] { return log.health() == LogHealth::kPoisoned; }));
    fault::Disarm();

    const uint64_t durable_frozen = log.DurableOffset();
    // Push several ring capacities' worth of blocks through the poisoned
    // log. Every ReserveBlock waits for ring space; if discarded ranges did
    // not advance the released watermark this loop would hang.
    const uint32_t block_size = 4096;
    const int n = static_cast<int>(4 * config.log_buffer_size / block_size);
    for (int i = 0; i < n; ++i) install(block_size);

    EXPECT_EQ(log.DurableOffset(), durable_frozen);
    EXPECT_GT(log.ReleasedOffset(),
              durable_frozen + config.log_buffer_size);
    EXPECT_GT(log.CurrentOffset(), durable_frozen + config.log_buffer_size);
    log.Close();
  }
  testing::RemoveDir(dir);
}

TEST(DegradedModeTest, WatchdogTripsOncePerDegradation) {
  EngineConfig config = DegradedConfig();
  config.synchronous_commit = true;
  config.watchdog_grace_ms = 0;  // trip immediately once a signal is bad
  config.enable_gc = false;      // freeze epoch signals for determinism
  testing::TempDb db(config);
  Table* table = db->CreateTable("kv");
  Index* pk = db->CreateIndex(table, "kv_pk");
  ASSERT_TRUE(db->Open().ok());
  ASSERT_TRUE(PutTxn(db.get(), table, pk, "k0", "v0").ok());

  fault::Plan plan;
  plan.mode = fault::Mode::kFsyncError;
  plan.trigger_after = 1;
  fault::InstallPlan(plan);
  EXPECT_TRUE(PutTxn(db.get(), table, pk, "k1", "v1").IsLogUnavailable());
  fault::Disarm();
  ASSERT_EQ(db->log().health(), LogHealth::kPoisoned);

  // watchdog_interval_ms = 0 disables the watchdog phase; drive detection by
  // hand.
  // Constructed after the poison so every non-health baseline (durable
  // offset, epoch boundary, safe-snapshot horizon) is seeded from the
  // already-quiesced engine; the only bad signal is the log health.
  Watchdog wd(db.get());
  EXPECT_EQ(wd.CheckOnce(), Watchdog::Reason::kLogDegraded);
  EXPECT_EQ(wd.last_reason(), Watchdog::Reason::kLogDegraded);
  EXPECT_EQ(wd.trips(), 1u);
  // Latched: a persistent condition trips once, not on every pass.
  EXPECT_EQ(wd.CheckOnce(), Watchdog::Reason::kNone);
  EXPECT_EQ(wd.trips(), 1u);
  EXPECT_GE(Counter(db.get(), metrics::Ctr::kWatchdogTrips), 1u);
}

// The checkpoint shares the maintenance thread with the GC, the snapshot
// tick and the watchdog, so a checkpoint that meets a stall must give up
// instead of parking the loop in its durability wait: the watchdog still
// trips on the degraded log, and Close() returns once the stall resolves.
TEST(DegradedModeTest, StallDoesNotParkTheMaintenanceLoop) {
  EngineConfig config = DegradedConfig();
  config.checkpoint_interval_ms = 1;
  config.watchdog_interval_ms = 5;
  config.watchdog_grace_ms = 50;
  testing::TempDb db(config);
  Table* table = db->CreateTable("kv");
  Index* pk = db->CreateIndex(table, "kv_pk");
  ASSERT_TRUE(db->Open().ok());
  ASSERT_TRUE(PutTxn(db.get(), table, pk, "k0", "v0").ok());
  ASSERT_TRUE(WaitFor([&] {
    return Counter(db.get(), metrics::Ctr::kCheckpointsTaken) >= 1;
  }));

  fault::Plan plan;
  plan.mode = fault::Mode::kShortWrite;
  plan.trigger_after = 1;
  plan.fire_count = fault::kFireUntilDisarmed;
  fault::InstallPlan(plan);
  ASSERT_TRUE(PutTxn(db.get(), table, pk, "k1", "v1").ok());
  ASSERT_TRUE(
      WaitFor([&] { return db->log().health() == LogHealth::kStalled; }));
  ASSERT_TRUE(WaitFor([&] {
    return db->watchdog()->last_reason() == Watchdog::Reason::kLogDegraded;
  })) << "the watchdog phase stopped running during the stall";
  const uint64_t passes = Counter(db.get(), metrics::Ctr::kGcPasses);
  EXPECT_TRUE(WaitFor([&] {
    return Counter(db.get(), metrics::Ctr::kGcPasses) > passes;
  })) << "the GC phase stopped running during the stall";

  fault::Disarm();
  ASSERT_TRUE(
      WaitFor([&] { return db->log().health() == LogHealth::kHealthy; }));
  const auto t0 = std::chrono::steady_clock::now();
  db.ShutDown();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
}

// Shutdown while stalled: commits the log never made durable may be lost,
// but the directory must reopen and recover cleanly, keeping every commit
// that was durable before the stall — the stall protocol cannot invent a
// new failure mode for recovery. (The fork-based crash harness covers the
// SIGKILL-mid-stall variant across its seed sweep.)
TEST(DegradedModeTest, ShutdownWhileStalledRecoversDurableCommits) {
  testing::TempDb db(DegradedConfig());
  Table* table = db->CreateTable("kv");
  Index* pk = db->CreateIndex(table, "kv_pk");
  ASSERT_TRUE(db->Open().ok());

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(PutTxn(db.get(), table, pk, "acked-" + std::to_string(i),
                       "v" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(db->log().WaitForDurable(db->log().CurrentOffset()).ok());

  fault::Plan plan;
  plan.mode = fault::Mode::kShortWrite;
  plan.trigger_after = 1;
  plan.fire_count = fault::kFireUntilDisarmed;
  fault::InstallPlan(plan);

  // An async commit lands in the ring; the flusher hits ENOSPC and stalls
  // with the bytes still unwritten. Tear the Database down mid-stall: Close
  // runs its final flush against the still-failing disk and must come back
  // without crashing or acking anything.
  ASSERT_TRUE(PutTxn(db.get(), table, pk, "unflushed", "uv").ok());
  ASSERT_TRUE(
      WaitFor([&] { return db->log().health() == LogHealth::kStalled; }));
  db.ShutDown();
  fault::Disarm();

  db.Restart(DegradedConfig());
  table = db->CreateTable("kv");
  pk = db->CreateIndex(table, "kv_pk");
  ASSERT_TRUE(db->Open().ok());
  ASSERT_TRUE(db->Recover().ok());
  for (int i = 0; i < 8; ++i) {
    Transaction txn(db.get(), CcScheme::kSi, /*read_only=*/true);
    Slice v;
    ASSERT_TRUE(txn.Get(pk, "acked-" + std::to_string(i), &v).ok());
    EXPECT_EQ(v.ToString(), "v" + std::to_string(i));
    EXPECT_TRUE(txn.Commit().ok());
  }
}

}  // namespace
}  // namespace ermia
