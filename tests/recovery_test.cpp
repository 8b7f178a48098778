// Recovery tests (§3.7): log-only restart, checkpoint + tail replay, clean
// shutdown vs crash-shaped shutdown (same code path), deletes and secondary
// indexes across restarts, repeated restarts, and torn-tail truncation.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "engine/checkpoint_format.h"
#include "log/log_scan.h"
#include "test_util.h"

namespace ermia {
namespace {

// Parameterized over recovery_threads: every scenario (checkpoint fallback,
// torn tail, segment rotation, ...) runs with 1, 3 and 4 replay workers of
// the one replay path. Three workers split the OID stripes unevenly.
class RecoveryTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    config_.synchronous_commit = true;  // every commit durable before return
    config_.recovery_threads = GetParam();
    db_ = std::make_unique<testing::TempDb>(config_);
    OpenSchema();
  }

  void OpenSchema() {
    ASSERT_TRUE((*db_)->Open().ok());
    table_ = (*db_)->CreateTable("t");
    pk_ = (*db_)->CreateIndex(table_, "t_pk");
    sec_ = (*db_)->CreateIndex(table_, "t_sec");
  }

  // Simulates a restart: tear down the Database (its destructor does NOT
  // checkpoint), re-create the same schema, Open, Recover.
  void Restart() {
    db_->ShutDown();
    db_->Restart(config_);
    table_ = nullptr;
    pk_ = sec_ = nullptr;
    table_ = (*db_)->CreateTable("t");
    pk_ = (*db_)->CreateIndex(table_, "t_pk");
    sec_ = (*db_)->CreateIndex(table_, "t_sec");
    ASSERT_TRUE((*db_)->Open().ok());
    ASSERT_TRUE((*db_)->Recover().ok());
  }

  void Put(const std::string& key, const std::string& value,
           const std::string& sec_key = "") {
    Transaction txn(db_->get(), CcScheme::kSi);
    Oid oid = 0;
    Status s = txn.Insert(table_, pk_, key, value, &oid);
    if (s.IsKeyExists()) {
      ASSERT_TRUE(txn.GetOid(pk_, key, &oid).ok());
      ASSERT_TRUE(txn.Update(table_, oid, value).ok());
    } else {
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    if (!sec_key.empty()) {
      ASSERT_TRUE(txn.InsertIndexEntry(sec_, sec_key, oid).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }

  std::string Get(Index* index, const std::string& key) {
    Transaction txn(db_->get(), CcScheme::kSi);
    Slice v;
    Status s = txn.Get(index, key, &v);
    std::string out = s.ok() ? v.ToString() : "<" + s.ToString() + ">";
    EXPECT_TRUE(txn.Commit().ok());
    return out;
  }

  void Delete(const std::string& key) {
    Transaction txn(db_->get(), CcScheme::kSi);
    Oid oid = 0;
    ASSERT_TRUE(txn.GetOid(pk_, key, &oid).ok());
    ASSERT_TRUE(txn.Delete(table_, oid).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }

  // Appends a block whose header is fully valid but whose payload was torn
  // mid-write — what a crashed group flush leaves at the tail. Call with the
  // database shut down.
  void AppendHeaderValidTornBlock() {
    LogScanner scanner(db_->dir());
    ASSERT_TRUE(scanner.Init().ok());
    ASSERT_FALSE(scanner.segments().empty());
    const LogSegment& seg = scanner.segments().back();
    struct stat st{};
    ASSERT_EQ(::stat(seg.path.c_str(), &st), 0);
    const uint64_t tail = seg.start_offset + static_cast<uint64_t>(st.st_size);

    std::vector<char> block(256, 'q');
    LogBlockHeader hdr{};
    hdr.magic = kLogBlockMagic;
    hdr.type = LogBlockType::kTxn;
    hdr.offset = tail;
    hdr.total_size = 256;
    hdr.payload_bytes = 256 - sizeof hdr;
    hdr.checksum = LogChecksum(block.data() + sizeof hdr, hdr.payload_bytes);
    std::memcpy(block.data(), &hdr, sizeof hdr);

    int fd = ::open(seg.path.c_str(), O_WRONLY | O_APPEND);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::write(fd, block.data(), 100), 100);  // torn after the header
    ::close(fd);
  }

  // Every (key, value) pair visible through each index, in key order.
  using Digest = std::vector<std::map<std::string, std::string>>;
  Digest TakeDigest() {
    Digest d;
    for (Index* index : {pk_, sec_}) {
      Transaction txn(db_->get(), CcScheme::kSi);
      std::map<std::string, std::string> kv;
      EXPECT_TRUE(txn.Scan(index, "", "", -1,
                           [&](const Slice& k, const Slice& v) {
                             kv[k.ToString()] = v.ToString();
                             return true;
                           })
                      .ok());
      EXPECT_TRUE(txn.Commit().ok());
      d.push_back(std::move(kv));
    }
    return d;
  }

  uint64_t ReplayedRecords() {
    return (*db_)->SnapshotMetrics().counter(
        metrics::Ctr::kRecoveryReplayRecords);
  }

  // Re-creates the schema and opens the database without recovering, so a
  // test can change the log Open() has adopted before Recover() reads it.
  void ReopenWithoutRecovery() {
    db_->ShutDown();
    db_->Restart(config_);
    table_ = (*db_)->CreateTable("t");
    pk_ = (*db_)->CreateIndex(table_, "t_pk");
    sec_ = (*db_)->CreateIndex(table_, "t_sec");
    ASSERT_TRUE((*db_)->Open().ok());
  }

  void CorruptFileByte(const std::string& path, off_t at) {
    int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0) << path;
    char b;
    ASSERT_EQ(::pread(fd, &b, 1, at), 1);
    b ^= 0x40;
    ASSERT_EQ(::pwrite(fd, &b, 1, at), 1);
    ::close(fd);
  }

  EngineConfig config_;
  std::unique_ptr<testing::TempDb> db_;
  Table* table_ = nullptr;
  Index* pk_ = nullptr;
  Index* sec_ = nullptr;
};

TEST_P(RecoveryTest, LogOnlyRestartRestoresData) {
  Put("a", "1");
  Put("b", "2");
  Restart();
  EXPECT_EQ(Get(pk_, "a"), "1");
  EXPECT_EQ(Get(pk_, "b"), "2");
  EXPECT_EQ(Get(pk_, "c"), "<NOT_FOUND>");
}

TEST_P(RecoveryTest, UpdatesSurviveWithLatestValue) {
  Put("k", "v1");
  Put("k", "v2");
  Put("k", "v3");
  Restart();
  EXPECT_EQ(Get(pk_, "k"), "v3");
}

TEST_P(RecoveryTest, DeletesSurvive) {
  Put("keep", "x");
  Put("gone", "y");
  {
    Transaction txn(db_->get(), CcScheme::kSi);
    Oid oid = 0;
    ASSERT_TRUE(txn.GetOid(pk_, "gone", &oid).ok());
    ASSERT_TRUE(txn.Delete(table_, oid).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  Restart();
  EXPECT_EQ(Get(pk_, "keep"), "x");
  EXPECT_EQ(Get(pk_, "gone"), "<NOT_FOUND>");
}

TEST_P(RecoveryTest, SecondaryIndexesRebuilt) {
  Put("pkey", "payload", "skey");
  Restart();
  EXPECT_EQ(Get(pk_, "pkey"), "payload");
  EXPECT_EQ(Get(sec_, "skey"), "payload");
}

TEST_P(RecoveryTest, AbortedTransactionsLeaveNoTrace) {
  Put("committed", "yes");
  {
    Transaction txn(db_->get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Insert(table_, pk_, "uncommitted", "no", nullptr).ok());
    txn.Abort();
  }
  Restart();
  EXPECT_EQ(Get(pk_, "committed"), "yes");
  EXPECT_EQ(Get(pk_, "uncommitted"), "<NOT_FOUND>");
}

TEST_P(RecoveryTest, CheckpointPlusTailReplay) {
  for (int i = 0; i < 50; ++i) {
    Put("pre" + std::to_string(i), "v" + std::to_string(i));
  }
  uint64_t begin = 0;
  ASSERT_TRUE((*db_)->TakeCheckpoint(&begin).ok());
  EXPECT_GT(begin, 0u);
  for (int i = 0; i < 30; ++i) {
    Put("post" + std::to_string(i), "w" + std::to_string(i));
  }
  Put("pre5", "overwritten-after-checkpoint");
  Restart();
  EXPECT_EQ(Get(pk_, "pre0"), "v0");
  EXPECT_EQ(Get(pk_, "pre49"), "v49");
  EXPECT_EQ(Get(pk_, "post29"), "w29");
  EXPECT_EQ(Get(pk_, "pre5"), "overwritten-after-checkpoint");
}

TEST_P(RecoveryTest, CheckpointSkipsRecordsDeletedBeforeIt) {
  Put("alive", "v");
  Put("dead-before", "v", "dead-sec");
  {
    Transaction txn(db_->get(), CcScheme::kSi);
    Oid oid = 0;
    ASSERT_TRUE(txn.GetOid(pk_, "dead-before", &oid).ok());
    ASSERT_TRUE(txn.Delete(table_, oid).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  // The tombstoned record must not be resurrected by the checkpoint (it is
  // skipped there) nor by the tail (its insert predates the checkpoint).
  ASSERT_TRUE((*db_)->TakeCheckpoint(nullptr).ok());
  Put("dead-after", "v");
  {
    Transaction txn(db_->get(), CcScheme::kSi);
    Oid oid = 0;
    ASSERT_TRUE(txn.GetOid(pk_, "dead-after", &oid).ok());
    ASSERT_TRUE(txn.Delete(table_, oid).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  Restart();
  EXPECT_EQ(Get(pk_, "alive"), "v");
  EXPECT_EQ(Get(pk_, "dead-before"), "<NOT_FOUND>");
  EXPECT_EQ(Get(sec_, "dead-sec"), "<NOT_FOUND>");
  EXPECT_EQ(Get(pk_, "dead-after"), "<NOT_FOUND>");
  // The key space is reusable after recovery (tombstone/absent either way).
  Put("dead-before", "reborn");
  EXPECT_EQ(Get(pk_, "dead-before"), "reborn");
}

TEST_P(RecoveryTest, MultipleCheckpointsUseLatest) {
  Put("a", "1");
  ASSERT_TRUE((*db_)->TakeCheckpoint(nullptr).ok());
  Put("b", "2");
  ASSERT_TRUE((*db_)->TakeCheckpoint(nullptr).ok());
  Put("c", "3");
  Restart();
  EXPECT_EQ(Get(pk_, "a"), "1");
  EXPECT_EQ(Get(pk_, "b"), "2");
  EXPECT_EQ(Get(pk_, "c"), "3");
}

TEST_P(RecoveryTest, RepeatedRestartsAreStable) {
  Put("k", "v");
  for (int round = 0; round < 3; ++round) {
    Restart();
    EXPECT_EQ(Get(pk_, "k"), "v");
    Put("round" + std::to_string(round), std::to_string(round));
  }
  Restart();
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(Get(pk_, "round" + std::to_string(round)),
              std::to_string(round));
  }
}

TEST_P(RecoveryTest, TornTailIsTruncated) {
  Put("good", "data");
  db_->ShutDown();
  // Corrupt the tail: append garbage to the newest segment file, emulating a
  // torn write at crash time.
  LogScanner scanner(db_->dir());
  ASSERT_TRUE(scanner.Init().ok());
  ASSERT_FALSE(scanner.segments().empty());
  const std::string path = scanner.segments().back().path;
  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  ASSERT_GE(fd, 0);
  std::string garbage(96, '\x5A');
  ASSERT_EQ(::write(fd, garbage.data(), garbage.size()),
            static_cast<ssize_t>(garbage.size()));
  ::close(fd);

  db_->Restart(config_);
  table_ = (*db_)->CreateTable("t");
  pk_ = (*db_)->CreateIndex(table_, "t_pk");
  sec_ = (*db_)->CreateIndex(table_, "t_sec");
  ASSERT_TRUE((*db_)->Open().ok());
  ASSERT_TRUE((*db_)->Recover().ok());
  EXPECT_EQ(Get(pk_, "good"), "data");
  // And the engine keeps working after truncation.
  Put("after", "crash");
  EXPECT_EQ(Get(pk_, "after"), "crash");
}

TEST_P(RecoveryTest, RecoveredDataIsWritable) {
  Put("k", "v1");
  Restart();
  Put("k", "v2");
  EXPECT_EQ(Get(pk_, "k"), "v2");
  Restart();
  EXPECT_EQ(Get(pk_, "k"), "v2");
}

TEST_P(RecoveryTest, RecoveryAcrossManyRotatedSegments) {
  // Tiny segments force constant rotation: recovery must stitch the state
  // back together across dozens of files, skip records, and dead zones.
  EngineConfig small = config_;
  small.log_segment_size = 1 << 14;  // 16KB
  db_->ShutDown();
  db_->Restart(small);
  table_ = (*db_)->CreateTable("t");
  pk_ = (*db_)->CreateIndex(table_, "t_pk");
  sec_ = (*db_)->CreateIndex(table_, "t_sec");
  ASSERT_TRUE((*db_)->Open().ok());
  ASSERT_TRUE((*db_)->Recover().ok());

  constexpr int kN = 600;
  const std::string pad(128, 'p');  // fat rows to burn through segments
  for (int i = 0; i < kN; ++i) {
    Put("seg" + std::to_string(i), pad + std::to_string(i));
  }
  // Overwrite a stripe so replay ordering matters.
  for (int i = 0; i < kN; i += 7) {
    Put("seg" + std::to_string(i), "overwritten" + std::to_string(i));
  }
  ASSERT_GT((*db_)->metrics().Sum(metrics::Ctr::kLogSegmentRotations), 4u);

  db_->ShutDown();
  db_->Restart(small);
  table_ = (*db_)->CreateTable("t");
  pk_ = (*db_)->CreateIndex(table_, "t_pk");
  sec_ = (*db_)->CreateIndex(table_, "t_sec");
  ASSERT_TRUE((*db_)->Open().ok());
  ASSERT_TRUE((*db_)->Recover().ok());
  for (int i = 0; i < kN; ++i) {
    const std::string expect = (i % 7 == 0)
                                   ? "overwritten" + std::to_string(i)
                                   : pad + std::to_string(i);
    ASSERT_EQ(Get(pk_, "seg" + std::to_string(i)), expect) << i;
  }
}

TEST_P(RecoveryTest, LargeRecoveryVolume) {
  constexpr int kN = 2000;
  {
    auto txn = std::make_unique<Transaction>(db_->get(), CcScheme::kSi);
    for (int i = 0; i < kN; ++i) {
      char key[16];
      std::snprintf(key, sizeof key, "bulk%05d", i);
      ASSERT_TRUE(
          txn->Insert(table_, pk_, key, std::to_string(i), nullptr).ok());
      if ((i + 1) % 200 == 0) {
        ASSERT_TRUE(txn->Commit().ok());
        txn = std::make_unique<Transaction>(db_->get(), CcScheme::kSi);
      }
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  Restart();
  Transaction txn(db_->get(), CcScheme::kSi);
  int count = 0;
  ASSERT_TRUE(txn.Scan(pk_, "bulk", "bulk99999", -1,
                       [&](const Slice&, const Slice&) {
                         ++count;
                         return true;
                       })
                  .ok());
  EXPECT_EQ(count, kN);
  EXPECT_TRUE(txn.Commit().ok());
}

// Regression for the torn-tail adoption bug: FindTail used to validate only
// block headers, so a header-valid/payload-torn block at the tail was kept,
// the reopened log appended PAST it, and the next recovery — whose Scan
// stops at the torn block — silently lost every post-reopen commit.
TEST_P(RecoveryTest, PostReopenCommitsSurviveSecondRecoveryAfterTornTail) {
  Put("pre", "1");
  db_->ShutDown();
  AppendHeaderValidTornBlock();

  // First recovery: the torn block must be truncated, not adopted.
  db_->Restart(config_);
  table_ = (*db_)->CreateTable("t");
  pk_ = (*db_)->CreateIndex(table_, "t_pk");
  sec_ = (*db_)->CreateIndex(table_, "t_sec");
  ASSERT_TRUE((*db_)->Open().ok());
  ASSERT_TRUE((*db_)->Recover().ok());
  EXPECT_EQ(Get(pk_, "pre"), "1");

  // These commits are acknowledged (synchronous commit)...
  Put("post1", "2");
  Put("post2", "3");

  // ...so the second recovery must see them. With the old FindTail they sat
  // beyond the torn block, unreachable.
  Restart();
  EXPECT_EQ(Get(pk_, "pre"), "1");
  EXPECT_EQ(Get(pk_, "post1"), "2");
  EXPECT_EQ(Get(pk_, "post2"), "3");
}

// ---- checkpoint fallback --------------------------------------------------

TEST_P(RecoveryTest, CorruptNewestCheckpointFallsBackToOlder) {
  Put("a", "1");
  uint64_t begin1 = 0;
  ASSERT_TRUE((*db_)->TakeCheckpoint(&begin1).ok());
  Put("b", "2");
  uint64_t begin2 = 0;
  ASSERT_TRUE((*db_)->TakeCheckpoint(&begin2).ok());
  Put("c", "3");
  db_->ShutDown();
  CorruptFileByte(db_->dir() + "/" + CheckpointDataName(begin2), 12);

  Restart();  // asserts Recover().ok(): corruption must not be fatal
  EXPECT_EQ(Get(pk_, "a"), "1");
  EXPECT_EQ(Get(pk_, "b"), "2");
  EXPECT_EQ(Get(pk_, "c"), "3");
}

TEST_P(RecoveryTest, AllCheckpointsCorruptFallsBackToFullReplay) {
  Put("a", "1");
  uint64_t begin1 = 0;
  ASSERT_TRUE((*db_)->TakeCheckpoint(&begin1).ok());
  Put("b", "2");
  uint64_t begin2 = 0;
  ASSERT_TRUE((*db_)->TakeCheckpoint(&begin2).ok());
  Put("c", "3");
  db_->ShutDown();
  CorruptFileByte(db_->dir() + "/" + CheckpointDataName(begin1), 12);
  CorruptFileByte(db_->dir() + "/" + CheckpointDataName(begin2), 12);

  Restart();
  EXPECT_EQ(Get(pk_, "a"), "1");
  EXPECT_EQ(Get(pk_, "b"), "2");
  EXPECT_EQ(Get(pk_, "c"), "3");
}

TEST_P(RecoveryTest, MissingCheckpointDataFileFallsBack) {
  Put("a", "1");
  uint64_t begin1 = 0;
  ASSERT_TRUE((*db_)->TakeCheckpoint(&begin1).ok());
  Put("b", "2");
  uint64_t begin2 = 0;
  ASSERT_TRUE((*db_)->TakeCheckpoint(&begin2).ok());
  Put("c", "3");
  db_->ShutDown();
  // Marker present, data gone: the stale-marker shape a crash between
  // unlink-style cleanup steps (or manual tampering) can leave.
  ASSERT_EQ(
      ::unlink((db_->dir() + "/" + CheckpointDataName(begin2)).c_str()), 0);

  Restart();
  EXPECT_EQ(Get(pk_, "a"), "1");
  EXPECT_EQ(Get(pk_, "b"), "2");
  EXPECT_EQ(Get(pk_, "c"), "3");
}

TEST_P(RecoveryTest, TruncatedCheckpointFallsBack) {
  Put("a", "1");
  uint64_t begin = 0;
  ASSERT_TRUE((*db_)->TakeCheckpoint(&begin).ok());
  Put("b", "2");
  db_->ShutDown();
  const std::string path = db_->dir() + "/" + CheckpointDataName(begin);
  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  ASSERT_EQ(::truncate(path.c_str(), st.st_size - 5), 0);  // tear the footer

  Restart();  // falls back to full replay
  EXPECT_EQ(Get(pk_, "a"), "1");
  EXPECT_EQ(Get(pk_, "b"), "2");
}

// A key deleted before a checkpoint and re-inserted after it reuses its OID
// (tombstone overwrite), logging only an update — no fresh index-insert
// record. The checkpoint must therefore dump tombstoned entries: their index
// entry is the only durable key→OID mapping left. Found by the
// crash-recovery harness.
TEST_P(RecoveryTest, DeletedKeyReinsertedAfterCheckpointRecovers) {
  Put("k", "v1");
  Delete("k");
  ASSERT_TRUE((*db_)->TakeCheckpoint(nullptr).ok());
  Put("k", "v2");  // OID reuse: logs kUpdate, not kInsert+kIndexInsert
  Put("other", "x");
  Restart();
  EXPECT_EQ(Get(pk_, "k"), "v2");
  EXPECT_EQ(Get(pk_, "other"), "x");
  // And a key deleted before the checkpoint that stays deleted stays gone.
  Put("gone", "y");
  Delete("gone");
  ASSERT_TRUE((*db_)->TakeCheckpoint(nullptr).ok());
  Restart();
  EXPECT_EQ(Get(pk_, "gone"), "<NOT_FOUND>");
  EXPECT_EQ(Get(pk_, "k"), "v2");
}

// ---- replay across chunks and workers --------------------------------------

// A block whose payload fails its checksum in the middle of the log ends the
// log there: no block after it is installed, although with several workers
// the later blocks of the same read chunk pass verification on other
// workers. The corruption is made after Open() adopted the log, so it is
// Recover()'s own scan that must stop.
TEST_P(RecoveryTest, CorruptMidLogBlockStopsReplayThere) {
  constexpr int kN = 64;
  constexpr int kBad = 41;
  for (int i = 0; i < kN; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "m%03d", i);
    Put(key, "value" + std::to_string(i));
  }
  db_->ShutDown();

  std::vector<ScannedBlock> blocks;
  {
    LogScanner scanner(db_->dir());
    ASSERT_TRUE(scanner.Init().ok());
    ASSERT_TRUE(scanner
                    .Scan(kLogStartOffset,
                          [&](const ScannedBlock& b) { blocks.push_back(b); })
                    .ok());
  }
  ASSERT_EQ(blocks.size(), static_cast<size_t>(kN));  // one block per Put
  uint64_t records_before_bad = 0;
  for (int i = 0; i < kBad; ++i) records_before_bad += blocks[i].records.size();

  ReopenWithoutRecovery();
  LogScanner scanner(db_->dir());
  ASSERT_TRUE(scanner.Init().ok());
  ASSERT_EQ(scanner.segments().size(), 1u);  // all blocks in one read chunk
  const LogSegment& seg = scanner.segments().front();
  CorruptFileByte(seg.path, static_cast<off_t>(blocks[kBad].offset -
                                               seg.start_offset +
                                               sizeof(LogBlockHeader) + 3));
  ASSERT_TRUE((*db_)->Recover().ok());

  EXPECT_EQ(ReplayedRecords(), records_before_bad);
  for (int i = 0; i < kN; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "m%03d", i);
    EXPECT_EQ(Get(pk_, key),
              i < kBad ? "value" + std::to_string(i) : "<NOT_FOUND>")
        << key;
  }
}

// Blocks that straddle a read-chunk boundary, and a block larger than a
// whole chunk, replay like any other.
TEST_P(RecoveryTest, BlocksAcrossReadChunksReplay) {
  constexpr size_t kReadChunk = size_t{4} << 20;  // the scanner's read size
  config_.log_buffer_size = 32 << 20;  // admits blocks up to 8 MiB
  Restart();
  const std::string value(4000, 'c');
  for (int t = 0; t < 40; ++t) {  // ~4.9 MiB in ~120 KiB blocks
    Transaction txn(db_->get(), CcScheme::kSi);
    for (int i = 0; i < 30; ++i) {
      const std::string key = "c" + std::to_string(t * 100 + i);
      ASSERT_TRUE(txn.Insert(table_, pk_, key, key + value, nullptr).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    Transaction txn(db_->get(), CcScheme::kSi);  // one ~5 MiB block
    for (int i = 0; i < 50; ++i) {
      const std::string key = "big" + std::to_string(i);
      ASSERT_TRUE(txn.Insert(table_, pk_, key,
                             key + std::string(100 << 10, 'b'), nullptr)
                      .ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  Put("after", "big");
  const Digest before = TakeDigest();
  db_->ShutDown();

  // The log really does cross read chunks, and one block exceeds a chunk.
  {
    LogScanner scanner(db_->dir());
    ASSERT_TRUE(scanner.Init().ok());
    size_t chunks = 0;
    uint32_t largest = 0;
    ASSERT_TRUE(scanner
                    .ScanChunks(kLogStartOffset,
                                [&](const LogChunk& c) {
                                  ++chunks;
                                  for (const ChunkBlock& b : c.blocks) {
                                    largest = std::max(largest,
                                                       b.hdr.payload_bytes);
                                  }
                                  return c.blocks.size();
                                })
                    .ok());
    EXPECT_GE(chunks, 3u);
    EXPECT_GT(largest, kReadChunk);
  }

  Restart();
  EXPECT_EQ(TakeDigest(), before);
  EXPECT_EQ(Get(pk_, "after"), "big");
}

// Replay with N workers produces exactly the state and record count of one
// worker, over a log with checkpoints, rotated segments, updates, deletes,
// reinserts and a secondary index, across several OID stripes.
TEST_P(RecoveryTest, WorkerCountDoesNotChangeReplay) {
  config_.log_segment_size = 1 << 18;
  Restart();

  constexpr int kKeys = 5000;  // OIDs span five 1024-OID stripes
  auto key_of = [](int i) {
    char key[16];
    std::snprintf(key, sizeof key, "w%05d", i);
    return std::string(key);
  };
  for (int base = 0; base < kKeys; base += 250) {
    Transaction txn(db_->get(), CcScheme::kSi);
    for (int i = base; i < base + 250; ++i) {
      Oid oid = 0;
      ASSERT_TRUE(txn.Insert(table_, pk_, key_of(i), "v" + std::to_string(i),
                             &oid)
                      .ok());
      if (i % 3 == 0) {
        ASSERT_TRUE(txn.InsertIndexEntry(sec_, "s" + key_of(i), oid).ok());
      }
    }
    ASSERT_TRUE(txn.Commit().ok());
    if (base == 2500) ASSERT_TRUE((*db_)->TakeCheckpoint(nullptr).ok());
  }
  for (int i = 0; i < kKeys; i += 7) Put(key_of(i), "u" + std::to_string(i));
  for (int i = 0; i < kKeys; i += 11) Delete(key_of(i));
  for (int i = 0; i < kKeys; i += 22) Put(key_of(i), "r" + std::to_string(i));
  const Digest before = TakeDigest();

  config_.recovery_threads = 1;
  Restart();
  const Digest one = TakeDigest();
  const uint64_t one_records = ReplayedRecords();
  config_.recovery_threads = GetParam();
  Restart();
  EXPECT_EQ(TakeDigest(), one);
  EXPECT_EQ(ReplayedRecords(), one_records);
  EXPECT_EQ(one, before);
  EXPECT_GT(one_records, 0u);
}

// ---- post-recovery visibility across CC schemes ---------------------------

TEST_P(RecoveryTest, TombstonesInvisibleToAllSchemesAfterRecovery) {
  Put("keep1", "a", "skeep1");
  Put("dead1", "b", "sdead1");
  Put("keep2", "c", "skeep2");
  Put("dead2", "d", "sdead2");
  Delete("dead1");
  Delete("dead2");
  Restart();

  for (CcScheme scheme :
       {CcScheme::kSi, CcScheme::kSiSsn, CcScheme::kOcc, CcScheme::k2pl}) {
    SCOPED_TRACE(CcSchemeName(scheme));
    // Point reads: tombstoned heads must read as NotFound via both indexes.
    for (const char* dead : {"dead1", "dead2"}) {
      Transaction txn(db_->get(), scheme);
      Slice v;
      EXPECT_TRUE(txn.Get(pk_, dead, &v).IsNotFound()) << dead;
      EXPECT_TRUE(txn.Get(sec_, std::string("s") + dead, &v).IsNotFound());
      ASSERT_TRUE(txn.Commit().ok());
    }
    {
      Transaction txn(db_->get(), scheme);
      Slice v;
      ASSERT_TRUE(txn.Get(pk_, "keep1", &v).ok());
      EXPECT_EQ(v.ToString(), "a");
      ASSERT_TRUE(txn.Get(sec_, "skeep2", &v).ok());
      EXPECT_EQ(v.ToString(), "c");
      ASSERT_TRUE(txn.Commit().ok());
    }
    // Range scans: tombstoned records are skipped, not delivered.
    {
      Transaction txn(db_->get(), scheme);
      std::vector<std::string> keys;
      ASSERT_TRUE(txn.Scan(pk_, "", "", -1,
                           [&](const Slice& k, const Slice&) {
                             keys.push_back(k.ToString());
                             return true;
                           })
                      .ok());
      EXPECT_EQ(keys, (std::vector<std::string>{"keep1", "keep2"}));
      ASSERT_TRUE(txn.Commit().ok());
    }
    {
      Transaction txn(db_->get(), scheme);
      std::vector<std::string> keys;
      ASSERT_TRUE(txn.Scan(sec_, "s", "", -1,
                           [&](const Slice& k, const Slice&) {
                             keys.push_back(k.ToString());
                             return true;
                           })
                      .ok());
      EXPECT_EQ(keys, (std::vector<std::string>{"skeep1", "skeep2"}));
      ASSERT_TRUE(txn.Commit().ok());
    }
  }
}

// ---- per-operation logs are unrecoverable --------------------------------

// log_per_operation (Fig. 10 WAL emulation) writes records as operations
// execute, before commit/abort is decided: replaying such a log would
// resurrect aborted transactions' writes. The mode is stamped into each
// segment file name ("-perop"), so a restart must refuse to recover — fast,
// with a clear error — rather than silently install garbage.
TEST(PerOperationLogTest, RecoveryFailsFastWithClearError) {
  EngineConfig config;
  config.synchronous_commit = true;
  config.log_per_operation = true;
  testing::TempDb db(config);
  {
    ASSERT_TRUE(db->Open().ok());
    Table* table = db->CreateTable("t");
    Index* pk = db->CreateIndex(table, "t_pk");
    Transaction committed(db.get(), CcScheme::kSi);
    Oid oid = 0;
    ASSERT_TRUE(committed.Insert(table, pk, "k", "v", &oid).ok());
    ASSERT_TRUE(committed.Commit().ok());
    // The hazard the stamp guards against: this transaction's records are
    // already on disk even though it aborts.
    Transaction aborted(db.get(), CcScheme::kSi);
    ASSERT_TRUE(aborted.Insert(table, pk, "ghost", "boo", &oid).ok());
    aborted.Abort();
  }
  db.ShutDown();

  // The stamp must be visible in the segment file names themselves.
  {
    LogScanner scanner(db.dir());
    ASSERT_TRUE(scanner.Init().ok());
    ASSERT_FALSE(scanner.segments().empty());
    EXPECT_TRUE(scanner.any_per_operation());
    for (const LogSegment& seg : scanner.segments()) {
      EXPECT_NE(seg.path.find("-perop"), std::string::npos) << seg.path;
    }
  }

  db.Restart(config);
  Table* table = db->CreateTable("t");
  db->CreateIndex(table, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  const Status s = db->Recover();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("log_per_operation"), std::string::npos)
      << s.ToString();
}

// A normal-mode log written by the same build must keep parsing (the
// un-suffixed name form stays valid) — guards against the stamp breaking
// old-log compatibility.
TEST(PerOperationLogTest, NormalSegmentsCarryNoStamp) {
  uint32_t segnum = 0;
  uint64_t start = 0, end = 0;
  bool perop = true;
  const std::string plain = SegmentFileName(7, 64, 4096, false);
  EXPECT_EQ(plain.find("-perop"), std::string::npos);
  ASSERT_TRUE(ParseSegmentFileName(plain, &segnum, &start, &end, &perop));
  EXPECT_EQ(segnum, 7u);
  EXPECT_EQ(start, 64u);
  EXPECT_EQ(end, 4096u);
  EXPECT_FALSE(perop);
  // Flag-less call form (pre-stamp callers) still accepts both names.
  ASSERT_TRUE(ParseSegmentFileName(SegmentFileName(3, 64, 4096, true), &segnum,
                                   &start, &end));
  EXPECT_EQ(segnum, 3u);
  // Trailing garbage after the offsets is not a segment.
  EXPECT_FALSE(ParseSegmentFileName(plain + ".tmp", &segnum, &start, &end));
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, RecoveryTest,
                         ::testing::Values(1u, 3u, 4u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return info.param == 1
                                      ? std::string("Serial")
                                      : "Parallel" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace ermia
