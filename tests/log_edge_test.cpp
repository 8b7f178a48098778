// Log manager edge cases: ring-buffer backpressure with a tiny buffer,
// synchronous-commit durability ordering, heavy rotation with concurrent
// writers (dead-zone accounting), the flusher's one extent per segment,
// engine behavior under sync commits, and the scan's handling of segments
// that end exactly on a block boundary.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/random.h"
#include "log/log_manager.h"
#include "log/log_scan.h"
#include "test_util.h"

namespace ermia {
namespace {

std::vector<char> MakeBlock(uint64_t offset, uint32_t size) {
  std::vector<char> block(size, 'q');
  LogBlockHeader hdr{};
  hdr.magic = kLogBlockMagic;
  hdr.type = LogBlockType::kTxn;
  hdr.offset = offset;
  hdr.total_size = (size + 31u) & ~31u;
  hdr.payload_bytes = size - sizeof hdr;
  hdr.checksum = LogChecksum(block.data() + sizeof hdr, hdr.payload_bytes);
  std::memcpy(block.data(), &hdr, sizeof hdr);
  return block;
}

TEST(LogBackpressureTest, TinyBufferThrottlesButCompletes) {
  const std::string dir = testing::MakeTempDir();
  EngineConfig config;
  config.log_dir = dir;
  config.log_buffer_size = 1 << 12;  // 4KB ring: constant backpressure
  config.log_segment_size = 1 << 20;
  LogManager log(config);
  ASSERT_TRUE(log.Open().ok());

  constexpr int kThreads = 3;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const uint32_t size = 256;
        Lsn lsn = log.ReserveBlock(size);
        auto block = MakeBlock(lsn.offset(), size);
        log.InstallBlock(lsn, block.data(), size);
      }
      ThreadRegistry::Deregister();
    });
  }
  for (auto& t : threads) t.join();
  log.WaitForDurable(log.CurrentOffset());
  log.Close();

  LogScanner scanner(dir);
  ASSERT_TRUE(scanner.Init().ok());
  int blocks = 0;
  ASSERT_TRUE(
      scanner.Scan(kLogStartOffset, [&](const ScannedBlock&) { ++blocks; })
          .ok());
  EXPECT_EQ(blocks, kThreads * kPerThread);
  testing::RemoveDir(dir);
}

TEST(LogSyncCommitTest, DurableBeforeReturn) {
  const std::string dir = testing::MakeTempDir();
  EngineConfig config;
  config.log_dir = dir;
  config.synchronous_commit = true;
  LogManager log(config);
  ASSERT_TRUE(log.Open().ok());
  for (int i = 0; i < 50; ++i) {
    Lsn lsn = log.ReserveBlock(128);
    auto block = MakeBlock(lsn.offset(), 128);
    log.InstallBlock(lsn, block.data(), 128);
    log.WaitForDurable(lsn.offset() + 128);
    ASSERT_GE(log.DurableOffset(), lsn.offset() + 128);
  }
  log.Close();
  testing::RemoveDir(dir);
}

TEST(LogRotationStressTest, ConcurrentWritersAcrossManySegments) {
  const std::string dir = testing::MakeTempDir();
  EngineConfig config;
  config.log_dir = dir;
  config.log_segment_size = 1 << 14;  // 16KB segments: rotate constantly
  config.log_buffer_size = 1 << 20;
  metrics::EngineMetrics metrics;
  LogManager log(config, &metrics);
  ASSERT_TRUE(log.Open().ok());

  constexpr int kThreads = 4;
  std::atomic<int> installed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      FastRandom rng(t + 40);
      for (int i = 0; i < 400; ++i) {
        const uint32_t size =
            64 + 32 * static_cast<uint32_t>(rng.UniformU64(0, 30));
        Lsn lsn = log.ReserveBlock(size);
        auto block = MakeBlock(lsn.offset(), size);
        log.InstallBlock(lsn, block.data(), size);
        installed.fetch_add(1);
      }
      ThreadRegistry::Deregister();
    });
  }
  for (auto& t : threads) t.join();
  log.WaitForDurable(log.CurrentOffset());
  EXPECT_GT(metrics.Sum(metrics::Ctr::kLogSegmentRotations), 10u);
  log.Close();

  // Every installed block survives the scan, in offset order, despite the
  // skip records and dead zones in between.
  LogScanner scanner(dir);
  ASSERT_TRUE(scanner.Init().ok());
  int blocks = 0;
  uint64_t prev = 0;
  ASSERT_TRUE(scanner
                  .Scan(kLogStartOffset,
                        [&](const ScannedBlock& b) {
                          EXPECT_GT(b.offset, prev);
                          prev = b.offset;
                          ++blocks;
                        })
                  .ok());
  EXPECT_EQ(blocks, installed.load());
  testing::RemoveDir(dir);
}

// Group commit writes each segment's completed extent straight from the
// ring: a flush costs at most two pwrites per segment it touches (two when
// the extent wraps the ring), however many blocks it carries. A skip block
// goes to disk whole, its body zeroed, even where the ring held older bytes.
TEST(LogFlushTest, OneExtentPerSegmentStraightFromTheRing) {
  const std::string dir = testing::MakeTempDir();
  EngineConfig config;
  config.log_dir = dir;
  config.log_buffer_size = 1 << 16;   // 64 KiB ring: wraps several times
  config.log_segment_size = 1 << 20;  // one segment: no creation ops counted
  metrics::EngineMetrics metrics;
  LogManager log(config, &metrics);
  ASSERT_TRUE(log.Open().ok());

  // Armed but never fires, so OpCount() counts every instrumented write.
  fault::Plan plan;
  plan.mode = fault::Mode::kFsyncError;
  plan.trigger_after = UINT64_MAX;
  fault::InstallPlan(plan);
  constexpr int kCommits = 1000;
  constexpr uint32_t kSize = 256;
  for (int i = 0; i < kCommits; ++i) {
    Lsn lsn = log.ReserveBlock(kSize);
    auto block = MakeBlock(lsn.offset(), kSize);
    log.InstallBlock(lsn, block.data(), kSize);
  }
  // The last reservation aborts; the ring under it holds 'q' payload bytes
  // from an earlier lap.
  constexpr uint32_t kSkipSize = 1024;
  const Lsn skip = log.ReserveBlock(kSkipSize);
  log.InstallSkip(skip, kSkipSize);
  ASSERT_TRUE(log.WaitForDurable(skip.offset() + kSkipSize).ok());
  log.Close();  // joins the flusher, so its counters are final
  const uint64_t writes = fault::OpCount();
  fault::Disarm();

  const uint64_t flushes = metrics.Sum(metrics::Ctr::kLogFlushes);
  EXPECT_GT(flushes, 0u);
  EXPECT_LE(writes,
            2 * (flushes + metrics.Sum(metrics::Ctr::kLogSegmentRotations)))
      << kCommits << " commits, " << flushes << " flushes";

  const std::vector<LogSegment> segs = log.Segments();
  ASSERT_EQ(segs.size(), 1u);
  const int fd = ::open(segs[0].path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  std::vector<char> body(kSkipSize, 'x');
  const off_t at = static_cast<off_t>(segs[0].FileOffset(skip.offset()));
  const ssize_t n = ::pread(fd, body.data(), body.size(), at);
  ::close(fd);
  ASSERT_EQ(n, static_cast<ssize_t>(kSkipSize));
  LogBlockHeader hdr;
  std::memcpy(&hdr, body.data(), sizeof hdr);
  EXPECT_EQ(hdr.type, LogBlockType::kSkip);
  EXPECT_EQ(hdr.total_size, kSkipSize);
  EXPECT_EQ(std::string(body.data() + sizeof hdr, kSkipSize - sizeof hdr),
            std::string(kSkipSize - sizeof hdr, '\0'));

  LogScanner scanner(dir);
  ASSERT_TRUE(scanner.Init().ok());
  int blocks = 0;
  ASSERT_TRUE(
      scanner.Scan(kLogStartOffset, [&](const ScannedBlock&) { ++blocks; })
          .ok());
  EXPECT_EQ(blocks, kCommits);
  testing::RemoveDir(dir);
}

TEST(LogScanEdgeTest, SegmentEndingExactlyOnBlockBoundary) {
  const std::string dir = testing::MakeTempDir();
  EngineConfig config;
  config.log_dir = dir;
  config.log_segment_size = 1 << 12;  // 4096: 16 × 256-byte blocks + start gap
  LogManager log(config);
  ASSERT_TRUE(log.Open().ok());
  // kLogStartOffset=64, so 15 blocks of 256 land at 64..3904 and the 16th
  // ends exactly at... fill enough to cross several boundaries regardless.
  int n = 0;
  for (int i = 0; i < 64; ++i) {
    Lsn lsn = log.ReserveBlock(256);
    auto block = MakeBlock(lsn.offset(), 256);
    log.InstallBlock(lsn, block.data(), 256);
    ++n;
  }
  log.WaitForDurable(log.CurrentOffset());
  log.Close();
  LogScanner scanner(dir);
  ASSERT_TRUE(scanner.Init().ok());
  int blocks = 0;
  ASSERT_TRUE(
      scanner.Scan(kLogStartOffset, [&](const ScannedBlock&) { ++blocks; })
          .ok());
  EXPECT_EQ(blocks, n);
  testing::RemoveDir(dir);
}

// ---- torn-tail truncation ------------------------------------------------
// FindTail() and Scan() must apply the same block-validity predicate. If
// FindTail accepts a block Scan rejects (the historical bug: header checks
// without the payload checksum), the reopened log adopts a tail past the
// torn block, appends land beyond unreachable garbage, and the next
// recovery's scan — stopping at the torn block — silently drops them.
class TornTailTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::MakeTempDir();
    EngineConfig config;
    config.log_dir = dir_;
    LogManager log(config);
    ASSERT_TRUE(log.Open().ok());
    for (int i = 0; i < 8; ++i) {
      Lsn lsn = log.ReserveBlock(256);
      auto block = MakeBlock(lsn.offset(), 256);
      log.InstallBlock(lsn, block.data(), 256);
      last_block_ = lsn.offset();
    }
    log.WaitForDurable(log.CurrentOffset());
    tail_ = log.CurrentOffset();
    log.Close();
    LogScanner scanner(dir_);
    ASSERT_TRUE(scanner.Init().ok());
    ASSERT_EQ(scanner.segments().size(), 1u);
    path_ = scanner.segments().back().path;
  }
  void TearDown() override { testing::RemoveDir(dir_); }

  struct Probe {
    uint64_t find_tail;
    uint64_t scan_stop;  // end_offset of the last block Scan delivers
  };

  Probe ProbeTail() {
    Probe p{0, kLogStartOffset};
    LogScanner scanner(dir_);
    EXPECT_TRUE(scanner.Init().ok());
    p.find_tail = scanner.FindTail();
    LogScanner rescanner(dir_);
    EXPECT_TRUE(rescanner.Init().ok());
    EXPECT_TRUE(rescanner
                    .Scan(kLogStartOffset,
                          [&](const ScannedBlock& b) {
                            p.scan_stop = b.end_offset;
                          })
                    .ok());
    return p;
  }

  uint64_t FileSize() {
    struct stat st{};
    EXPECT_EQ(::stat(path_.c_str(), &st), 0);
    return static_cast<uint64_t>(st.st_size);
  }

  std::string dir_;
  std::string path_;
  uint64_t last_block_ = 0;  // offset of the final installed block
  uint64_t tail_ = 0;        // one past it
};

TEST_F(TornTailTest, IntactLogAgreesEverywhere) {
  const Probe p = ProbeTail();
  EXPECT_EQ(p.find_tail, tail_);
  EXPECT_EQ(p.scan_stop, tail_);
}

TEST_F(TornTailTest, TruncateMidPayload) {
  // Chop 40 bytes off the last block: header intact, payload short.
  ASSERT_EQ(::truncate(path_.c_str(), FileSize() - 40), 0);
  const Probe p = ProbeTail();
  EXPECT_EQ(p.find_tail, last_block_);
  EXPECT_EQ(p.scan_stop, p.find_tail);
}

TEST_F(TornTailTest, CorruptPayloadByte) {
  // Flip one payload byte of the last block: length-complete, checksum bad.
  int fd = ::open(path_.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  char b;
  const off_t at = static_cast<off_t>(FileSize()) - 5;
  ASSERT_EQ(::pread(fd, &b, 1, at), 1);
  b ^= 0x40;
  ASSERT_EQ(::pwrite(fd, &b, 1, at), 1);
  ::close(fd);
  const Probe p = ProbeTail();
  EXPECT_EQ(p.find_tail, last_block_);
  EXPECT_EQ(p.scan_stop, p.find_tail);
}

TEST_F(TornTailTest, HeaderValidPayloadTorn) {
  // Append a block whose 32-byte header is fully valid but whose payload
  // was torn mid-write — the exact shape a crashed group flush leaves. The
  // old header-only FindTail adopted it.
  auto block = MakeBlock(tail_, 256);
  int fd = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, block.data(), 100), 100);
  ::close(fd);
  const Probe p = ProbeTail();
  EXPECT_EQ(p.find_tail, tail_);
  EXPECT_EQ(p.scan_stop, p.find_tail);
}

TEST_F(TornTailTest, GarbageAppended) {
  std::string garbage(96, '\x5A');
  int fd = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, garbage.data(), garbage.size()),
            static_cast<ssize_t>(garbage.size()));
  ::close(fd);
  const Probe p = ProbeTail();
  EXPECT_EQ(p.find_tail, tail_);
  EXPECT_EQ(p.scan_stop, p.find_tail);
}

// Engine-level synchronous commit: transactions return only after their log
// block is durable, so a scan of the files immediately after commit sees it.
TEST(EngineSyncCommitTest, CommittedWorkIsOnDiskImmediately) {
  EngineConfig config;
  config.synchronous_commit = true;
  testing::TempDb db(config);
  ASSERT_TRUE(db->Open().ok());
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  {
    Transaction txn(db.get(), CcScheme::kSi);
    ASSERT_TRUE(txn.Insert(t, pk, "k", "v", nullptr).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  // Without closing the database, the block must already be durable.
  LogScanner scanner(db.dir());
  ASSERT_TRUE(scanner.Init().ok());
  int records = 0;
  ASSERT_TRUE(scanner
                  .Scan(kLogStartOffset,
                        [&](const ScannedBlock& b) {
                          records += static_cast<int>(b.records.size());
                        })
                  .ok());
  EXPECT_GE(records, 2);  // kInsert + kIndexInsert
}

}  // namespace
}  // namespace ermia
