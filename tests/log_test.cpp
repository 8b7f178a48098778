// Tests for the log subsystem (§3.3): the CRC32C block checksum, LSN
// encoding, completion tracking, ring buffer wraps, single-fetch-add
// reservation, segment rotation with skip records and dead zones,
// durability, concurrent reservation properties, and the recovery scan with
// torn tails.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "common/random.h"
#include "log/log_manager.h"
#include "log/log_scan.h"
#include "test_util.h"

namespace ermia {
namespace {

// Known answers: "123456789" is the CRC catalogue's check value; the 32-byte
// vectors are RFC 3720 (iSCSI) appendix B.4.
TEST(LogChecksumTest, Crc32cKnownAnswers) {
  EXPECT_EQ(LogChecksum("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c::ExtendTable(0, "123456789", 9), 0xE3069283u);
  EXPECT_EQ(LogChecksum(nullptr, 0), 0u);
  std::vector<uint8_t> zeros(32, 0), ones(32, 0xFF), ascending(32);
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<uint8_t>(i);
  }
  EXPECT_EQ(LogChecksum(zeros.data(), 32), 0x8A9136AAu);
  EXPECT_EQ(LogChecksum(ones.data(), 32), 0x62A8AB43u);
  EXPECT_EQ(LogChecksum(ascending.data(), 32), 0x46DD794Eu);
}

std::vector<char> RandomBytes(FastRandom& rng, size_t n) {
  std::vector<char> buf(n);
  for (char& c : buf) c = static_cast<char>(rng.Next());
  return buf;
}

// Folding a buffer in over any split gives the one-shot checksum, which is
// what lets the checkpoint writer checksum field by field.
TEST(LogChecksumTest, StreamingExtendMatchesOneShot) {
  FastRandom rng(19);
  const std::vector<char> buf = RandomBytes(rng, 5000);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t len = rng.UniformU64(0, buf.size());
    uint32_t crc = 0;
    size_t pos = 0;
    while (pos < len) {
      const size_t piece = rng.UniformU64(1, std::min<size_t>(len - pos, 97));
      crc = crc32c::Extend(crc, buf.data() + pos, piece);
      pos += piece;
    }
    ASSERT_EQ(crc, LogChecksum(buf.data(), len)) << "len " << len;
  }
}

// The SSE4.2 and table implementations agree on every length and alignment.
TEST(LogChecksumTest, Sse42AndTableAgree) {
  if (!crc32c::HasSse42()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  FastRandom rng(23);
  const std::vector<char> buf = RandomBytes(rng, 4096 + 16);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t start = rng.UniformU64(0, 15);
    const size_t len = rng.UniformU64(0, 4096);
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(crc32c::ExtendSse42(seed, buf.data() + start, len),
              crc32c::ExtendTable(seed, buf.data() + start, len))
        << "start " << start << " len " << len;
  }
}

TEST(LsnTest, EncodeDecode) {
  Lsn lsn = Lsn::Make(0x121A0, 0xA);
  EXPECT_EQ(lsn.offset(), 0x121A0u);
  EXPECT_EQ(lsn.segment(), 0xAu);
  EXPECT_FALSE(kInvalidLsn.valid());
  EXPECT_TRUE(lsn.valid());
}

TEST(LsnTest, OrderFollowsOffset) {
  // Segment lives in the low bits, so offsets dominate comparisons.
  EXPECT_LT(Lsn::Make(100, 15), Lsn::Make(101, 0));
  EXPECT_LT(Lsn::Make(100, 0), Lsn::Make(100, 1));  // tie-broken by segment
}

TEST(SegmentTest, FileNameRoundTrip) {
  std::string name = SegmentFileName(0xA, 0x121A0, 0x131A0);
  uint32_t seg;
  uint64_t start, end;
  ASSERT_TRUE(ParseSegmentFileName(name, &seg, &start, &end));
  EXPECT_EQ(seg, 0xAu);
  EXPECT_EQ(start, 0x121A0u);
  EXPECT_EQ(end, 0x131A0u);
  EXPECT_FALSE(ParseSegmentFileName("chk-0001", &seg, &start, &end));
  EXPECT_FALSE(ParseSegmentFileName("cmark-0001", &seg, &start, &end));
}

TEST(CompletionTrackerTest, InOrderAdvances) {
  CompletionTracker t(0);
  t.Mark(0, 100);
  EXPECT_EQ(t.complete_until(), 100u);
  t.Mark(100, 150);
  EXPECT_EQ(t.complete_until(), 150u);
}

TEST(CompletionTrackerTest, OutOfOrderWaitsForGap) {
  CompletionTracker t(0);
  t.Mark(100, 200);
  EXPECT_EQ(t.complete_until(), 0u);
  t.Mark(0, 100);
  EXPECT_EQ(t.complete_until(), 200u);
}

// Property: however ranges arrive, the frontier is always the end of the
// longest marked prefix.
TEST(CompletionTrackerTest, FrontierIsEndOfLongestMarkedPrefix) {
  FastRandom rng(31);
  constexpr int kRanges = 500;
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  uint64_t pos = 0;
  for (int i = 0; i < kRanges; ++i) {
    const uint64_t len = 32 * rng.UniformU64(1, 8);
    ranges.push_back({pos, pos + len});
    pos += len;
  }
  // Shuffle within small windows, as concurrent committers would.
  std::vector<size_t> order(ranges.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    const size_t j = i + rng.UniformU64(0, std::min<size_t>(5, order.size() - 1 - i));
    std::swap(order[i], order[j]);
  }
  CompletionTracker t(0);
  std::vector<bool> marked(ranges.size(), false);
  size_t prefix = 0;  // ranges [0, prefix) are all marked
  for (size_t idx : order) {
    t.Mark(ranges[idx].first, ranges[idx].second);
    marked[idx] = true;
    while (prefix < marked.size() && marked[prefix]) ++prefix;
    ASSERT_EQ(t.complete_until(), prefix == 0 ? 0 : ranges[prefix - 1].second);
  }
  EXPECT_EQ(t.complete_until(), pos);
}

TEST(LogRingBufferTest, WrapAroundPreservesBytes) {
  LogRingBuffer ring(1024);
  std::string data(300, 'x');
  for (int i = 0; i < 300; ++i) data[i] = static_cast<char>(i);
  ring.Write(900, data.data(), data.size());  // wraps at 1024
  EXPECT_EQ(ring.ContiguousFrom(900), 124u);
  std::string out(ring.At(900), 124);
  out.append(ring.At(1024), 176);
  EXPECT_EQ(out, data);
  ring.Zero(1000, 100);  // wraps too
  EXPECT_EQ(std::string(ring.At(1000), 24), std::string(24, '\0'));
  EXPECT_EQ(std::string(ring.At(1024), 76), std::string(76, '\0'));
  EXPECT_EQ(*ring.At(1100), static_cast<char>(200));
}

class LogManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::MakeTempDir();
    config_.log_dir = dir_;
    config_.log_segment_size = 1 << 16;  // small: exercises rotation
    config_.log_buffer_size = 1 << 20;
    log_ = std::make_unique<LogManager>(config_, &metrics_);
    ASSERT_TRUE(log_->Open().ok());
  }
  void TearDown() override {
    log_.reset();
    testing::RemoveDir(dir_);
  }

  // Serializes an empty txn block of `payload` bytes into `out`.
  static std::vector<char> MakeBlock(uint64_t offset, uint32_t payload_bytes) {
    std::vector<char> block(sizeof(LogBlockHeader) + payload_bytes, 'p');
    LogBlockHeader hdr{};
    hdr.magic = kLogBlockMagic;
    hdr.type = LogBlockType::kTxn;
    hdr.offset = offset;
    hdr.total_size =
        (static_cast<uint32_t>(block.size()) + 31u) & ~31u;
    hdr.num_records = 0;
    hdr.payload_bytes = payload_bytes;
    hdr.checksum = LogChecksum(block.data() + sizeof hdr, payload_bytes);
    std::memcpy(block.data(), &hdr, sizeof hdr);
    return block;
  }

  std::string dir_;
  EngineConfig config_;
  metrics::EngineMetrics metrics_;
  std::unique_ptr<LogManager> log_;
};

TEST_F(LogManagerTest, ReserveAdvancesMonotonically) {
  Lsn a = log_->ReserveBlock(64);
  Lsn b = log_->ReserveBlock(64);
  EXPECT_LT(a.offset(), b.offset());
  log_->InstallSkip(a, 64);
  log_->InstallSkip(b, 64);
}

TEST_F(LogManagerTest, InstallBecomesDurable) {
  Lsn lsn = log_->ReserveBlock(96);
  auto block = MakeBlock(lsn.offset(), 96 - sizeof(LogBlockHeader));
  log_->InstallBlock(lsn, block.data(), static_cast<uint32_t>(block.size()));
  log_->WaitForDurable(lsn.offset() + 96);
  EXPECT_GE(log_->DurableOffset(), lsn.offset() + 96);
}

TEST_F(LogManagerTest, SegmentRotationProducesValidLsns) {
  // Fill several segments worth of blocks. The block size does not divide
  // the segment size, so every rotation closes a segment tail with a skip.
  const uint32_t block_size = 4096 + 32;
  const int n = 5 * (1 << 16) / block_size;
  for (int i = 0; i < n; ++i) {
    Lsn lsn = log_->ReserveBlock(block_size);
    auto block = MakeBlock(lsn.offset(), block_size - sizeof(LogBlockHeader));
    log_->InstallBlock(lsn, block.data(), static_cast<uint32_t>(block.size()));
    // The returned segment must map the block.
    bool found = false;
    for (const auto& seg : log_->Segments()) {
      if (seg.Contains(lsn.offset(), block_size)) {
        EXPECT_EQ(seg.segnum, lsn.segment());
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
  EXPECT_GE(metrics_.Sum(metrics::Ctr::kLogSegmentRotations), 4u);
  // Segment-closing skips.
  EXPECT_GE(metrics_.Sum(metrics::Ctr::kLogSkipBlocks), 1u);
}

TEST_F(LogManagerTest, ScanSeesCommittedBlocksInOrder) {
  std::vector<uint64_t> offsets;
  for (int i = 0; i < 200; ++i) {
    const uint32_t size = 64 + 32 * (i % 7);
    Lsn lsn = log_->ReserveBlock(size);
    auto block = MakeBlock(lsn.offset(), size - sizeof(LogBlockHeader));
    log_->InstallBlock(lsn, block.data(), static_cast<uint32_t>(block.size()));
    offsets.push_back(lsn.offset());
  }
  log_->WaitForDurable(log_->CurrentOffset());
  log_->Close();

  LogScanner scanner(dir_);
  ASSERT_TRUE(scanner.Init().ok());
  std::vector<uint64_t> seen;
  ASSERT_TRUE(scanner
                  .Scan(kLogStartOffset,
                        [&](const ScannedBlock& b) { seen.push_back(b.offset); })
                  .ok());
  EXPECT_EQ(seen, offsets);
}

TEST_F(LogManagerTest, AbortedReservationsAreSkipped) {
  Lsn keep = log_->ReserveBlock(64);
  Lsn aborted = log_->ReserveBlock(128);
  auto block = MakeBlock(keep.offset(), 64 - sizeof(LogBlockHeader));
  log_->InstallBlock(keep, block.data(), static_cast<uint32_t>(block.size()));
  log_->InstallSkip(aborted, 128);
  Lsn after = log_->ReserveBlock(64);
  auto block2 = MakeBlock(after.offset(), 64 - sizeof(LogBlockHeader));
  log_->InstallBlock(after, block2.data(), static_cast<uint32_t>(block2.size()));
  log_->WaitForDurable(log_->CurrentOffset());
  log_->Close();

  LogScanner scanner(dir_);
  ASSERT_TRUE(scanner.Init().ok());
  std::vector<uint64_t> seen;
  ASSERT_TRUE(scanner
                  .Scan(kLogStartOffset,
                        [&](const ScannedBlock& b) { seen.push_back(b.offset); })
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{keep.offset(), after.offset()}));
}

// Property: concurrent reservations never overlap and all become durable.
TEST_F(LogManagerTest, ConcurrentReservationsAreDisjoint) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 300;
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> claimed(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      FastRandom rng(t + 1);
      for (int i = 0; i < kPerThread; ++i) {
        const uint32_t size =
            64 + 32 * static_cast<uint32_t>(rng.UniformU64(0, 16));
        Lsn lsn = log_->ReserveBlock(size);
        claimed[t].push_back({lsn.offset(), size});
        if (rng.Bernoulli(0.2)) {
          log_->InstallSkip(lsn, size);
        } else {
          auto block = MakeBlock(lsn.offset(), size - sizeof(LogBlockHeader));
          log_->InstallBlock(lsn, block.data(),
                             static_cast<uint32_t>(block.size()));
        }
      }
      ThreadRegistry::Deregister();
    });
  }
  for (auto& t : threads) t.join();
  log_->WaitForDurable(log_->CurrentOffset());

  // No two returned blocks overlap.
  std::vector<std::pair<uint64_t, uint32_t>> all;
  for (auto& v : claimed) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i].first, all[i - 1].first + all[i - 1].second)
        << "overlapping reservations at index " << i;
  }
}

TEST_F(LogManagerTest, FindTailMatchesDurableEnd) {
  Lsn lsn = log_->ReserveBlock(64);
  auto block = MakeBlock(lsn.offset(), 64 - sizeof(LogBlockHeader));
  log_->InstallBlock(lsn, block.data(), static_cast<uint32_t>(block.size()));
  log_->WaitForDurable(log_->CurrentOffset());
  const uint64_t end = log_->DurableOffset();
  log_->Close();
  LogScanner scanner(dir_);
  ASSERT_TRUE(scanner.Init().ok());
  EXPECT_EQ(scanner.FindTail(), end);
}

TEST_F(LogManagerTest, ResumeAppendsAfterRestart) {
  Lsn first = log_->ReserveBlock(64);
  auto block = MakeBlock(first.offset(), 64 - sizeof(LogBlockHeader));
  log_->InstallBlock(first, block.data(), static_cast<uint32_t>(block.size()));
  log_->WaitForDurable(log_->CurrentOffset());
  log_->Close();
  log_ = std::make_unique<LogManager>(config_, &metrics_);
  ASSERT_TRUE(log_->Open().ok());
  Lsn second = log_->ReserveBlock(64);
  EXPECT_GT(second.offset(), first.offset());
  auto block2 = MakeBlock(second.offset(), 64 - sizeof(LogBlockHeader));
  log_->InstallBlock(second, block2.data(),
                     static_cast<uint32_t>(block2.size()));
  log_->WaitForDurable(log_->CurrentOffset());
  log_->Close();

  LogScanner scanner(dir_);
  ASSERT_TRUE(scanner.Init().ok());
  std::vector<uint64_t> seen;
  ASSERT_TRUE(scanner
                  .Scan(kLogStartOffset,
                        [&](const ScannedBlock& b) { seen.push_back(b.offset); })
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{first.offset(), second.offset()}));
}

TEST_F(LogManagerTest, InMemoryModeNeedsNoFiles) {
  EngineConfig config;
  config.log_dir = "";
  LogManager mem(config);
  ASSERT_TRUE(mem.Open().ok());
  Lsn lsn = mem.ReserveBlock(64);
  std::vector<char> block(64, 'x');
  LogBlockHeader hdr{};
  hdr.magic = kLogBlockMagic;
  hdr.type = LogBlockType::kTxn;
  hdr.offset = lsn.offset();
  hdr.total_size = 64;
  std::memcpy(block.data(), &hdr, sizeof hdr);
  mem.InstallBlock(lsn, block.data(), 64);
  mem.WaitForDurable(mem.CurrentOffset());
  EXPECT_GE(mem.DurableOffset(), lsn.offset() + 64);
  mem.Close();
}

}  // namespace
}  // namespace ermia
