// Configuration-space robustness: the engine must behave identically across
// log geometries (segment size × ring size), durability modes, and daemon
// settings. Parameterized sweeps run the same workload + restart cycle under
// each configuration.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/random.h"
#include "log/log_manager.h"
#include "log/log_scan.h"
#include "test_util.h"

namespace ermia {
namespace {

// ---- log manager geometry sweep ---------------------------------------------

using LogGeometry = std::tuple<uint64_t, uint64_t>;  // segment, buffer

class LogGeometryTest : public ::testing::TestWithParam<LogGeometry> {};

TEST_P(LogGeometryTest, InstallScanRoundTrip) {
  const auto [segment_size, buffer_size] = GetParam();
  const std::string dir = testing::MakeTempDir();
  EngineConfig config;
  config.log_dir = dir;
  config.log_segment_size = segment_size;
  config.log_buffer_size = buffer_size;
  {
    LogManager log(config);
    ASSERT_TRUE(log.Open().ok());
    FastRandom rng(9);
    for (int i = 0; i < 400; ++i) {
      const uint32_t size =
          64 + 32 * static_cast<uint32_t>(rng.UniformU64(0, 12));
      Lsn lsn = log.ReserveBlock(size);
      std::vector<char> block(size, 'g');
      LogBlockHeader hdr{};
      hdr.magic = kLogBlockMagic;
      hdr.type = LogBlockType::kTxn;
      hdr.offset = lsn.offset();
      hdr.total_size = (size + 31u) & ~31u;
      hdr.payload_bytes = size - sizeof hdr;
      hdr.checksum = LogChecksum(block.data() + sizeof hdr, hdr.payload_bytes);
      std::memcpy(block.data(), &hdr, sizeof hdr);
      log.InstallBlock(lsn, block.data(), size);
    }
    log.WaitForDurable(log.CurrentOffset());
    log.Close();
  }
  LogScanner scanner(dir);
  ASSERT_TRUE(scanner.Init().ok());
  int blocks = 0;
  ASSERT_TRUE(
      scanner.Scan(kLogStartOffset, [&](const ScannedBlock&) { ++blocks; })
          .ok());
  EXPECT_EQ(blocks, 400);
  testing::RemoveDir(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LogGeometryTest,
    ::testing::Values(LogGeometry{1 << 13, 1 << 12},   // tiny both
                      LogGeometry{1 << 13, 1 << 20},   // tiny segments
                      LogGeometry{1 << 16, 1 << 13},   // tiny buffer
                      LogGeometry{1 << 20, 1 << 16},   // balanced
                      LogGeometry{64 << 20, 16 << 20}  // production-sized
                      ),
    [](const ::testing::TestParamInfo<LogGeometry>& info) {
      return "seg" + std::to_string(std::get<0>(info.param) >> 10) + "k_buf" +
             std::to_string(std::get<1>(info.param) >> 10) + "k";
    });

// ---- engine configuration sweep ----------------------------------------------

struct EngineVariant {
  const char* name;
  bool synchronous_commit;
  bool enable_gc;
  uint64_t checkpoint_interval_ms;
  uint64_t log_segment_size;
};

// Without this gtest lists the parameter as a raw byte dump, which holds the
// `name` pointer and struct padding, so the listed test name changed from one
// run to the next.
void PrintTo(const EngineVariant& v, std::ostream* os) { *os << v.name; }

class EngineConfigTest : public ::testing::TestWithParam<EngineVariant> {};

TEST_P(EngineConfigTest, WorkloadPlusRestartCycle) {
  const EngineVariant& v = GetParam();
  EngineConfig config;
  config.synchronous_commit = v.synchronous_commit;
  config.enable_gc = v.enable_gc;
  config.gc_interval_ms = 5;
  config.checkpoint_interval_ms = v.checkpoint_interval_ms;
  config.log_segment_size = v.log_segment_size;

  testing::TempDb db(config);
  Table* t = db->CreateTable("t");
  Index* pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());

  FastRandom rng(3);
  constexpr int kKeys = 300;
  std::vector<std::string> latest(kKeys);
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < kKeys; ++k) {
      const std::string key = "k" + std::to_string(k);
      const std::string value =
          "r" + std::to_string(round) + "-" + std::to_string(rng.Next() % 1000);
      Transaction txn(db.get(), CcScheme::kSi);
      Oid oid = 0;
      Status s = txn.Insert(t, pk, key, value, &oid);
      if (s.IsKeyExists()) {
        ASSERT_TRUE(txn.GetOid(pk, key, &oid).ok());
        ASSERT_TRUE(txn.Update(t, oid, value).ok());
      } else {
        ASSERT_TRUE(s.ok());
      }
      ASSERT_TRUE(txn.Commit().ok());
      latest[k] = value;
    }
  }
  if (!v.synchronous_commit) {
    db->log().WaitForDurable(db->log().CurrentOffset());
  }
  db.ShutDown();
  db.Restart(config);
  t = db->CreateTable("t");
  pk = db->CreateIndex(t, "t_pk");
  ASSERT_TRUE(db->Open().ok());
  ASSERT_TRUE(db->Recover().ok());
  for (int k = 0; k < kKeys; ++k) {
    Transaction txn(db.get(), CcScheme::kSi);
    Slice val;
    ASSERT_TRUE(txn.Get(pk, "k" + std::to_string(k), &val).ok()) << k;
    EXPECT_EQ(val.ToString(), latest[k]) << k;
    EXPECT_TRUE(txn.Commit().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, EngineConfigTest,
    ::testing::Values(
        EngineVariant{"defaults", false, true, 0, 64ull << 20},
        EngineVariant{"sync_commit", true, true, 0, 64ull << 20},
        EngineVariant{"no_gc", false, false, 0, 64ull << 20},
        EngineVariant{"chk_daemon", false, true, 25, 64ull << 20},
        EngineVariant{"sync_chk_daemon", true, true, 25, 64ull << 20},
        EngineVariant{"tiny_segments", true, true, 0, 1 << 15}),
    [](const ::testing::TestParamInfo<EngineVariant>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace ermia
