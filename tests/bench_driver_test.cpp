// Bench-driver environment parsing: ERMIA_BENCH_THREADS must name real
// thread counts, so a typo fails loudly instead of sweeping zero threads.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench/driver.h"

namespace ermia {
namespace bench {
namespace {

TEST(ParseThreadListTest, AcceptsCommaSeparatedCounts) {
  std::vector<uint32_t> out;
  ASSERT_TRUE(ParseThreadList("1,2,4", &out).ok());
  EXPECT_EQ(out, (std::vector<uint32_t>{1, 2, 4}));
  ASSERT_TRUE(ParseThreadList("8", &out).ok());
  EXPECT_EQ(out, (std::vector<uint32_t>{8}));
  ASSERT_TRUE(ParseThreadList(std::to_string(kMaxThreads), &out).ok());
}

TEST(ParseThreadListTest, RejectsNonNumericZeroEmptyAndHugeEntries) {
  std::vector<uint32_t> out;
  for (const char* bad : {"abc", "4x", "-1", " 2", "0", "1,0", "", "1,,2",
                          "2,", "99999999999"}) {
    const Status s = ParseThreadList(bad, &out);
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument)
        << "'" << bad << "': " << s.ToString();
  }
  EXPECT_FALSE(ParseThreadList(std::to_string(kMaxThreads + 1), &out).ok());
  const Status s = ParseThreadList("2,four", &out);
  EXPECT_NE(s.ToString().find("'four'"), std::string::npos) << s.ToString();
}

TEST(EnvThreadsDeathTest, InvalidListExitsWithTheReason) {
  ::setenv("ERMIA_BENCH_THREADS", "abc", 1);
  EXPECT_EXIT(EnvThreads({4}), ::testing::ExitedWithCode(2),
              "ERMIA_BENCH_THREADS=\"abc\".*'abc'");
  ::unsetenv("ERMIA_BENCH_THREADS");
  EXPECT_EQ(EnvThreads({4}), (std::vector<uint32_t>{4}));
}

}  // namespace
}  // namespace bench
}  // namespace ermia
