#include "common/hash.hpp"

#include <gtest/gtest.h>

namespace evm {
namespace {

// HashName is pinned across platforms and standard libraries; these
// literals are the wire contract. A change here reshuffles every task's
// first worker and every seeded worker kill schedule.
TEST(HashTest, HashNameIsPinned) {
  EXPECT_EQ(HashName("gallery/0"), 13326817655049195246ULL);
  EXPECT_EQ(HashName("evm"), 7820632296573981043ULL);
  EXPECT_NE(HashName("a"), HashName("b"));
}

}  // namespace
}  // namespace evm
