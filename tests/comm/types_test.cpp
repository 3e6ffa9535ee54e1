#include <gtest/gtest.h>

#include "comm/types.hpp"

namespace dchag::comm {
namespace {

TEST(CommStats, RecordAndTotals) {
  CommStats s;
  s.record(CollectiveKind::kAllReduce, 100);
  s.record(CollectiveKind::kAllReduce, 50);
  s.record(CollectiveKind::kBroadcast, 10);
  EXPECT_EQ(s.calls_of(CollectiveKind::kAllReduce), 2u);
  EXPECT_EQ(s.bytes_of(CollectiveKind::kAllReduce), 150u);
  EXPECT_EQ(s.total_calls(), 3u);
  EXPECT_EQ(s.total_payload_bytes(), 160u);
}

TEST(CommStats, KindNames) {
  EXPECT_STREQ(to_string(CollectiveKind::kAllReduce), "AllReduce");
  EXPECT_STREQ(to_string(CollectiveKind::kReduceScatter), "ReduceScatter");
}

}  // namespace
}  // namespace dchag::comm
