// Strict parsing of the worker's command line: a ModelSpec round-trips
// through serialize()/parse(), and every malformed spec or crash point is
// rejected with a dchag::Error that names the offending text instead of
// being half-read (std::stoll accepted "6abc" as 6) or defaulted.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "ingress_test_util.hpp"

namespace dchag::ingress {
namespace {

void expect_rejected(const std::string& text, const std::string& offending) {
  try {
    (void)ModelSpec::parse(text);
    ADD_FAILURE() << "accepted '" << text << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(offending), std::string::npos)
        << "error for '" << text << "' does not name '" << offending
        << "': " << e.what();
  }
}

TEST(WorkerArgs, ModelSpecRoundTrips) {
  const std::vector<ModelSpec> specs{
      {"tiny", 4, 2},
      {"tiny", 1, 1},
      {"base", 500, 16},
      {"tiny", std::numeric_limits<tensor::Index>::max(), 1}};
  for (const ModelSpec& spec : specs) {
    const std::string text = spec.serialize();
    const ModelSpec back = ModelSpec::parse(text);
    EXPECT_EQ(back.preset, spec.preset) << text;
    EXPECT_EQ(back.channels, spec.channels) << text;
    EXPECT_EQ(back.units, spec.units) << text;
    EXPECT_EQ(back.serialize(), text);
  }
}

TEST(WorkerArgs, ModelSpecRejectsTrailingGarbage) {
  expect_rejected("tiny:6abc:2", "6abc");
  expect_rejected("tiny:6:2x", "2x");
  expect_rejected("tiny:6:2:9", "2:9");
  expect_rejected("tiny: 6:2", " 6");
  expect_rejected("tiny:+6:2", "+6");
  expect_rejected("tiny:0x6:2", "0x6");
}

TEST(WorkerArgs, ModelSpecRejectsMissingAndEmptyFields) {
  expect_rejected("", "''");
  expect_rejected("tiny", "tiny");
  expect_rejected("tiny:6", "tiny:6");
  expect_rejected(":6:2", ":6:2");
  expect_rejected("tiny::2", "tiny::2");
  expect_rejected("tiny:6:", "tiny:6:");
}

TEST(WorkerArgs, ModelSpecRejectsZeroAndNegativeValues) {
  expect_rejected("tiny:0:2", "tiny:0:2");
  expect_rejected("tiny:6:0", "tiny:6:0");
  expect_rejected("tiny:-6:2", "-6");
  expect_rejected("tiny:6:-1", "-1");
}

TEST(WorkerArgs, ModelSpecRejectsOverflow) {
  expect_rejected("tiny:9223372036854775808:2", "9223372036854775808");
  expect_rejected("tiny:6:99999999999999999999", "99999999999999999999");
}

TEST(WorkerArgs, BadArgumentsFailBeforeTouchingTheRing) {
  // Parsing happens before the ring is opened, so a worker handed a bad
  // spec or crash point exits 1 with the offending text, whatever the
  // ring name.
  for (const char* crash :
       {"3x", "x", "", "-1", "1.5", "18446744073709551616"}) {
    const testutil::WorkerRun run =
        testutil::run_worker_main({"no-such-ring", "tiny:4:2", "", crash});
    EXPECT_EQ(run.code, 1) << "crash-after '" << crash << "'";
    EXPECT_NE(run.err.find("crash-after: '" + std::string(crash) + "'"),
              std::string::npos)
        << run.err;
  }
  const testutil::WorkerRun run =
      testutil::run_worker_main({"no-such-ring", "tiny:6abc:2", "", "0"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("6abc"), std::string::npos) << run.err;
}

}  // namespace
}  // namespace dchag::ingress
