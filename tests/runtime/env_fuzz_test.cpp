// Seeded mutation fuzzer for Context::from_env, the one reader of the
// DCHAG_* environment. Each case is a synthetic environment of a few
// entries whose names are known variables, truncations of them, case
// variants, unknown DCHAG_* names, the ingress namespace or foreign
// names, and whose values are valid tokens, truncated or case-mangled
// tokens, signed, overflowing or out-of-range integers, padded values,
// random bytes and empty strings. For every case:
//
//   * from_env never throws;
//   * every rejected value (and every unknown name) appears in
//     report.issues, and nothing else does;
//   * the result is in range (threads in [0, 4096], chunks in [1, 4096])
//     and equals what an independent reading of the variables predicts;
//   * from_env(ctx.to_env()) reproduces the kernel and comm fields.
//
// The seed and case count are fixed, so a failure reproduces from the
// printed case index; the run takes well under a second in Release.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "runtime/context.hpp"

namespace dchag::runtime {
namespace {

using Env = std::vector<Context::EnvEntry>;

constexpr std::uint64_t kSeed = 20261017;
constexpr int kCases = 20000;

const std::vector<std::string> kKnown = {"DCHAG_KERNEL", "DCHAG_THREADS",
                                         "DCHAG_COMM", "DCHAG_COMM_CHUNKS"};

std::string ascii_lower(std::string s) {
  for (char& c : s)
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  return s;
}

bool is_c_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// The integer a value denotes, read as strtol does (leading whitespace,
/// an optional sign, then decimal digits to the end), if it lies in
/// [lo, hi].
std::optional<int> expected_int(const std::string& text, int lo, int hi) {
  std::size_t i = 0;
  while (i < text.size() && is_c_space(text[i])) ++i;
  bool negative = false;
  if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
    negative = text[i] == '-';
    ++i;
  }
  if (i == text.size()) return std::nullopt;
  long long v = 0;
  for (; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return std::nullopt;
    v = std::min(v * 10 + (text[i] - '0'), 1LL << 40);  // saturate
  }
  if (negative) v = -v;
  if (v < lo || v > hi) return std::nullopt;
  return static_cast<int>(v);
}

std::optional<KernelBackend> expected_backend(const std::string& value) {
  const std::string v = ascii_lower(value);
  if (v == "naive") return KernelBackend::kNaive;
  if (v == "blocked") return KernelBackend::kBlocked;
  if (v == "parallel") return KernelBackend::kParallel;
  return std::nullopt;
}

std::optional<CommMode> expected_mode(const std::string& value) {
  const std::string v = ascii_lower(value);
  if (v == "sync") return CommMode::kSync;
  if (v == "async") return CommMode::kAsync;
  return std::nullopt;
}

/// What from_env must return for `env`, with the issue each rejected
/// entry must raise (a substring of one report.issues line).
struct Expected {
  KernelConfig kernels;
  CommConfig comm;
  std::vector<std::string> issues;
};

Expected predict(const Env& env) {
  Expected out;
  bool chunks_set = false;
  for (const Context::EnvEntry& e : env) {
    if (e.name.rfind("DCHAG_", 0) != 0 || e.value.empty()) continue;
    if (e.name.rfind("DCHAG_ING_", 0) == 0) continue;
    const std::string rejected = e.name + "='" + e.value + "'";
    if (e.name == "DCHAG_KERNEL") {
      if (const auto b = expected_backend(e.value))
        out.kernels.backend = *b;
      else
        out.issues.push_back(rejected);
    } else if (e.name == "DCHAG_THREADS") {
      if (const auto t = expected_int(e.value, 0, 4096))
        out.kernels.threads = *t;
      else
        out.issues.push_back(rejected);
    } else if (e.name == "DCHAG_COMM") {
      if (const auto m = expected_mode(e.value))
        out.comm.mode = *m;
      else
        out.issues.push_back(rejected);
    } else if (e.name == "DCHAG_COMM_CHUNKS") {
      if (const auto c = expected_int(e.value, 1, 4096)) {
        out.comm.pipeline_chunks = *c;
        chunks_set = true;
      } else {
        out.issues.push_back(rejected);
      }
    } else {
      out.issues.push_back("unknown variable " + e.name);
    }
  }
  if (!chunks_set)
    out.comm.pipeline_chunks = out.comm.mode == CommMode::kAsync ? 4 : 1;
  return out;
}

class EnvMutator {
 public:
  explicit EnvMutator(std::uint64_t seed) : rng_(seed) {}

  Env next() {
    Env env;
    const int entries = pick(0, 6);
    for (int i = 0; i < entries; ++i) env.push_back({name(), value()});
    return env;
  }

 private:
  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  template <typename T>
  const T& one_of(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(pick(0, static_cast<int>(v.size()) - 1))];
  }

  std::string flip_case(std::string s) {
    for (char& c : s) {
      if (pick(0, 1) == 0) continue;
      if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
      else if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    return s;
  }
  std::string truncate(const std::string& s) {
    return s.substr(0, static_cast<std::size_t>(
                           pick(0, static_cast<int>(s.size()))));
  }
  std::string random_bytes() {
    // Environment strings cannot hold NUL, so neither do these.
    std::string s(static_cast<std::size_t>(pick(1, 8)), ' ');
    for (char& c : s) c = static_cast<char>(pick(1, 255));
    return s;
  }

  std::string name() {
    switch (pick(0, 9)) {
      case 0: return truncate(one_of(kKnown));
      case 1: return flip_case(one_of(kKnown));
      case 2: return one_of(kKnown) + one_of(std::vector<std::string>{
                                           "S", "_", "_X", " "});
      case 3: return "DCHAG_" + random_bytes();
      case 4: return one_of(std::vector<std::string>{
          "DCHAG_ING_WORKER", "DCHAG_ING_", "DCHAG_TURBO", "DCHAG_", "PATH",
          "DCHAG", "XDCHAG_KERNEL"});
      default: return one_of(kKnown);
    }
  }

  std::string integer() {
    switch (pick(0, 5)) {
      case 0: return std::to_string(pick(-5, 5));
      case 1: return std::to_string(pick(4090, 4100));
      case 2: return one_of(std::vector<std::string>{
          "2147483647", "2147483648", "-2147483649", "9223372036854775807",
          "9223372036854775808", "99999999999999999999999", "-0", "+0"});
      default: return std::to_string(pick(0, 5000));
    }
  }

  std::string value() {
    const std::vector<std::string> tokens = {"naive", "blocked", "parallel",
                                             "sync", "async"};
    std::string v;
    switch (pick(0, 11)) {
      case 0: return "";
      case 1: return random_bytes();
      case 2: v = truncate(one_of(tokens)); break;
      case 3: v = flip_case(one_of(tokens)); break;
      case 4:
      case 5:
      case 6: v = integer(); break;
      default: v = one_of(tokens); break;
    }
    switch (pick(0, 7)) {  // occasional sign, padding or suffix
      case 0: return one_of(std::vector<std::string>{"+", "-", "--", "+-"}) +
                     v;
      case 1: return one_of(std::vector<std::string>{" ", "\t", "0"}) + v;
      case 2: return v + one_of(std::vector<std::string>{" ", "x", ".0", "e3"});
      default: return v;
    }
  }

  std::mt19937_64 rng_;
};

std::string describe(const Env& env) {
  std::string out;
  for (const Context::EnvEntry& e : env)
    out += "[" + e.name + "=" + e.value + "] ";
  return out;
}

TEST(EnvFuzz, FromEnvNeverThrowsAndReportsEveryRejection) {
  EnvMutator mutator(kSeed);
  int rejected = 0;
  int accepted = 0;
  for (int i = 0; i < kCases; ++i) {
    const Env env = mutator.next();
    const Expected want = predict(env);
    SCOPED_TRACE("case " + std::to_string(i) + ": " + describe(env));

    Context ctx;
    Context::EnvReport report;
    ASSERT_NO_THROW(ctx = Context::from_env(env, &report));

    // Every rejected value is reported, and nothing else is.
    ASSERT_EQ(report.issues.size(), want.issues.size()) << report.summary();
    for (std::size_t k = 0; k < want.issues.size(); ++k) {
      ASSERT_NE(report.issues[k].find(want.issues[k]), std::string::npos)
          << report.issues[k] << " should report " << want.issues[k];
    }
    rejected += static_cast<int>(want.issues.size());

    // The result is in range and is what the accepted entries say.
    ASSERT_GE(ctx.kernels().threads, 0);
    ASSERT_LE(ctx.kernels().threads, 4096);
    ASSERT_GE(ctx.comm().pipeline_chunks, 1);
    ASSERT_LE(ctx.comm().pipeline_chunks, 4096);
    ASSERT_EQ(ctx.kernels().backend, want.kernels.backend);
    ASSERT_EQ(ctx.kernels().threads, want.kernels.threads);
    ASSERT_EQ(ctx.comm().mode, want.comm.mode);
    ASSERT_EQ(ctx.comm().pipeline_chunks, want.comm.pipeline_chunks);
    if (report.ok() && !env.empty()) ++accepted;

    // to_env is the exact inverse for the env-expressible fields.
    Context::EnvReport back_report;
    const Context back = Context::from_env(ctx.to_env(), &back_report);
    ASSERT_TRUE(back_report.ok()) << back_report.summary();
    ASSERT_EQ(back.kernels().backend, ctx.kernels().backend);
    ASSERT_EQ(back.kernels().threads, ctx.kernels().threads);
    ASSERT_EQ(back.comm().mode, ctx.comm().mode);
    ASSERT_EQ(back.comm().pipeline_chunks, ctx.comm().pipeline_chunks);
  }
  // The mutator must exercise both sides of the parser.
  EXPECT_GT(rejected, kCases / 4);
  EXPECT_GT(accepted, kCases / 20);
}

}  // namespace
}  // namespace dchag::runtime
