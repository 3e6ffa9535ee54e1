// The unified execution context: builder round trips, the one env entry
// point (valid / empty / garbage / mixed-case / unknown variables, all
// reported in a single diagnostic), and the override precedence ladder
// (built-in defaults < from_env-initialised process default < explicit
// Context argument < innermost runtime::Scope, nested and per-field).
#include "runtime/context.hpp"

#include <gtest/gtest.h>

#include "comm/fault.hpp"
#include "tensor/kernel_config.hpp"

namespace dchag::runtime {
namespace {

using Env = std::vector<Context::EnvEntry>;

/// Restores the process default on scope exit so tests that poke it
/// can't leak into the rest of the binary.
class ProcessDefaultGuard {
 public:
  ProcessDefaultGuard() : saved_(Context::process_default()) {}
  ~ProcessDefaultGuard() { Context::set_process_default(saved_); }

 private:
  Context saved_;
};

TEST(ContextBuilder, BuildsAndRoundTripsEveryField) {
  auto plan = comm::make_fault_plan(comm::FaultSpec{}, 2);
  const Context ctx = ContextBuilder()
                          .kernel_backend(KernelBackend::kBlocked)
                          .threads(3)
                          .comm_mode(CommMode::kAsync)
                          .pipeline_chunks(6)
                          .fault_plan(plan)
                          .build();
  EXPECT_EQ(ctx.kernels().backend, KernelBackend::kBlocked);
  EXPECT_EQ(ctx.kernels().threads, 3);
  EXPECT_EQ(ctx.comm().mode, CommMode::kAsync);
  EXPECT_EQ(ctx.comm().pipeline_chunks, 6);
  EXPECT_EQ(ctx.fault_plan().get(), plan.get());

  // to_builder copies, then modifies only what the builder touches.
  const Context tweaked =
      ctx.to_builder().comm_mode(CommMode::kSync).build();
  EXPECT_EQ(tweaked.comm().mode, CommMode::kSync);
  EXPECT_EQ(tweaked.comm().pipeline_chunks, 6);
  EXPECT_EQ(tweaked.kernels().backend, KernelBackend::kBlocked);
  EXPECT_EQ(tweaked.fault_plan().get(), plan.get());
}

TEST(ContextFromEnv, EmptyEnvironmentYieldsBuiltInDefaults) {
  Context::EnvReport report;
  const Context ctx = Context::from_env(Env{}, &report);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.summary(), "");
  EXPECT_EQ(ctx.kernels().backend, KernelBackend::kParallel);
  EXPECT_EQ(ctx.kernels().threads, 0);
  EXPECT_EQ(ctx.comm().mode, CommMode::kSync);
  EXPECT_EQ(ctx.comm().pipeline_chunks, 1);
}

TEST(ContextFromEnv, ParsesKnownVariablesCaseInsensitively) {
  Context::EnvReport report;
  const Context ctx = Context::from_env(
      Env{{"DCHAG_KERNEL", "Blocked"},
          {"DCHAG_THREADS", "8"},
          {"DCHAG_COMM", "ASYNC"},
          {"DCHAG_COMM_CHUNKS", "7"}},
      &report);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(ctx.kernels().backend, KernelBackend::kBlocked);
  EXPECT_EQ(ctx.kernels().threads, 8);
  EXPECT_EQ(ctx.comm().mode, CommMode::kAsync);
  EXPECT_EQ(ctx.comm().pipeline_chunks, 7);
}

TEST(ContextFromEnv, AsyncDefaultsToUsefulPipelineDepth) {
  Context::EnvReport report;
  const Context ctx =
      Context::from_env(Env{{"DCHAG_COMM", "async"}}, &report);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(ctx.comm().pipeline_chunks, 4);
}

TEST(ContextFromEnv, EmptyValuesMeanUnset) {
  Context::EnvReport report;
  const Context ctx = Context::from_env(
      Env{{"DCHAG_KERNEL", ""}, {"DCHAG_COMM", ""}, {"DCHAG_THREADS", ""}},
      &report);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(ctx.kernels().backend, KernelBackend::kParallel);
  EXPECT_EQ(ctx.comm().mode, CommMode::kSync);
}

TEST(ContextFromEnv, GarbageAndUnknownsAllLandInOneDiagnostic) {
  Context::EnvReport report;
  const Context ctx = Context::from_env(
      Env{{"DCHAG_KERNEL", "simd"},
          {"DCHAG_THREADS", "lots"},
          {"DCHAG_COMM", "maybe"},
          {"DCHAG_COMM_CHUNKS", "0"},
          {"DCHAG_TURBO", "1"},
          {"NOT_OURS", "ignored"}},
      &report);
  // Every problem is reported...
  EXPECT_EQ(report.issues.size(), 5u);
  const std::string d = report.summary();
  EXPECT_NE(d.find("DCHAG_KERNEL='simd'"), std::string::npos) << d;
  EXPECT_NE(d.find("DCHAG_THREADS='lots'"), std::string::npos) << d;
  EXPECT_NE(d.find("DCHAG_COMM='maybe'"), std::string::npos) << d;
  EXPECT_NE(d.find("DCHAG_COMM_CHUNKS='0'"), std::string::npos) << d;
  EXPECT_NE(d.find("unknown variable DCHAG_TURBO"), std::string::npos) << d;
  EXPECT_EQ(d.find("NOT_OURS"), std::string::npos) << d;
  // ...and in ONE diagnostic line, not a warning per variable.
  EXPECT_EQ(d.find('\n'), std::string::npos) << d;
  // Bad values degrade to defaults instead of faulting.
  EXPECT_EQ(ctx.kernels().backend, KernelBackend::kParallel);
  EXPECT_EQ(ctx.kernels().threads, 0);
  EXPECT_EQ(ctx.comm().mode, CommMode::kSync);
  EXPECT_EQ(ctx.comm().pipeline_chunks, 1);
}

TEST(ContextFromEnv, IngressNamespacePassesThroughWithoutDiagnostics) {
  // DCHAG_ING_* belongs to the ingress tier (the worker binary path);
  // from_env must neither consume nor complain about it.
  Context::EnvReport report;
  const Context ctx = Context::from_env(
      Env{{"DCHAG_ING_WORKER", "bin/dchag_ingress_worker"},
          {"DCHAG_KERNEL", "blocked"}},
      &report);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(ctx.kernels().backend, KernelBackend::kBlocked);
}

TEST(ContextToEnv, RoundTripsThroughFromEnv) {
  // to_env() is the cross-process hand-off: a child's from_env() on the
  // exported entries must reconstruct the env-expressible fields exactly.
  const Context original = ContextBuilder()
                               .kernel_backend(KernelBackend::kBlocked)
                               .threads(3)
                               .comm_mode(CommMode::kAsync)
                               .pipeline_chunks(6)
                               .build();
  Context::EnvReport report;
  const Context back = Context::from_env(original.to_env(), &report);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(back.kernels().backend, KernelBackend::kBlocked);
  EXPECT_EQ(back.kernels().threads, 3);
  EXPECT_EQ(back.comm().mode, CommMode::kAsync);
  EXPECT_EQ(back.comm().pipeline_chunks, 6);
}

TEST(ContextToEnv, DefaultsRoundTripToo) {
  // threads=0 ("whole pool") and pipeline_chunks=1 sit at parse-range
  // edges; the inverse must express them in-range, not drop them.
  Context::EnvReport report;
  const Context back = Context::from_env(Context().to_env(), &report);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(back.kernels().backend, KernelBackend::kParallel);
  EXPECT_EQ(back.kernels().threads, 0);
  EXPECT_EQ(back.comm().mode, CommMode::kSync);
  EXPECT_EQ(back.comm().pipeline_chunks, 1);
}

TEST(ContextFromEnv, OutOfRangeIntegersRejected) {
  Context::EnvReport report;
  const Context ctx = Context::from_env(
      Env{{"DCHAG_THREADS", "5000"}, {"DCHAG_COMM_CHUNKS", "1e3"}},
      &report);
  EXPECT_EQ(report.issues.size(), 2u) << report.summary();
  EXPECT_EQ(ctx.kernels().threads, 0);
  EXPECT_EQ(ctx.comm().pipeline_chunks, 1);
}

TEST(ContextPrecedence, ExplicitArgumentBeatsProcessDefault) {
  ProcessDefaultGuard guard;
  Context::set_process_default(
      ContextBuilder().kernel_backend(KernelBackend::kParallel).build());
  const Context explicit_ctx =
      ContextBuilder().kernel_backend(KernelBackend::kNaive).build();
  // No scopes active: the explicit context resolves to itself.
  EXPECT_EQ(explicit_ctx.effective().kernels().backend,
            KernelBackend::kNaive);
  // While ambient reads still see the process default.
  EXPECT_EQ(Context::current().kernels().backend, KernelBackend::kParallel);
}

TEST(ContextPrecedence, ScopeBeatsExplicitArgumentPerField) {
  const Context explicit_ctx = ContextBuilder()
                                   .kernel_backend(KernelBackend::kNaive)
                                   .comm_mode(CommMode::kAsync)
                                   .pipeline_chunks(3)
                                   .build();
  Scope scope(ContextPatch::with_kernels({KernelBackend::kBlocked, 2}));
  const Context eff = explicit_ctx.effective();
  // The scope's field wins over the explicit argument...
  EXPECT_EQ(eff.kernels().backend, KernelBackend::kBlocked);
  EXPECT_EQ(eff.kernels().threads, 2);
  // ...but fields the patch does not engage keep the argument's values.
  EXPECT_EQ(eff.comm().mode, CommMode::kAsync);
  EXPECT_EQ(eff.comm().pipeline_chunks, 3);
}

TEST(ContextPrecedence, NestedScopesInnermostWinsAndRestores) {
  const KernelBackend before = active_kernel_config().backend;
  {
    Scope outer(ContextPatch::with_kernels({KernelBackend::kNaive, 2}));
    EXPECT_EQ(active_kernel_config().backend, KernelBackend::kNaive);
    EXPECT_EQ(active_kernel_config().threads, 2);
    {
      Scope inner(ContextPatch::with_comm({CommMode::kAsync, 5}));
      // Different field: both overrides visible at once.
      EXPECT_EQ(active_kernel_config().backend, KernelBackend::kNaive);
      EXPECT_EQ(active_comm_config().mode, CommMode::kAsync);
      {
        Scope innermost(
            ContextPatch::with_kernels({KernelBackend::kBlocked, 0}));
        EXPECT_EQ(active_kernel_config().backend, KernelBackend::kBlocked);
        EXPECT_EQ(active_comm_config().mode, CommMode::kAsync);
      }
      EXPECT_EQ(active_kernel_config().backend, KernelBackend::kNaive);
    }
    EXPECT_EQ(active_comm_config().mode, Context::current().comm().mode);
  }
  EXPECT_EQ(active_kernel_config().backend, before);
}

TEST(ContextPrecedence, FullContextScopeOverridesEveryField) {
  auto plan = comm::make_fault_plan(comm::FaultSpec{}, 2);
  const Context pinned = ContextBuilder()
                             .kernel_backend(KernelBackend::kNaive)
                             .comm_mode(CommMode::kAsync)
                             .fault_plan(plan)
                             .build();
  Scope scope(pinned);
  const Context cur = Context::current();
  EXPECT_EQ(cur.kernels().backend, KernelBackend::kNaive);
  EXPECT_EQ(cur.comm().mode, CommMode::kAsync);
  EXPECT_EQ(cur.fault_plan().get(), plan.get());
}

TEST(ContextPrecedence, EffectiveOrCurrentResolvesPinnedAndAmbient) {
  // Unpinned: tracks the ambient context.
  Scope scope(ContextPatch::with_kernels({KernelBackend::kBlocked, 0}));
  EXPECT_EQ(Context::effective_or_current(std::nullopt).kernels().backend,
            KernelBackend::kBlocked);
  // Pinned: base fields survive where no scope overrides them.
  const Context pinned = ContextBuilder().pipeline_chunks(9).build();
  const Context eff = Context::effective_or_current(pinned);
  EXPECT_EQ(eff.comm().pipeline_chunks, 9);
  EXPECT_EQ(eff.kernels().backend, KernelBackend::kBlocked);
}

TEST(ContextProcessDefault, SetProcessDefaultFeedsAmbientReads) {
  ProcessDefaultGuard guard;
  Context::set_process_default(ContextBuilder()
                                   .kernel_backend(KernelBackend::kBlocked)
                                   .pipeline_chunks(2)
                                   .build());
  EXPECT_EQ(active_kernel_config().backend, KernelBackend::kBlocked);
  EXPECT_EQ(active_comm_config().pipeline_chunks, 2);
  EXPECT_EQ(Context::current().kernels().backend, KernelBackend::kBlocked);
}

TEST(ContextParsers, RoundTripAndRejection) {
  EXPECT_EQ(parse_backend("naive"), KernelBackend::kNaive);
  EXPECT_EQ(parse_backend("PARALLEL"), KernelBackend::kParallel);
  EXPECT_THROW(parse_backend("simd"), Error);
  EXPECT_EQ(parse_comm_mode("Async"), CommMode::kAsync);
  EXPECT_THROW(parse_comm_mode("eager"), Error);
  EXPECT_STREQ(to_string(KernelBackend::kBlocked), "blocked");
  EXPECT_STREQ(to_string(CommMode::kAsync), "async");
}

}  // namespace
}  // namespace dchag::runtime
