// The one execution-configuration surface for the whole system.
//
// runtime::Context is an immutable value that owns everything that used
// to be scattered across tensor::KernelConfig, comm::CommConfig,
// DchagOptions, ServerConfig, LoopConfig, and SpmdEngineConfig:
//
//   * kernel backend + per-fan-out lane cap (kernels always fan out on
//     the process-wide tensor::ThreadPool::global()),
//   * comm mode + forward pipeline depth,
//   * the fault-injection plan engines install on their World,
//   * a Tracing/metrics sink every subsystem can emit into.
//
// Contexts are built with the fluent ContextBuilder, read from the
// environment exactly once through Context::from_env(), and overridden
// with the RAII runtime::Scope — the single override stack. from_env() is
// the only reader of DCHAG_* variables in the tree except one: the
// ingress dispatcher reads the deployment path $DCHAG_ING_WORKER to find
// its worker binary.
//
// Precedence, weakest to strongest:
//
//   built-in defaults  <  Context::from_env() (initialises the process
//   default)  <  an explicit Context argument handed to a subsystem  <
//   the innermost runtime::Scope active on the executing thread.
//
// Scopes cross thread boundaries by construction: ThreadPool workers,
// AsyncCommunicator's progress thread, serve::Server workers, and
// SpmdEngine rank threads all inherit the submitting thread's effective
// context, so the old "a scope set on the caller silently does not reach
// worker threads" footgun cannot be written anymore.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dchag::comm {
class FaultPlan;
}

namespace dchag::runtime {

// ---------------------------------------------------------------------------
// Configuration atoms (canonical homes; tensor/comm alias these).
// ---------------------------------------------------------------------------

enum class KernelBackend { kNaive, kBlocked, kParallel };

struct KernelConfig {
  KernelBackend backend = KernelBackend::kParallel;
  /// Max lanes a single parallel_for may occupy (caller included).
  /// 0 = whole pool. Does not resize the process pool.
  int threads = 0;
};

enum class CommMode { kSync, kAsync };

struct CommConfig {
  CommMode mode = CommMode::kSync;
  /// D-CHAG forward software-pipeline depth: batch micro-chunks, one
  /// double-buffered AllGather each; 1 = one chunk, one gather. The
  /// forward clamps it to [1, batch].
  int pipeline_chunks = 1;
};

[[nodiscard]] const char* to_string(KernelBackend b);
[[nodiscard]] const char* to_string(CommMode m);
/// "naive" | "blocked" | "parallel" (case-insensitive); throws on else.
[[nodiscard]] KernelBackend parse_backend(const std::string& name);
/// "sync" | "async" (case-insensitive); throws on anything else.
[[nodiscard]] CommMode parse_comm_mode(const std::string& name);

// ---------------------------------------------------------------------------
// Tracing: the metrics sink slot every subsystem emits into.
// ---------------------------------------------------------------------------

struct TraceEvent {
  std::string_view key;  ///< e.g. "serve.batch", "comm.async.op.bytes"
  double value = 0.0;
};

/// Implementations must be thread-safe: events arrive from rank threads,
/// serve workers, pool workers, and comm progress threads.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceEvent& event) = 0;
};

class ContextBuilder;

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

class Context {
 public:
  /// Built-in defaults: parallel kernels over the whole process pool,
  /// sync comm with one forward chunk, no faults, no tracing.
  Context() = default;

  [[nodiscard]] const KernelConfig& kernels() const { return kernels_; }
  [[nodiscard]] const CommConfig& comm() const { return comm_; }
  [[nodiscard]] const std::shared_ptr<const comm::FaultPlan>& fault_plan()
      const {
    return fault_plan_;
  }
  [[nodiscard]] const std::shared_ptr<TraceSink>& tracing() const {
    return tracing_;
  }
  /// The calling thread's effective context: the process default overlaid
  /// with every active runtime::Scope (innermost field wins).
  [[nodiscard]] static Context current();

  /// *this overlaid with the calling thread's active Scopes — how a
  /// subsystem resolves an explicit Context argument at the point of use
  /// (a Scope outranks the argument; see the precedence ladder above).
  [[nodiscard]] Context effective() const;

  /// effective() of `base` when pinned, else current(): the resolution
  /// every consumer with an optional explicit-Context parameter applies.
  [[nodiscard]] static Context effective_or_current(
      const std::optional<Context>& base);

  /// Process default (env-initialised via from_env() on first access).
  [[nodiscard]] static Context process_default();
  /// Replaces the process default (not thread-local Scopes). Runs env
  /// initialisation first so a later first read cannot clobber this.
  static void set_process_default(const Context& ctx);

  /// One environment entry; from_env()'s test seam takes a synthetic
  /// list so tests never mutate the real (thread-unsafe) environment.
  struct EnvEntry {
    std::string name;
    std::string value;
  };

  /// Every problem from_env found, plus the one-shot diagnostic that
  /// aggregates them (empty when the environment parsed cleanly).
  struct EnvReport {
    std::vector<std::string> issues;
    [[nodiscard]] bool ok() const { return issues.empty(); }
    /// All issues joined into the single "dchag: ..." diagnostic line.
    [[nodiscard]] std::string summary() const;
  };

  /// THE env entry point. Reads DCHAG_KERNEL, DCHAG_THREADS, DCHAG_COMM,
  /// and DCHAG_COMM_CHUNKS (values case-insensitive; empty = unset), and
  /// audits every other DCHAG_* variable as unknown. Never throws on bad
  /// input: invalid values fall back to defaults and all problems are
  /// reported in ONE diagnostic — to `report` when given, else once to
  /// stderr.
  [[nodiscard]] static Context from_env(EnvReport* report = nullptr);
  /// Test seam: parse a synthetic environment instead of ::environ.
  [[nodiscard]] static Context from_env(const std::vector<EnvEntry>& env,
                                        EnvReport* report);

  /// Inverse of from_env() for the env-expressible fields (kernel
  /// backend, threads, comm mode, pipeline chunks): entries a parent
  /// exports into a child process so the child's from_env()
  /// reconstructs this context. Process-local fields (fault plan, trace
  /// sink) do not survive exec and are not exported.
  [[nodiscard]] std::vector<EnvEntry> to_env() const;

  /// Fluent copy-and-modify: Context::current().to_builder().comm_mode(...)
  [[nodiscard]] ContextBuilder to_builder() const;

 private:
  friend class ContextBuilder;

  KernelConfig kernels_{};
  CommConfig comm_{};
  std::shared_ptr<const comm::FaultPlan> fault_plan_;
  std::shared_ptr<TraceSink> tracing_;
};

// ---------------------------------------------------------------------------
// ContextBuilder
// ---------------------------------------------------------------------------

class ContextBuilder {
 public:
  /// Starts from built-in defaults.
  ContextBuilder() = default;
  /// Starts from an existing context (what Context::to_builder returns).
  explicit ContextBuilder(Context base) : ctx_(std::move(base)) {}

  ContextBuilder& kernels(KernelConfig cfg) {
    ctx_.kernels_ = cfg;
    return *this;
  }
  ContextBuilder& kernel_backend(KernelBackend backend) {
    ctx_.kernels_.backend = backend;
    return *this;
  }
  ContextBuilder& threads(int threads) {
    ctx_.kernels_.threads = threads;
    return *this;
  }
  ContextBuilder& comm(CommConfig cfg) {
    ctx_.comm_ = cfg;
    return *this;
  }
  ContextBuilder& comm_mode(CommMode mode) {
    ctx_.comm_.mode = mode;
    return *this;
  }
  ContextBuilder& pipeline_chunks(int chunks) {
    ctx_.comm_.pipeline_chunks = chunks;
    return *this;
  }
  ContextBuilder& fault_plan(std::shared_ptr<const comm::FaultPlan> plan) {
    ctx_.fault_plan_ = std::move(plan);
    return *this;
  }
  ContextBuilder& tracing(std::shared_ptr<TraceSink> sink) {
    ctx_.tracing_ = std::move(sink);
    return *this;
  }

  [[nodiscard]] Context build() const { return ctx_; }

 private:
  Context ctx_;
};

inline ContextBuilder Context::to_builder() const {
  return ContextBuilder(*this);
}

// ---------------------------------------------------------------------------
// Scope: the single RAII override stack.
// ---------------------------------------------------------------------------

/// Partial override: only the engaged fields shadow the surrounding
/// configuration: a kernels-only patch leaves an explicit Context's comm
/// choice intact instead of silently resetting it.
struct ContextPatch {
  std::optional<KernelConfig> kernels;
  std::optional<CommConfig> comm;
  std::optional<std::shared_ptr<const comm::FaultPlan>> fault_plan;
  std::optional<std::shared_ptr<TraceSink>> tracing;

  [[nodiscard]] static ContextPatch with_kernels(KernelConfig cfg) {
    ContextPatch p;
    p.kernels = cfg;
    return p;
  }
  [[nodiscard]] static ContextPatch with_comm(CommConfig cfg) {
    ContextPatch p;
    p.comm = cfg;
    return p;
  }
};

/// Thread-local RAII override, innermost wins. Nestable; destruction
/// restores exactly the surrounding state. Worker-crossing subsystems
/// (ThreadPool, AsyncCommunicator, serve::Server, SpmdEngine) install a
/// Scope of the submitter's effective context on their worker threads,
/// so overrides follow the work instead of stopping at thread edges.
class Scope {
 public:
  /// Overrides every field with `ctx`.
  explicit Scope(const Context& ctx);
  /// Overrides only the fields the patch engages.
  explicit Scope(const ContextPatch& patch);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ContextPatch saved_;  ///< previous override values of the fields we set
  bool set_kernels_ = false;
  bool set_comm_ = false;
  bool set_fault_ = false;
  bool set_tracing_ = false;
};

// ---------------------------------------------------------------------------
// Hot-path reads (no shared_ptr traffic on the common path).
// ---------------------------------------------------------------------------

/// Effective kernel config for the calling thread: innermost Scope that
/// set kernels, else the process default. This is the per-op dispatch
/// read — a thread-local probe plus one relaxed atomic load.
[[nodiscard]] KernelConfig active_kernel_config();

/// Effective comm config for the calling thread.
[[nodiscard]] CommConfig active_comm_config();

/// Emits through the calling thread's effective sink. Cheap when no
/// sink could observe this thread (a thread-local probe plus one
/// relaxed atomic load, no shared_ptr traffic) — call freely from per-op
/// and per-batch paths.
void trace_here(std::string_view key, double value);

/// Emits through `ctx`'s sink, if any.
void trace(const Context& ctx, std::string_view key, double value);

namespace detail {
/// Bounded integer parse shared by from_env consumers: returns
/// `fallback` unless `text` is a bare integer in [lo, hi].
[[nodiscard]] std::optional<int> parse_bounded_int(const std::string& text,
                                                   int lo, int hi);
}  // namespace detail

}  // namespace dchag::runtime
