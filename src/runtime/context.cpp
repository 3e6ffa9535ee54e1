#include "runtime/context.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "tensor/check.hpp"

extern char** environ;

namespace dchag::runtime {

namespace {

// ---------------------------------------------------------------------------
// The one override stack: per-field innermost values, maintained
// incrementally by Scope push/pop so the hot reads stay O(1).
// ---------------------------------------------------------------------------

struct ThreadState {
  std::optional<KernelConfig> kernels;
  std::optional<CommConfig> comm;
  std::optional<std::shared_ptr<const comm::FaultPlan>> fault_plan;
  std::optional<std::shared_ptr<TraceSink>> tracing;
};

thread_local ThreadState t_state;

// Process default. The full Context lives behind an atomic shared_ptr
// (readers never take a lock — parallel_for snapshots it per fan-out);
// the trivially-copyable fields are additionally mirrored in lock-free
// 8-byte atomics because active_kernel_config() sits on every op
// dispatch and must not even pay shared_ptr refcount traffic.
std::once_flag g_env_once;
std::atomic<KernelConfig> g_kernels_mirror{KernelConfig{}};
std::atomic<CommConfig> g_comm_mirror{CommConfig{}};
// Tracks (not stickily) whether the CURRENT process default carries a
// sink; a thread's own scope sink is visible through t_state, so no
// cross-thread flag is needed for scopes.
std::atomic<bool> g_default_has_tracing{false};

std::atomic<std::shared_ptr<const Context>>& default_slot() {
  static std::atomic<std::shared_ptr<const Context>> slot{
      std::make_shared<const Context>()};
  return slot;
}

void store_default(const Context& ctx) {
  g_kernels_mirror.store(ctx.kernels(), std::memory_order_relaxed);
  g_comm_mirror.store(ctx.comm(), std::memory_order_relaxed);
  g_default_has_tracing.store(ctx.tracing() != nullptr,
                              std::memory_order_relaxed);
  default_slot().store(std::make_shared<const Context>(ctx),
                       std::memory_order_release);
}

void ensure_env_default() {
  std::call_once(g_env_once, [] { store_default(Context::from_env()); });
}

std::string lowercased(std::string s) {
  for (char& c : s)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Atoms
// ---------------------------------------------------------------------------

const char* to_string(KernelBackend b) {
  switch (b) {
    case KernelBackend::kNaive: return "naive";
    case KernelBackend::kBlocked: return "blocked";
    case KernelBackend::kParallel: return "parallel";
  }
  return "?";
}

const char* to_string(CommMode m) {
  return m == CommMode::kSync ? "sync" : "async";
}

KernelBackend parse_backend(const std::string& name) {
  const std::string n = lowercased(name);
  if (n == "naive") return KernelBackend::kNaive;
  if (n == "blocked") return KernelBackend::kBlocked;
  if (n == "parallel") return KernelBackend::kParallel;
  DCHAG_FAIL("unknown kernel backend '" << name
                                        << "' (want naive|blocked|parallel)");
}

CommMode parse_comm_mode(const std::string& name) {
  const std::string n = lowercased(name);
  if (n == "sync") return CommMode::kSync;
  if (n == "async") return CommMode::kAsync;
  DCHAG_FAIL("unknown comm mode '" << name << "' (want sync|async)");
}

namespace detail {
std::optional<int> parse_bounded_int(const std::string& text, int lo,
                                     int hi) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || parsed < lo || parsed > hi)
    return std::nullopt;
  return static_cast<int>(parsed);
}
}  // namespace detail

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

Context Context::current() { return process_default().effective(); }

Context Context::effective() const {
  Context out = *this;
  if (t_state.kernels) out.kernels_ = *t_state.kernels;
  if (t_state.comm) out.comm_ = *t_state.comm;
  if (t_state.fault_plan) out.fault_plan_ = *t_state.fault_plan;
  if (t_state.tracing) out.tracing_ = *t_state.tracing;
  return out;
}

Context Context::effective_or_current(const std::optional<Context>& base) {
  return base ? base->effective() : current();
}

Context Context::process_default() {
  ensure_env_default();
  return *default_slot().load(std::memory_order_acquire);
}

void Context::set_process_default(const Context& ctx) {
  // Run env init first so a later first process_default() read can't
  // clobber this explicit setting with the environment default.
  ensure_env_default();
  store_default(ctx);
}

std::string Context::EnvReport::summary() const {
  if (issues.empty()) return {};
  std::string out = "dchag: invalid DCHAG_* environment configuration: ";
  for (std::size_t i = 0; i < issues.size(); ++i) {
    if (i != 0) out += "; ";
    out += issues[i];
  }
  return out;
}

Context Context::from_env(const std::vector<EnvEntry>& env,
                          EnvReport* report) {
  EnvReport local;
  KernelConfig kernels;
  CommConfig comm;
  bool chunks_set = false;
  for (const EnvEntry& e : env) {
    if (e.name.rfind("DCHAG_", 0) != 0) continue;
    // An exported-but-empty variable means "unset", matching the
    // pre-Context parsers (and every shell's VAR= idiom).
    if (e.value.empty()) continue;
    if (e.name == "DCHAG_KERNEL") {
      try {
        kernels.backend = parse_backend(e.value);
      } catch (const Error&) {
        local.issues.push_back("DCHAG_KERNEL='" + e.value +
                               "' (want naive|blocked|parallel)");
      }
    } else if (e.name == "DCHAG_THREADS") {
      if (const auto v = detail::parse_bounded_int(e.value, 0, 4096)) {
        kernels.threads = *v;
      } else {
        local.issues.push_back("DCHAG_THREADS='" + e.value +
                               "' (want an integer in [0, 4096])");
      }
    } else if (e.name == "DCHAG_COMM") {
      try {
        comm.mode = parse_comm_mode(e.value);
      } catch (const Error&) {
        local.issues.push_back("DCHAG_COMM='" + e.value +
                               "' (want sync|async)");
      }
    } else if (e.name == "DCHAG_COMM_CHUNKS") {
      if (const auto v = detail::parse_bounded_int(e.value, 1, 4096)) {
        comm.pipeline_chunks = *v;
        chunks_set = true;
      } else {
        local.issues.push_back("DCHAG_COMM_CHUNKS='" + e.value +
                               "' (want an integer in [1, 4096])");
      }
    } else if (e.name.rfind("DCHAG_ING_", 0) == 0) {
      // The ingress tier's namespace (the worker binary path). Owned by
      // src/ingress, not the context — pass through without diagnostics.
      continue;
    } else {
      local.issues.push_back(
          "unknown variable " + e.name +
          " (known: DCHAG_KERNEL, DCHAG_THREADS, DCHAG_COMM, "
          "DCHAG_COMM_CHUNKS; DCHAG_ING_* is the ingress namespace)");
    }
  }
  // Async without pipelining cannot overlap anything; default it to a
  // useful depth while letting DCHAG_COMM_CHUNKS pin either mode's depth.
  if (!chunks_set)
    comm.pipeline_chunks = comm.mode == CommMode::kAsync ? 4 : 1;

  if (report != nullptr) {
    *report = std::move(local);
  } else if (!local.issues.empty()) {
    // One aggregated diagnostic per process, not one line per variable
    // per read: from_env is called once for the process default, but a
    // program may also call it directly.
    static std::once_flag warn_once;
    std::call_once(warn_once, [&] {
      std::fprintf(stderr, "%s\n", local.summary().c_str());
    });
  }
  return ContextBuilder().kernels(kernels).comm(comm).build();
}

std::vector<Context::EnvEntry> Context::to_env() const {
  // The exact inverse of from_env() for the fields it reads: exporting
  // these entries into a child's environment makes from_env() there
  // reconstruct this context's kernel/comm configuration. Process-local
  // fields (fault plan, trace sink) cannot cross an exec
  // boundary and are deliberately absent.
  return {
      EnvEntry{"DCHAG_KERNEL", to_string(kernels_.backend)},
      EnvEntry{"DCHAG_THREADS", std::to_string(kernels_.threads)},
      EnvEntry{"DCHAG_COMM", to_string(comm_.mode)},
      EnvEntry{"DCHAG_COMM_CHUNKS", std::to_string(comm_.pipeline_chunks)},
  };
}

Context Context::from_env(EnvReport* report) {
  std::vector<EnvEntry> env;
  for (char** it = environ; it != nullptr && *it != nullptr; ++it) {
    const std::string entry(*it);
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) continue;
    std::string name = entry.substr(0, eq);
    if (name.rfind("DCHAG_", 0) != 0) continue;
    env.push_back(EnvEntry{std::move(name), entry.substr(eq + 1)});
  }
  return from_env(env, report);
}

// ---------------------------------------------------------------------------
// Scope
// ---------------------------------------------------------------------------

Scope::Scope(const Context& ctx)
    : Scope(ContextPatch{ctx.kernels(), ctx.comm(), ctx.fault_plan(),
                         ctx.tracing()}) {}

Scope::Scope(const ContextPatch& patch) {
  if (patch.kernels) {
    set_kernels_ = true;
    saved_.kernels = t_state.kernels;
    t_state.kernels = *patch.kernels;
  }
  if (patch.comm) {
    set_comm_ = true;
    saved_.comm = t_state.comm;
    t_state.comm = *patch.comm;
  }
  if (patch.fault_plan) {
    set_fault_ = true;
    saved_.fault_plan = t_state.fault_plan;
    t_state.fault_plan = *patch.fault_plan;
  }
  if (patch.tracing) {
    set_tracing_ = true;
    saved_.tracing = t_state.tracing;
    t_state.tracing = *patch.tracing;
  }
}

Scope::~Scope() {
  // saved_.X is engaged with the shadowed override only when this scope
  // set the field; disengaged means "no override was active below us".
  if (set_kernels_) t_state.kernels = saved_.kernels;
  if (set_comm_) t_state.comm = saved_.comm;
  if (set_fault_) t_state.fault_plan = saved_.fault_plan;
  if (set_tracing_) t_state.tracing = saved_.tracing;
}

// ---------------------------------------------------------------------------
// Hot-path reads
// ---------------------------------------------------------------------------

KernelConfig active_kernel_config() {
  if (t_state.kernels) return *t_state.kernels;
  ensure_env_default();
  return g_kernels_mirror.load(std::memory_order_relaxed);
}

CommConfig active_comm_config() {
  if (t_state.comm) return *t_state.comm;
  ensure_env_default();
  return g_comm_mirror.load(std::memory_order_relaxed);
}

void trace_here(std::string_view key, double value) {
  // A thread's effective sink is its innermost scope override (engaged
  // but null = "tracing off here"), else the process default's sink.
  std::shared_ptr<TraceSink> sink;
  if (t_state.tracing) {
    sink = *t_state.tracing;
  } else if (g_default_has_tracing.load(std::memory_order_relaxed)) {
    ensure_env_default();
    sink = default_slot().load(std::memory_order_acquire)->tracing();
  }
  if (sink) sink->record(TraceEvent{key, value});
}

void trace(const Context& ctx, std::string_view key, double value) {
  if (ctx.tracing()) ctx.tracing()->record(TraceEvent{key, value});
}

}  // namespace dchag::runtime
