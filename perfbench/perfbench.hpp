// Shared pieces of the repository benchmark: options, the result report,
// arrival schedules, order statistics, and the bench-side span recorder.
//
// The benchmark drives the system only through its public entry points.
// Everything here lives on the benchmark's side of that boundary.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace dchag::serve {
class Engine;
}

namespace dchag::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Sleeps until `t`, spinning for the last stretch so an open-loop sender
/// hits its schedule to a few microseconds rather than a scheduler tick.
void wait_until(Clock::time_point t);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Offered load of the nominal and overload phases (requests/s).
  double nominal_rps = 0.0;
  double overload_rps = 0.0;
  /// Where traces and scratch files (the ingress checkpoint) go.
  std::string out_dir = ".";
};

/// Phase lengths shared by the serving workloads: a discarded warm-up,
/// then the nominal phase (3/4 of the measured time), then the overload
/// phase (the remaining 1/4).
struct Phases {
  double warmup_s = 1.5;
  double nominal_s = 0.0;
  double overload_s = 0.0;
  explicit Phases(double seconds)
      : nominal_s(seconds * 0.75), overload_s(seconds * 0.25) {}
};

enum class Phase : std::uint8_t { kWarmup, kNominal, kOverload };

struct Arrival {
  double t_ms = 0.0;  ///< scheduled send, relative to the schedule start
  Phase phase = Phase::kWarmup;
  std::uint32_t pick = 0;  ///< seeded choice (pool sample, subset, ...)
};

enum class Pattern { kPoisson, kOnOff };

/// Seeded open-loop arrival schedule over warm-up + nominal + overload.
/// kOnOff sends at 3x the mean rate for 100 ms, then stays silent for
/// 200 ms, so its mean rate is the phase rate.
[[nodiscard]] std::vector<Arrival> make_schedule(Pattern pattern,
                                                 const Phases& phases,
                                                 double nominal_rps,
                                                 double overload_rps,
                                                 std::uint64_t seed);

/// Saturated throughput (1/s): of the completions (times in ms) between
/// `from_ms` and `to_ms`, the median over consecutive blocks of `block`
/// completions of block size / block duration. A median of blocks, rather
/// than one count over the whole span, keeps a short stall of the shared
/// machine from moving the number.
[[nodiscard]] double saturated_rate(std::vector<double> done_ms,
                                    double from_ms, double to_ms,
                                    std::size_t block = 100);

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// FNV-1a over the bytes of `t`: output checks compare predictions bit
/// for bit without keeping every checked prediction alive through a run.
[[nodiscard]] std::uint64_t fingerprint(const tensor::Tensor& t);

/// Peak resident set of this process in MB (ru_maxrss).
[[nodiscard]] double peak_rss_mb();
/// Largest peak resident set among reaped child processes, in MB.
[[nodiscard]] double peak_child_rss_mb();

/// What one run produces: named metrics with units, output checks, the
/// recorded context, and the attempted / failed operation counts.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void context(const std::string& key, const std::string& value);
  void context(const std::string& key, double value);
  void check(bool ok, const std::string& what);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool outputs_ok() const;
  [[nodiscard]] std::string to_json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> context_;  ///< values already JSON
  std::vector<std::pair<bool, std::string>> checks_;
};

// ---------------------------------------------------------------------------
// Bench-side tracing
// ---------------------------------------------------------------------------

struct Span {
  const char* name = nullptr;  ///< string literal
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;      ///< 0 = root
  std::uint64_t request_id = 0;  ///< 0 = not tied to one request
  std::uint32_t items = 0;       ///< e.g. the batch size of a forward
  std::uint32_t tid = 0;
};

/// Spans recorded into preallocated per-thread buffers (no locks on the
/// recording path; a full buffer drops and counts). Written once, at the
/// end of the run, as Chrome trace-event JSON that Perfetto opens.
///
/// `enabled()` is the on/off switch recording sites consult through
/// tracing(): the traced run alternates on and off windows so the same
/// run measures the tracing overhead.
class Tracer {
 public:
  explicit Tracer(std::size_t spans_per_thread);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records [t0, t1] on the calling thread; returns the span id (0 when
  /// the thread's buffer is full).
  std::uint64_t record(const char* name, Clock::time_point t0,
                       Clock::time_point t1, std::uint64_t parent = 0,
                       std::uint64_t request_id = 0, std::uint32_t items = 0,
                       std::uint64_t id = 0);

  /// The id a request's root span takes when recorded with it, so spans
  /// recorded earlier on another thread can already name it as parent.
  [[nodiscard]] static std::uint64_t root_id(std::uint64_t request_id) {
    return (std::uint64_t{1} << 63) | request_id;
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Every recorded span, all threads. Call after recording threads end.
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::uint64_t dropped() const;
  /// Writes {"traceEvents": [...]} to `path`; returns false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::size_t used = 0;
    std::uint64_t dropped = 0;
    std::uint32_t tid = 0;
  };
  Buffer& local();

  std::size_t capacity_;
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;  ///< guards buffers_ (registration only)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// The tracer of a --trace run; null in an untraced run, so every
/// recording site costs one branch when tracing is off.
extern Tracer* g_tracer;

[[nodiscard]] inline bool tracing() {
  return g_tracer != nullptr && g_tracer->enabled();
}

/// Tracing alternates on/off in windows of this length; overhead is the
/// ratio of the primary latency in on windows to that in off windows.
inline constexpr double kTraceWindowMs = 1000.0;
[[nodiscard]] inline bool trace_window_on(double t_ms) {
  return static_cast<std::int64_t>(t_ms / kTraceWindowMs) % 2 == 0;
}

// ---------------------------------------------------------------------------
// Workloads (one per process) and shared layer probes
// ---------------------------------------------------------------------------

void run_serve_poisson(const Options& opt, Report& report);
void run_serve_subset_burst(const Options& opt, Report& report);
void run_ingress_poisson(const Options& opt, Report& report);
void run_train_dchag(const Options& opt, Report& report);

/// Layer probes on a warmed single-device serving model: tokenizer,
/// aggregator, front-end and Engine::run at batch 1 and 8, under the
/// calling thread's kernel context. Adds the model.* metrics and
/// tensor.bytes_per_sample.
void probe_local_model(const serve::Engine& engine, Report& report);

/// Median wall time in ms of each probe, timed in round-robin blocks for
/// `rounds` rounds after an untimed one: a slow stretch of the shared
/// machine then lands on every probe alike, so their differences and
/// ratios hold.
[[nodiscard]] std::vector<double> time_probes(
    int rounds, const std::vector<std::function<void()>>& probes);

/// Fig. 6 modeled vs measured: front-end share of the forward at 16, 64
/// and 128 bands, from probes of the serving model family beside
/// hw::FlopModel's split. Reported, not gated.
void probe_frontend_fraction(Report& report);

}  // namespace dchag::perfbench
