// Serving metrics: latency percentiles, throughput, queue depth, and
// per-stage timing. One Metrics instance per Server, shared by all worker
// threads behind a mutex — recording is O(1) per event; percentiles sort a
// copy on read (summary()), which is assumed rare relative to traffic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "tensor/check.hpp"

namespace dchag::serve {

class Metrics {
 public:
  struct Snapshot {
    std::uint64_t requests = 0;  ///< responses delivered
    std::uint64_t batches = 0;   ///< forwards executed
    std::uint64_t failed = 0;    ///< requests completed with an exception
    double mean_batch_size = 0.0;
    double p50_ms = 0.0;  ///< end-to-end request latency percentiles
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double mean_queue_ms = 0.0;    ///< submit -> batch assembly
    double mean_forward_ms = 0.0;  ///< model forward per batch
    double requests_per_s = 0.0;   ///< over the recording window
    std::uint64_t max_queue_depth = 0;
    std::uint64_t recoveries = 0;  ///< rank failures healed (respawn done)
    double mean_recovery_ms = 0.0;  ///< failure detection -> heal ready
    std::uint64_t degraded_responses = 0;  ///< answers served from a
                                           ///< survivor channel subset
    std::uint64_t forward_allocations = 0;  ///< heap buffer allocations on
                                            ///< the forward path, summed
    std::uint64_t last_forward_allocations = 0;  ///< most recent batch; the
                                                 ///< steady-state-zero gauge

    [[nodiscard]] std::string to_string() const;
    /// /metrics-style exposition lines ("dchag_serve_<name> <value>",
    /// percentiles as quantile-labelled gauges) — what the ingress tier
    /// serves for kMetricsQuery.
    [[nodiscard]] std::string to_exposition() const;
  };

  void record_request(double total_ms, double queue_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    ++requests_;
    latencies_ms_.push_back(total_ms);
    queue_ms_sum_ += queue_ms;
  }

  /// `allocations` is the forward's heap-buffer count on the executing
  /// thread (tensor::plan::thread_buffer_allocations delta) — non-zero
  /// only during warm-up when the engine serves under a memory plan.
  void record_batch(std::uint64_t size, double forward_ms,
                    std::uint64_t allocations = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    ++batches_;
    batched_requests_ += size;
    forward_ms_sum_ += forward_ms;
    forward_allocations_ += allocations;
    last_forward_allocations_ = allocations;
  }

  void record_failure() {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
  }

  /// One completed elastic recovery: a failed rank was respawned and the
  /// world is back at full channel width. `recovery_ms` spans failure
  /// detection to heal-ready (degraded serving continues throughout).
  void record_recovery(double recovery_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    ++recoveries_;
    recovery_ms_sum_ += recovery_ms;
  }

  /// An answer served from the surviving channel subset of a degraded
  /// world (correct for those channels, narrower than requested inputs).
  void record_degraded_response() {
    std::lock_guard<std::mutex> lock(mu_);
    ++degraded_responses_;
  }

  void observe_queue_depth(std::uint64_t depth) {
    std::lock_guard<std::mutex> lock(mu_);
    max_queue_depth_ = std::max(max_queue_depth_, depth);
  }

  /// Wall-clock window for requests_per_s; set once serving starts and
  /// once it drains (idempotent: the window is [first_mark, last_mark]).
  void mark_window(double now_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    if (window_start_ms_ < 0.0) window_start_ms_ = now_ms;
    window_end_ms_ = now_ms;
  }

  [[nodiscard]] Snapshot summary() const {
    std::lock_guard<std::mutex> lock(mu_);
    Snapshot s;
    s.requests = requests_;
    s.batches = batches_;
    s.failed = failed_;
    s.max_queue_depth = max_queue_depth_;
    s.recoveries = recoveries_;
    s.degraded_responses = degraded_responses_;
    s.forward_allocations = forward_allocations_;
    s.last_forward_allocations = last_forward_allocations_;
    if (recoveries_ > 0)
      s.mean_recovery_ms = recovery_ms_sum_ / static_cast<double>(recoveries_);
    if (batches_ > 0) {
      s.mean_batch_size = static_cast<double>(batched_requests_) /
                          static_cast<double>(batches_);
      s.mean_forward_ms = forward_ms_sum_ / static_cast<double>(batches_);
    }
    if (requests_ > 0) {
      s.mean_queue_ms = queue_ms_sum_ / static_cast<double>(requests_);
      std::vector<double> sorted = latencies_ms_;
      std::sort(sorted.begin(), sorted.end());
      s.p50_ms = percentile(sorted, 0.50);
      s.p95_ms = percentile(sorted, 0.95);
      s.p99_ms = percentile(sorted, 0.99);
    }
    const double window_ms = window_end_ms_ - window_start_ms_;
    if (requests_ > 0 && window_ms > 0.0) {
      s.requests_per_s = static_cast<double>(requests_) / (window_ms / 1e3);
    }
    return s;
  }

 private:
  /// Nearest-rank percentile on a sorted sample.
  static double percentile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const auto n = static_cast<double>(sorted.size());
    auto idx = static_cast<std::size_t>(q * (n - 1.0) + 0.5);
    idx = std::min(idx, sorted.size() - 1);
    return sorted[idx];
  }

  mutable std::mutex mu_;
  std::uint64_t requests_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t batched_requests_ = 0;
  std::uint64_t max_queue_depth_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t degraded_responses_ = 0;
  std::uint64_t forward_allocations_ = 0;
  std::uint64_t last_forward_allocations_ = 0;
  double recovery_ms_sum_ = 0.0;
  double queue_ms_sum_ = 0.0;
  double forward_ms_sum_ = 0.0;
  double window_start_ms_ = -1.0;
  double window_end_ms_ = -1.0;
  std::vector<double> latencies_ms_;
};

}  // namespace dchag::serve
