#include "serve/metrics.hpp"

#include <sstream>

namespace dchag::serve {

std::string Metrics::Snapshot::to_string() const {
  std::ostringstream os;
  os << "requests=" << requests << " batches=" << batches
     << " failed=" << failed << " mean_batch=" << mean_batch_size
     << " p50=" << p50_ms << "ms p95=" << p95_ms << "ms p99=" << p99_ms
     << "ms queue=" << mean_queue_ms << "ms forward=" << mean_forward_ms
     << "ms rate=" << requests_per_s << "req/s max_depth="
     << max_queue_depth << " recoveries=" << recoveries << " recovery="
     << mean_recovery_ms << "ms degraded=" << degraded_responses
     << " fwd_allocs=" << forward_allocations
     << " last_fwd_allocs=" << last_forward_allocations;
  return os.str();
}

std::string Metrics::Snapshot::to_exposition() const {
  std::ostringstream os;
  os << "dchag_serve_requests_total " << requests << "\n"
     << "dchag_serve_batches_total " << batches << "\n"
     << "dchag_serve_failed_total " << failed << "\n"
     << "dchag_serve_latency_ms{quantile=\"0.5\"} " << p50_ms << "\n"
     << "dchag_serve_latency_ms{quantile=\"0.95\"} " << p95_ms << "\n"
     << "dchag_serve_latency_ms{quantile=\"0.99\"} " << p99_ms << "\n"
     << "dchag_serve_mean_queue_ms " << mean_queue_ms << "\n"
     << "dchag_serve_mean_forward_ms " << mean_forward_ms << "\n"
     << "dchag_serve_requests_per_second " << requests_per_s << "\n"
     << "dchag_serve_max_queue_depth " << max_queue_depth << "\n"
     << "dchag_serve_recoveries_total " << recoveries << "\n"
     << "dchag_serve_mean_recovery_ms " << mean_recovery_ms << "\n"
     << "dchag_serve_degraded_responses_total " << degraded_responses << "\n"
     << "dchag_serve_forward_allocations_total " << forward_allocations
     << "\n"
     << "dchag_serve_last_forward_allocations " << last_forward_allocations
     << "\n";
  return os.str();
}

}  // namespace dchag::serve
