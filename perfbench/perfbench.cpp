#include "perfbench.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <sstream>
#include <thread>

namespace dchag::perfbench {

Tracer* g_tracer = nullptr;

void wait_until(Clock::time_point t) {
  // The kernel may defer a sleeper's wake-up by the thread's timer slack
  // (50 us by default); with none, a short spin suffices, and the sender
  // leaves the cores to the system it measures.
  thread_local const bool precise = ::prctl(PR_SET_TIMERSLACK, 1UL) == 0;
  const auto spin = std::chrono::microseconds(precise ? 20 : 100);
  if (t - Clock::now() > spin) std::this_thread::sleep_until(t - spin);
  while (Clock::now() < t) {
  }
}

std::vector<Arrival> make_schedule(Pattern pattern, const Phases& phases,
                                   double nominal_rps, double overload_rps,
                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Arrival> out;
  struct Window {
    Phase phase;
    double start_ms, end_ms, rps;
  };
  const double w = phases.warmup_s * 1e3;
  const double n = phases.nominal_s * 1e3;
  const double o = phases.overload_s * 1e3;
  const Window windows[] = {{Phase::kWarmup, 0.0, w, nominal_rps},
                            {Phase::kNominal, w, w + n, nominal_rps},
                            {Phase::kOverload, w + n, w + n + o, overload_rps}};
  constexpr double kOnMs = 100.0;
  constexpr double kPeriodMs = 300.0;
  for (const Window& win : windows) {
    // On/off traffic is a Poisson process at 3x the rate, played only
    // during the on part of each period: the mean rate stays `rps`.
    const double rate_per_ms =
        (pattern == Pattern::kOnOff ? 3.0 : 1.0) * win.rps / 1e3;
    std::exponential_distribution<double> gap(rate_per_ms);
    double tau = 0.0;  // time along the sending (on) axis
    for (;;) {
      tau += gap(rng);
      double t = win.start_ms + tau;
      if (pattern == Pattern::kOnOff) {
        const double period = std::floor(tau / kOnMs);
        t = win.start_ms + period * kPeriodMs + (tau - period * kOnMs);
      }
      if (t >= win.end_ms) break;
      out.push_back({t, win.phase, static_cast<std::uint32_t>(rng())});
    }
  }
  return out;
}

double saturated_rate(std::vector<double> done_ms, double from_ms,
                      double to_ms, std::size_t block) {
  std::erase_if(done_ms, [&](double t) { return t < from_ms || t > to_ms; });
  std::sort(done_ms.begin(), done_ms.end());
  std::vector<double> rates;
  for (std::size_t i = 0; i + block < done_ms.size(); i += block) {
    const double span = done_ms[i + block] - done_ms[i];
    if (span > 0.0) rates.push_back(static_cast<double>(block) * 1e3 / span);
  }
  return median(std::move(rates));
}

std::vector<double> time_probes(
    int rounds, const std::vector<std::function<void()>>& probes) {
  // Each probe runs in short blocks whose first call is untimed: it
  // brings the probe's buffers back into cache, as back-to-back requests
  // find them.
  constexpr int kTimedPerBlock = 3;
  std::vector<std::vector<double>> ms(probes.size());
  for (int round = -1; round < rounds; ++round) {
    for (std::size_t p = 0; p < probes.size(); ++p) {
      probes[p]();
      for (int k = 0; k < kTimedPerBlock; ++k) {
        const auto t0 = Clock::now();
        probes[p]();
        if (round >= 0) ms[p].push_back(ms_between(t0, Clock::now()));
      }
    }
  }
  std::vector<double> out;
  for (auto& m : ms) out.push_back(median(std::move(m)));
  return out;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::llround(q * static_cast<double>(v.size() - 1)));
  return v[std::min(idx, v.size() - 1)];
}

std::uint64_t fingerprint(const tensor::Tensor& t) {
  const auto* p = reinterpret_cast<const unsigned char*>(t.data());
  const std::size_t n = static_cast<std::size_t>(t.numel()) * sizeof(float);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

double peak_child_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::context(const std::string& key, const std::string& value) {
  context_[key] = json_string(value);
}

void Report::context(const std::string& key, double value) {
  context_[key] = json_number(value);
}

void Report::check(bool ok, const std::string& what) {
  checks_.emplace_back(ok, what);
  std::fprintf(stderr, "[%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
}

bool Report::outputs_ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const auto& c) { return c.first; });
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"outputs_ok\": " << (outputs_ok() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    os << (i ? ", " : "") << "{\"ok\": "
       << (checks_[i].first ? "true" : "false")
       << ", \"what\": " << json_string(checks_[i].second) << "}";
  }
  os << "], \"context\": {";
  bool first = true;
  for (const auto& [k, v] : context_) {
    os << (first ? "" : ", ") << json_string(k) << ": " << v;
    first = false;
  }
  os << "}, \"metrics\": {";
  first = true;
  for (const auto& [k, m] : metrics_) {
    os << (first ? "" : ", ") << json_string(k)
       << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(std::size_t spans_per_thread) : capacity_(spans_per_thread) {}

Tracer::Buffer& Tracer::local() {
  thread_local Tracer* owner = nullptr;
  thread_local Buffer* buf = nullptr;
  if (owner != this) {
    auto fresh = std::make_unique<Buffer>();
    fresh->spans.resize(capacity_);
    std::lock_guard<std::mutex> lock(mu_);
    fresh->tid = static_cast<std::uint32_t>(buffers_.size() + 1);
    buf = fresh.get();
    buffers_.push_back(std::move(fresh));
    owner = this;
  }
  return *buf;
}

std::uint64_t Tracer::record(const char* name, Clock::time_point t0,
                             Clock::time_point t1, std::uint64_t parent,
                             std::uint64_t request_id, std::uint32_t items,
                             std::uint64_t id) {
  Buffer& b = local();
  if (b.used == b.spans.size()) {
    ++b.dropped;
    return 0;
  }
  Span& s = b.spans[b.used++];
  s.name = name;
  s.t0_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                t0.time_since_epoch())
                .count();
  s.t1_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                t1.time_since_epoch())
                .count();
  s.id = id != 0 ? id : (static_cast<std::uint64_t>(b.tid) << 40) | b.used;
  s.parent = parent;
  s.request_id = request_id;
  s.items = items;
  s.tid = b.tid;
  return s.id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_)
    out.insert(out.end(), b->spans.begin(),
               b->spans.begin() + static_cast<std::ptrdiff_t>(b->used));
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped;
  return n;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::int64_t origin = 0;
  if (!all.empty()) {
    origin = std::min_element(all.begin(), all.end(),
                              [](const Span& a, const Span& b) {
                                return a.t0_ns < b.t0_ns;
                              })
                 ->t0_ns;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"dchag\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, "
                 "\"request_id\": %llu, \"items\": %u}}%s\n",
                 s.name, static_cast<double>(s.t0_ns - origin) / 1e3,
                 static_cast<double>(s.t1_ns - s.t0_ns) / 1e3, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id), s.items,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace dchag::perfbench
