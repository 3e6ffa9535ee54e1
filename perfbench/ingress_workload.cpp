// ingress_poisson: open-loop Poisson load through the network ingress
// tier (TCP -> dispatcher -> shm ring -> worker process), driven only by
// the public wire protocol.
//
// One sender thread writes kInfer frames round-robin over four TCP
// connections on the seeded schedule; one receiver thread poll()s all
// four and timestamps each kResult as it is read. Latency runs from the
// scheduled send to that timestamp.
#include <poll.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <thread>

#include "data/hyperspectral.hpp"
#include "ingress/client.hpp"
#include "ingress/dispatcher.hpp"
#include "perfbench.hpp"
#include "serve/engine.hpp"
#include "train/checkpoint.hpp"

namespace dchag::perfbench {
namespace {

using tensor::Index;
using tensor::Tensor;

constexpr Index kChannels = 8;
constexpr Index kImage = 16;
constexpr std::uint64_t kModelSeed = 11;
constexpr int kWorkers = 2;
constexpr int kConnections = 4;
constexpr std::size_t kPool = 256;
constexpr std::size_t kCheckEvery = 97;
constexpr int kSetups = 25;
/// Deep enough that the overload backlog is queued, never rejected.
constexpr std::size_t kQueueCapacity = 65536;

/// Connected loopback socket; closed on destruction.
class Socket {
 public:
  explicit Socket(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    DCHAG_CHECK(fd_ >= 0, "socket() failed: " << std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const int err = errno;
      ::close(fd_);
      DCHAG_FAIL("connect(127.0.0.1:" << port << ") failed: "
                                      << std::strerror(err));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
};

/// Removes the checkpoint file however the run ends.
struct FileGuard {
  std::string path;
  ~FileGuard() { std::remove(path.c_str()); }
};

/// Mean of a serve::Metrics field over the requests recorded between two
/// snapshots (the fields are running means).
double window_mean(double mean_a, std::uint64_t n_a, double mean_b,
                   std::uint64_t n_b) {
  if (n_b <= n_a) return 0.0;
  return (mean_b * static_cast<double>(n_b) -
          mean_a * static_cast<double>(n_a)) /
         static_cast<double>(n_b - n_a);
}

}  // namespace

void run_ingress_poisson(const Options& opt, Report& report) {
  const ingress::ModelSpec spec{"tiny", kChannels, 2};
  const FileGuard ckpt{opt.out_dir + "/ingress_" + std::to_string(::getpid()) +
                       ".ckpt"};
  {
    auto trained = ingress::build_model(spec, kModelSeed);
    train::save_module(ckpt.path, *trained);
  }
  const runtime::Context ctx =
      runtime::Context::current()
          .to_builder()
          .kernel_backend(runtime::KernelBackend::kBlocked)
          .build();

  data::HyperspectralConfig hc;
  hc.channels = kChannels;
  hc.height = kImage;
  hc.width = kImage;
  const Tensor all = data::HyperspectralGenerator(hc, opt.seed)
                         .sample_batch(static_cast<Index>(kPool));
  std::vector<Tensor> pool;
  for (std::size_t j = 0; j < kPool; ++j)
    pool.push_back(all.slice0(static_cast<Index>(j), 1)
                       .reshape(tensor::Shape{kChannels, kImage, kImage}));

  ingress::IngressConfig cfg;
  cfg.min_workers = kWorkers;
  cfg.max_workers = kWorkers;
  cfg.queue_capacity = kQueueCapacity;
  cfg.checkpoint = ckpt.path;
  cfg.model = spec;
  cfg.worker_exe = DCHAG_PERFBENCH_WORKER;

  // Set-up: spawn the pool and wait until every worker has cold-started
  // from the checkpoint and answered once (dispatch is round-robin, so
  // consecutive requests land on distinct workers).
  std::vector<double> setup_ms;
  std::optional<ingress::Ingress> ing;
  for (int k = 0; k < kSetups; ++k) {
    ing.reset();
    const auto t0 = Clock::now();
    ing.emplace(cfg, ctx);
    ingress::Client first(ing->port());
    for (int w = 0; w < kWorkers; ++w) (void)first.infer(pool[0]);
    setup_ms.push_back(ms_between(t0, Clock::now()));
  }

  std::vector<std::unique_ptr<Socket>> conns;
  for (int c = 0; c < kConnections; ++c)
    conns.push_back(std::make_unique<Socket>(ing->port()));

  const Phases phases(opt.seconds);
  const std::vector<Arrival> arrivals = make_schedule(
      Pattern::kPoisson, phases, opt.nominal_rps, opt.overload_rps, opt.seed);
  const std::size_t n = arrivals.size();
  std::vector<Clock::time_point> send0(n), send1(n), recv(n);
  std::vector<std::uint8_t> answered(n, 0);  // 1 = result, 2 = error
  std::size_t unsent = 0;
  std::vector<std::pair<std::size_t, std::uint64_t>> checked;
  std::string receiver_error;
  const auto start = Clock::now() + std::chrono::milliseconds(50);
  auto at = [&](double t_ms) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(t_ms));
  };

  std::thread receiver([&] {
    std::vector<pollfd> fds;
    for (const auto& c : conns) fds.push_back({c->fd(), POLLIN, 0});
    std::size_t done = 0;
    auto last_progress = Clock::now();
    try {
      while (done < n) {
        const int rc = ::poll(fds.data(), fds.size(), 100);
        if (rc < 0 && errno != EINTR) DCHAG_FAIL("poll failed");
        if (rc <= 0) {
          if (Clock::now() - last_progress > std::chrono::seconds(60))
            DCHAG_FAIL("no response for 60 s (" << done << "/" << n << ")");
          continue;
        }
        for (pollfd& p : fds) {
          if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          std::optional<ingress::Frame> frame = ingress::read_frame(p.fd);
          const auto now = Clock::now();
          DCHAG_CHECK(frame.has_value(), "ingress closed a connection");
          std::uint64_t id = 0;
          bool ok = false;
          Tensor pred;
          if (frame->type == ingress::MsgType::kResult) {
            ingress::InferResult r = ingress::decode_result(
                frame->payload.data(), frame->payload.size());
            id = r.id;
            pred = std::move(r.pred);
            ok = true;
          } else {
            DCHAG_CHECK(frame->type == ingress::MsgType::kError,
                        "unexpected frame type");
            id = ingress::decode_error(frame->payload.data(),
                                       frame->payload.size())
                     .id;
          }
          DCHAG_CHECK(id >= 1 && id <= n && answered[id - 1] == 0,
                      "response with unknown id " << id);
          const std::size_t i = id - 1;
          recv[i] = now;
          answered[i] = ok ? 1 : 2;
          if (ok && i % kCheckEvery == 0)
            checked.emplace_back(i, fingerprint(pred));
          if (g_tracer != nullptr && trace_window_on(arrivals[i].t_ms))
            g_tracer->record("client.request", at(arrivals[i].t_ms), now, 0,
                             id, 0, Tracer::root_id(id));
          ++done;
          last_progress = now;
        }
      }
    } catch (const std::exception& e) {
      receiver_error = e.what();
    }
  });

  // This process's memory is read before the overload phase, whose
  // backlog grows with how far the offered rate outruns this run's
  // capacity, not with the code.
  serve::Metrics::Snapshot nominal_start, nominal_end;
  double rss_mb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = arrivals[i];
    const Phase prev = i == 0 ? Phase::kWarmup : arrivals[i - 1].phase;
    if (a.phase == Phase::kNominal && prev == Phase::kWarmup)
      nominal_start = ing->metrics();
    if (a.phase == Phase::kOverload && prev != Phase::kOverload) {
      nominal_end = ing->metrics();
      rss_mb = peak_rss_mb();
    }
    wait_until(at(a.t_ms));
    if (g_tracer != nullptr) g_tracer->set_enabled(trace_window_on(a.t_ms));
    ingress::InferRequest req;
    req.id = i + 1;
    req.images = pool[a.pick % kPool];
    send0[i] = Clock::now();
    if (!ingress::write_frame(conns[i % kConnections]->fd(),
                              ingress::MsgType::kInfer,
                              ingress::encode_infer(req)))
      ++unsent;
    send1[i] = Clock::now();
    if (tracing())
      g_tracer->record("client.send", send0[i], send1[i],
                       Tracer::root_id(req.id), req.id);
  }
  receiver.join();
  const serve::Metrics::Snapshot final_metrics = ing->metrics();
  const ingress::Counters::Snapshot counters = ing->counters();
  conns.clear();
  ing.reset();  // drains: every worker reaped before RUSAGE_CHILDREN
  if (g_tracer != nullptr) g_tracer->set_enabled(false);

  // ---- output checks against an in-process Engine on the same weights.
  auto reference = ingress::build_model(spec, /*seed=*/1);
  train::load_module(ckpt.path, *reference);
  serve::Engine engine(*reference, ctx);
  std::size_t mismatched = 0;
  for (const auto& [i, fp] : checked) {
    const Tensor& x = pool[arrivals[i].pick % kPool];
    const Tensor pred = engine.run(
        x.reshape(tensor::Shape{1, kChannels, kImage, kImage}), {}, 1.0f);
    if (fingerprint(pred) != fp) ++mismatched;
  }
  std::uint64_t ok = 0;
  for (std::uint8_t a : answered) ok += a == 1 ? 1 : 0;
  report.attempted = n;
  report.failed = n - ok;
  report.check(unsent == 0, std::to_string(n - unsent) + "/" +
                                std::to_string(n) + " request frames written");
  report.check(receiver_error.empty(), "receiver: " + (receiver_error.empty()
                                                           ? std::string("ok")
                                                           : receiver_error));
  report.check(ok == n, std::to_string(ok) + "/" + std::to_string(n) +
                            " requests answered with a result");
  report.check(!checked.empty() && mismatched == 0,
               std::to_string(checked.size() - mismatched) + "/" +
                   std::to_string(checked.size()) +
                   " sampled responses bit-identical to an in-process "
                   "Engine on the same checkpoint");

  // ---- end-to-end
  std::vector<double> lat, lat_on, lat_off, lag, rtt, send_ms, done;
  double sat_from = 1e300, sat_to = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (answered[i] != 1) continue;
    done.push_back(ms_between(start, recv[i]));
    if (arrivals[i].phase == Phase::kWarmup) continue;
    const auto sched = at(arrivals[i].t_ms);
    if (arrivals[i].phase == Phase::kNominal) {
      lag.push_back(ms_between(sched, send0[i]));
      const double l = ms_between(sched, recv[i]);
      lat.push_back(l);
      (trace_window_on(arrivals[i].t_ms) ? lat_on : lat_off).push_back(l);
      rtt.push_back(ms_between(send0[i], recv[i]));
      send_ms.push_back(ms_between(send0[i], send1[i]));
    } else {
      sat_from = std::min(sat_from, ms_between(start, send0[i]));
      sat_to = std::max(sat_to, done.back());
    }
  }
  report.metric("p50_ms", median(lat), "ms");
  report.metric("sat_throughput", saturated_rate(done, sat_from, sat_to),
                "1/s");
  report.metric("setup_s", median(setup_ms) / 1e3, "s");
  // Workers are reaped by now; the largest stands in for each of them.
  report.metric("peak_rss_mb", rss_mb + kWorkers * peak_child_rss_mb(), "MB");

  report.metric("client.sent", static_cast<double>(n), "count");
  report.metric("client.ok", static_cast<double>(ok), "count");
  report.metric("client.failed", static_cast<double>(n - ok), "count");
  report.metric("client.p99_ms", percentile(lat, 0.99), "ms");
  report.metric("client.lag_p99_ms", percentile(lag, 0.99), "ms");
  const double admission =
      window_mean(nominal_start.mean_queue_ms, nominal_start.requests,
                  nominal_end.mean_queue_ms, nominal_end.requests);
  const double dispatch_to_done =
      window_mean(nominal_start.mean_forward_ms, nominal_start.batches,
                  nominal_end.mean_forward_ms, nominal_end.batches);
  report.metric("ingress.rtt_ms.p50", median(rtt), "ms");
  report.metric("ingress.send_ms.p50", median(send_ms), "ms");
  report.metric("ingress.admission_ms", admission, "ms");
  report.metric("ingress.dispatch_to_done_ms", dispatch_to_done, "ms");
  report.metric("ingress.max_queue_depth",
                static_cast<double>(final_metrics.max_queue_depth), "count");
  report.metric("ingress.rejected",
                static_cast<double>(counters.rejected_saturated +
                                    counters.rejected_draining +
                                    counters.rejected_bad),
                "count");
  report.metric("ingress.redispatches",
                static_cast<double>(counters.redispatches), "count");
  report.metric("ingress.worker_restarts",
                static_cast<double>(counters.worker_restarts), "count");

  report.context("ingress_workers", kWorkers);
  report.context("connections", kConnections);
  report.context("queue_capacity", static_cast<double>(kQueueCapacity));
  report.context("kernel_backend", "blocked");
  report.context("model", "tiny 8-channel ForecastModel, Tree2 "
                          "cross-attention, from a checkpoint");

  if (g_tracer == nullptr) return;

  // ---- traced run: the worker's forward, timed in process on the same
  // checkpoint, splits dispatch-to-done into forward and ring transit.
  runtime::Scope scope(ctx);
  const Tensor b1 =
      pool[0].reshape(tensor::Shape{1, kChannels, kImage, kImage});
  const double worker_forward =
      time_probes(60, {[&] { (void)engine.run(b1, {}, 1.0f); }})[0];
  const double rtt_p50 = median(rtt);
  report.metric("ingress.worker_forward_ms", worker_forward, "ms");
  report.metric("ingress.ring_poll_ms", dispatch_to_done - worker_forward,
                "ms");
  report.metric("ingress.socket_ms", rtt_p50 - admission - dispatch_to_done,
                "ms");
  report.metric("op.wait_ms", admission, "ms");
  report.metric("op.compute_ms", worker_forward, "ms");
  report.metric("op.other_ms", rtt_p50 - admission - worker_forward, "ms");
  report.metric("op.batch_size.mean", final_metrics.mean_batch_size, "count");
  report.metric("op.max_queue_depth",
                static_cast<double>(final_metrics.max_queue_depth), "count");
  report.metric("trace.overhead_frac", median(lat_on) / median(lat_off) - 1.0,
                "ratio");
  probe_local_model(engine, report);
  probe_frontend_fraction(report);

  // Layers this workload bypasses (README's bypass matrix). The workers'
  // arenas live in other processes.
  for (const char* name : {"comm.allgather_calls_per_step",
                           "comm.allreduce_calls_per_step",
                           "tensor.arena_fresh"})
    report.metric(name, 0.0, "count");
  report.metric("comm.allgather_bytes_per_step", 0.0, "bytes");
}

}  // namespace dchag::perfbench
