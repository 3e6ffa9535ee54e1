#include "ingress/dispatcher.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include "tensor/check.hpp"

extern char** environ;

namespace dchag::ingress {

namespace {

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string exe_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

/// Why a model of geometry `model` over `channels` input channels, behind
/// rings of `max_floats` payload floats, cannot serve `req`; empty when
/// it can.
std::string unservable(const InferRequest& req,
                       const model::ModelConfig& model, Index channels,
                       std::uint64_t max_floats) {
  if (static_cast<std::uint64_t>(req.images.numel()) > max_floats)
    return "sample exceeds the ring payload budget";
  const Index h = req.images.dim(1);
  const Index w = req.images.dim(2);
  if (h != model.image_h || w != model.image_w)
    return "image " + std::to_string(h) + "x" + std::to_string(w) +
           " is not the model's " + std::to_string(model.image_h) + "x" +
           std::to_string(model.image_w);
  const std::vector<Index>& ids = req.channels;
  if (ids.empty() && req.images.dim(0) != channels)
    return std::to_string(req.images.dim(0)) +
           " image channels for a full request to a " +
           std::to_string(channels) + "-channel model";
  if (!ids.empty() && static_cast<Index>(ids.size()) != req.images.dim(0))
    return std::to_string(ids.size()) + " channel ids for " +
           std::to_string(req.images.dim(0)) + " image channels";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] < 0 || ids[i] >= channels)
      return "channel id " + std::to_string(ids[i]) + " outside [0, " +
             std::to_string(channels) + ")";
    if (i > 0 && ids[i] <= ids[i - 1])
      return "channel ids must be strictly increasing";
  }
  return {};
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / worker spawning
// ---------------------------------------------------------------------------

std::string Ingress::resolve_worker_exe() const {
  std::vector<std::string> candidates;
  if (!cfg_.worker_exe.empty()) candidates.push_back(cfg_.worker_exe);
  if (const char* env = std::getenv(kEnvWorkerExe);
      env != nullptr && env[0] != '\0')
    candidates.emplace_back(env);
  // Build-tree layout: tests live in build/tests/, examples in
  // build/examples/, benches in build/bench/ — the worker binary is a
  // sibling tree away at build/src/ingress/.
  if (const std::string dir = exe_dir(); !dir.empty()) {
    candidates.push_back(dir + "/dchag_ingress_worker");
    candidates.push_back(dir + "/../src/ingress/dchag_ingress_worker");
    candidates.push_back(dir + "/../../src/ingress/dchag_ingress_worker");
  }
  for (const std::string& c : candidates) {
    if (::access(c.c_str(), X_OK) == 0) return c;
  }
  DCHAG_FAIL(
      "cannot locate the dchag_ingress_worker binary; set "
      "IngressConfig::worker_exe or $DCHAG_ING_WORKER");
}

std::unique_ptr<Ingress::Worker> Ingress::spawn_worker() {
  auto w = std::make_unique<Worker>();
  w->spawn_seq = next_spawn_seq_++;
  const std::string ring_name = make_ring_name();
  w->ring = std::make_unique<ShmRing>(ShmRing::create(ring_name, cfg_.ring));
  w->last_beat_seen = std::chrono::steady_clock::now();

  // Child environment: the parent's, minus every context variable we
  // are about to restate, plus the dispatcher's effective context
  // re-exported through Context::to_env() — the cross-process context
  // hand-off.
  std::vector<std::string> env_store;
  for (char** it = environ; it != nullptr && *it != nullptr; ++it) {
    const std::string entry(*it);
    const auto is = [&entry](const char* name) {
      const std::size_t n = std::strlen(name);
      return entry.compare(0, n, name) == 0 && entry.size() > n &&
             entry[n] == '=';
    };
    if (is("DCHAG_KERNEL") || is("DCHAG_THREADS") || is("DCHAG_COMM") ||
        is("DCHAG_COMM_CHUNKS"))
      continue;
    env_store.push_back(entry);
  }
  for (const runtime::Context::EnvEntry& e : ctx_.to_env())
    env_store.push_back(e.name + "=" + e.value);

  std::vector<char*> envp;
  envp.reserve(env_store.size() + 1);
  for (std::string& s : env_store) envp.push_back(s.data());
  envp.push_back(nullptr);

  // Worker protocol (worker.hpp): <ring> <model-spec> <checkpoint>
  // <crash-after>, where crash-after 0 means never.
  int crash_after = 0;
  for (const CrashSpec& c : cfg_.crash_plan) {
    if (c.spawn_seq == w->spawn_seq) {
      crash_after = c.after_requests;
      break;
    }
  }
  std::vector<std::string> args{worker_exe_, ring_name,
                                cfg_.model.serialize(), cfg_.checkpoint,
                                std::to_string(crash_after)};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, worker_exe_.c_str(), nullptr, nullptr,
                               argv.data(), envp.data());
  if (rc != 0) {
    w->ring->unlink();
    DCHAG_FAIL("posix_spawn(" << worker_exe_
                              << ") failed: " << std::strerror(rc));
  }
  w->pid = pid;
  return w;
}

Ingress::Ingress(IngressConfig cfg, const runtime::Context& ctx)
    : cfg_(std::move(cfg)),
      ctx_(ctx.effective()),
      model_cfg_(cfg_.model.config()) {
  DCHAG_CHECK(cfg_.min_workers >= 1 && cfg_.max_workers >= cfg_.min_workers,
              "Ingress needs 1 <= min_workers <= max_workers");
  DCHAG_CHECK(cfg_.queue_capacity >= 1, "Ingress needs queue_capacity >= 1");
  for (const CrashSpec& c : cfg_.crash_plan)
    DCHAG_CHECK(c.after_requests >= 1, "CrashSpec needs after_requests >= 1");
  worker_exe_ = resolve_worker_exe();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  DCHAG_CHECK(listen_fd_ >= 0, "socket() failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(cfg_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(listen_fd_);
    DCHAG_FAIL("bind(127.0.0.1:" << cfg_.port
                                 << ") failed: " << std::strerror(err));
  }
  DCHAG_CHECK(::listen(listen_fd_, 128) == 0,
              "listen() failed: " << std::strerror(errno));
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < cfg_.min_workers; ++i)
      workers_.push_back(spawn_worker());
    last_busy_ = std::chrono::steady_clock::now();
  }

  accept_thread_ = std::thread([this] { accept_loop(); });
  dispatch_thread_ = std::thread([this] { dispatch_loop(); });
  monitor_thread_ = std::thread([this] { monitor_loop(); });
}

Ingress::~Ingress() { drain(); }

Ingress::Conn::~Conn() { ::close(fd); }

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::size_t Ingress::worker_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& w : workers_)
    if (!w->retiring) ++n;
  return n;
}

std::size_t Ingress::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

bool Ingress::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

Counters::Snapshot Ingress::counters() const {
  std::size_t workers = 0, depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& w : workers_)
      if (!w->retiring) ++workers;
    depth = queue_.size();
  }
  return counters_.snapshot(workers, depth);
}

std::string Ingress::metrics_text() const {
  return metrics_.summary().to_exposition() + counters().to_exposition();
}

// ---------------------------------------------------------------------------
// Listener + connections
// ---------------------------------------------------------------------------

void Ingress::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by drain()
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    counters_.connection();
    auto conn = std::make_shared<Conn>(fd);
    {
      std::lock_guard<std::mutex> lock(mu_);
      conns_.push_back(conn);
    }
    join_finished_connections();
    std::lock_guard<std::mutex> lock(conn_threads_mu_);
    conn_threads_.emplace_back(
        [this, conn] { connection_loop(std::move(conn)); });
  }
}

void Ingress::join_finished_connections() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(conn_threads_mu_);
    for (const std::thread::id id : finished_conn_threads_) {
      auto it = std::find_if(
          conn_threads_.begin(), conn_threads_.end(),
          [id](const std::thread& t) { return t.get_id() == id; });
      finished.push_back(std::move(*it));
      conn_threads_.erase(it);
    }
    finished_conn_threads_.clear();
  }
  // Each of these has left connection_loop; join waits out only its return.
  for (std::thread& t : finished) t.join();
}

void Ingress::send_error(const std::shared_ptr<Conn>& conn, std::uint64_t id,
                         ErrorCode code, const std::string& message) {
  const std::vector<std::uint8_t> payload =
      encode_error(WireError{id, code, message});
  std::lock_guard<std::mutex> lock(conn->write_mu);
  write_frame(conn->fd, MsgType::kError, payload);
}

void Ingress::handle_infer(const std::shared_ptr<Conn>& conn,
                           std::vector<std::uint8_t> payload) {
  InferRequest req;
  try {
    req = decode_infer(payload.data(), payload.size());
  } catch (const IngressError& e) {
    counters_.reject_bad();
    send_error(conn, 0, e.code(), e.what());
    return;
  }
  if (const std::string why =
          unservable(req, model_cfg_, cfg_.model.channels,
                     cfg_.ring.max_payload_floats);
      !why.empty()) {
    counters_.reject_bad();
    send_error(conn, req.id, ErrorCode::kBadRequest, why);
    return;
  }

  // The worker decodes the client's bytes itself; the ring only tags
  // them with the ingress id.
  Job job;
  job.client_id = req.id;
  job.conn = conn;
  job.payload = std::move(payload);
  job.accepted = std::chrono::steady_clock::now();

  // Admission control: typed rejects, never silent drops and never an
  // unbounded queue. Once a request is admitted here it WILL be answered
  // (redispatch survives worker crashes; drain finishes the queue).
  ErrorCode reject;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      counters_.reject_draining();
      reject = ErrorCode::kShuttingDown;
    } else if (queue_.size() >= cfg_.queue_capacity) {
      counters_.reject_saturated();
      reject = ErrorCode::kSaturated;
    } else {
      job.ingress_id = next_ingress_id_++;
      queue_.push_back(std::move(job));
      counters_.accept();
      metrics_.observe_queue_depth(queue_.size());
      metrics_.mark_window(now_ms());
      work_cv_.notify_all();
      return;
    }
  }
  send_error(conn, req.id, reject,
             reject == ErrorCode::kShuttingDown
                 ? "ingress is draining"
                 : "admission queue is full, retry later");
}

void Ingress::connection_loop(std::shared_ptr<Conn> conn) {
  for (;;) {
    std::optional<Frame> frame;
    try {
      frame = read_frame(conn->fd);
    } catch (const IngressError& e) {
      // Framing violations desynchronize the stream; answer and hang up.
      counters_.reject_bad();
      send_error(conn, 0, e.code(), e.what());
      break;
    }
    if (!frame) break;  // EOF
    switch (frame->type) {
      case MsgType::kInfer:
        handle_infer(conn, std::move(frame->payload));
        break;
      case MsgType::kMetricsQuery: {
        const std::string text = metrics_text();
        std::lock_guard<std::mutex> lock(conn->write_mu);
        write_frame(conn->fd, MsgType::kMetricsText,
                    reinterpret_cast<const std::uint8_t*>(text.data()),
                    text.size());
        break;
      }
      case MsgType::kHealthQuery: {
        static constexpr char kOk[] = "ok";
        std::lock_guard<std::mutex> lock(conn->write_mu);
        write_frame(conn->fd, MsgType::kHealthOk,
                    reinterpret_cast<const std::uint8_t*>(kOk), 2);
        break;
      }
      default:
        counters_.reject_bad();
        send_error(conn, 0, ErrorCode::kBadRequest,
                   "unexpected frame type from client");
        break;
    }
  }
  // Forget the connection. The fd stays open for its in-flight responses
  // and closes with the last reference to the Conn; no thread reads it
  // any more. The accept loop joins this thread at its next accept.
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase(conns_, conn);
  }
  std::lock_guard<std::mutex> lock(conn_threads_mu_);
  finished_conn_threads_.push_back(std::this_thread::get_id());
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void Ingress::collect(Worker& w, std::vector<Done>* done) {
  Done d;
  while (w.ring->try_pop_response(&d.answer)) {
    auto it = w.in_flight.find(d.answer.id);
    if (it == w.in_flight.end()) continue;  // stale after redispatch
    d.job = std::move(it->second);
    w.in_flight.erase(it);
    done->push_back(std::move(d));
  }
}

void Ingress::deliver(Done& d) {
  // Count before writing: a client holding its answer sees it counted.
  const double total =
      ms_between(d.job.accepted, std::chrono::steady_clock::now());
  const double queued = ms_between(d.job.accepted, d.job.dispatched);
  metrics_.record_request(total, queued);
  metrics_.record_batch(1, total - queued);
  metrics_.mark_window(now_ms());
  counters_.complete();
  const RingMessage& a = d.answer;
  if (a.type == MsgType::kResult) {
    // The worker echoed the client id it decoded from the client's bytes.
    std::lock_guard<std::mutex> lock(d.job.conn->write_mu);
    write_frame(d.job.conn->fd, MsgType::kResult, a.payload);
    return;
  }
  WireError err{0, ErrorCode::kInternal, "malformed answer from worker"};
  try {
    if (a.type == MsgType::kError)
      err = decode_error(a.payload.data(), a.payload.size());
  } catch (const IngressError&) {
    // Keep the kInternal fallback: the client still gets a typed answer.
  }
  send_error(d.job.conn, d.job.client_id, err.code, err.message);
}

void Ingress::dispatch_loop() {
  for (;;) {
    std::vector<Done> done;
    bool idle_now = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stopped_) return;

      // 1. Collect finished work from every worker's response ring.
      for (auto& w : workers_) collect(*w, &done);

      // 2. Round-robin the admission queue onto workers with ring space.
      while (!queue_.empty() && !workers_.empty()) {
        bool placed = false;
        const std::size_t n = workers_.size();
        for (std::size_t probe = 0; probe < n; ++probe) {
          Worker& w = *workers_[(rr_cursor_ + probe) % n];
          if (w.retiring || w.pid < 0) continue;
          if (w.in_flight.size() >= w.ring->slots()) continue;
          Job& job = queue_.front();
          if (!w.ring->try_push_request(job.ingress_id, MsgType::kInfer,
                                        job.payload))
            continue;
          job.dispatched = std::chrono::steady_clock::now();
          w.in_flight.emplace(job.ingress_id, std::move(job));
          queue_.pop_front();
          rr_cursor_ = static_cast<int>((rr_cursor_ + probe + 1) % n);
          placed = true;
          break;
        }
        if (!placed) break;  // every worker full — backpressure holds
      }

      undelivered_ += done.size();
      std::size_t inflight = 0;
      for (const auto& w : workers_) inflight += w->in_flight.size();
      idle_now = queue_.empty() && inflight == 0 && undelivered_ == 0;

      if (done.empty()) {
        // Response rings have no doorbell (cross-process), so poll:
        // tightly while work is in flight, lazily when idle.
        work_cv_.wait_for(lock, inflight > 0
                                    ? std::chrono::microseconds(100)
                                    : std::chrono::milliseconds(2));
      }
    }
    if (idle_now) drain_cv_.notify_all();

    // 3. Deliver outside the lock: socket writes must not stall dispatch.
    for (Done& d : done) deliver(d);
    if (!done.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      undelivered_ -= done.size();
      if (undelivered_ == 0) drain_cv_.notify_all();
    }
  }
}

// ---------------------------------------------------------------------------
// Health, elasticity, failover
// ---------------------------------------------------------------------------

void Ingress::fail_over(std::unique_ptr<Worker> dead, bool count_restart) {
  // Deliver anything the worker answered before dying (inline: worker
  // death is the rare path), then requeue the rest at the FRONT (their
  // latency budget is already spent).
  std::vector<Done> answered;
  collect(*dead, &answered);
  for (Done& d : answered) deliver(d);

  std::vector<Job> orphans;
  orphans.reserve(dead->in_flight.size());
  for (auto& [id, job] : dead->in_flight) orphans.push_back(std::move(job));
  std::sort(orphans.begin(), orphans.end(),
            [](const Job& a, const Job& b) {
              return a.ingress_id > b.ingress_id;
            });
  for (Job& job : orphans) queue_.push_front(std::move(job));
  if (!orphans.empty()) {
    counters_.redispatch(orphans.size());
    work_cv_.notify_all();
  }
  if (count_restart) counters_.worker_restart();
  dead->ring->unlink();
}

void Ingress::monitor_loop() {
  int target = cfg_.min_workers;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stopped_) return;
      const auto now = std::chrono::steady_clock::now();

      // Reap exits and detect hangs.
      for (std::size_t i = 0; i < workers_.size();) {
        Worker& w = *workers_[i];
        int status = 0;
        const pid_t rc = ::waitpid(w.pid, &status, WNOHANG);
        bool dead = rc == w.pid;
        if (!dead && w.ring->state() == WorkerState::kReady &&
            !w.in_flight.empty()) {
          const std::uint64_t hb = w.ring->heartbeat();
          if (hb != w.last_heartbeat) {
            w.last_heartbeat = hb;
            w.last_beat_seen = now;
          } else if (now - w.last_beat_seen > cfg_.heartbeat_timeout) {
            // Liveness word stalled with work in flight: hung, not dead.
            ::kill(w.pid, SIGKILL);
            ::waitpid(w.pid, &status, 0);
            dead = true;
          }
        }
        if (dead) {
          std::unique_ptr<Worker> gone = std::move(workers_[i]);
          workers_.erase(workers_.begin() + static_cast<std::ptrdiff_t>(i));
          const bool crashed = !gone->retiring;
          const auto t0 = std::chrono::steady_clock::now();
          fail_over(std::move(gone), /*count_restart=*/crashed);
          if (crashed) {
            metrics_.record_recovery(
                ms_between(t0, std::chrono::steady_clock::now()));
          }
        } else {
          ++i;
        }
      }

      // Elastic pool sizing from queue pressure.
      std::size_t inflight = 0;
      for (const auto& w : workers_) inflight += w->in_flight.size();
      const bool busy = !queue_.empty() || inflight > 0;
      if (busy) last_busy_ = now;
      if (!draining_) {
        if (queue_.size() >= cfg_.scale_up_depth &&
            target < cfg_.max_workers) {
          ++target;
          counters_.scale_up();
        } else if (!busy && target > cfg_.min_workers &&
                   now - last_busy_ > cfg_.scale_down_idle) {
          --target;
          counters_.scale_down();
          // Retire the newest non-retiring worker via its control word;
          // it exits cleanly and the reap above forgets it.
          for (auto it = workers_.rbegin(); it != workers_.rend(); ++it) {
            if (!(*it)->retiring) {
              (*it)->retiring = true;
              (*it)->ring->set_control(ControlWord::kDrainStop);
              break;
            }
          }
          last_busy_ = now;  // rate-limit consecutive retirements
        }
      }

      // Heal the pool back to target (also mid-drain: accepted work must
      // still finish even when its worker died during shutdown).
      std::size_t live = 0;
      for (const auto& w : workers_)
        if (!w->retiring) ++live;
      const bool need_workers = !draining_ || busy;
      while (need_workers && live < static_cast<std::size_t>(target)) {
        workers_.push_back(spawn_worker());
        ++live;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// ---------------------------------------------------------------------------
// Graceful shutdown
// ---------------------------------------------------------------------------

void Ingress::drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  // Stop accepting connections; in-flight and queued work keeps going.
  // shutdown() wakes the blocked accept(); the fd closes only after the
  // accept thread is gone, so it never reads a closed or reused number.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;

  // Every ACCEPTED request must be answered before teardown.
  {
    std::unique_lock<std::mutex> lock(mu_);
    drain_cv_.wait(lock, [this] {
      std::size_t inflight = 0;
      for (const auto& w : workers_) inflight += w->in_flight.size();
      if (queue_.empty() && inflight == 0 && undelivered_ == 0) return true;
      work_cv_.notify_all();
      return false;
    });
    stopped_ = true;
    work_cv_.notify_all();
  }
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  if (monitor_thread_.joinable()) monitor_thread_.join();

  // Stop workers through their control word; escalate only if one
  // ignores it past a generous deadline.
  std::vector<std::unique_ptr<Worker>> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    workers.swap(workers_);
  }
  for (auto& w : workers) w->ring->set_control(ControlWord::kDrainStop);
  for (auto& w : workers) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    int status = 0;
    for (;;) {
      const pid_t rc = ::waitpid(w->pid, &status, WNOHANG);
      if (rc == w->pid || rc < 0) break;
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(w->pid, SIGKILL);
        ::waitpid(w->pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    w->ring->unlink();
  }

  // Hang up on every client: shutdown() unblocks the connection threads'
  // recv, and each fd closes with its Conn once those threads are joined.
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) ::shutdown(c->fd, SHUT_RDWR);
  std::vector<std::thread> conn_threads;
  {
    std::lock_guard<std::mutex> lock(conn_threads_mu_);
    conn_threads.swap(conn_threads_);
  }
  for (std::thread& t : conn_threads) t.join();
  metrics_.mark_window(now_ms());
}

}  // namespace dchag::ingress
