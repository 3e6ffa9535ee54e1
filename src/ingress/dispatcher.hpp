// The ingress dispatcher: the network front door of the serving system.
//
//   clients --TCP--> listener --admission--> bounded queue --dispatch-->
//     per-worker shm request rings --> worker PROCESSES --> response
//     rings --> completion --> client sockets
//
// Process isolation is the point: each worker is a separate OS process
// (posix_spawn of the dchag_ingress_worker binary) whose ring feeds a
// serve::Server, so a crashing forward kills one worker, never the fleet.
// Request execution (batching, errors, no-grad) lives in serve::; the
// dispatcher is transport plus health:
//
//   * admits or type-rejects requests (bounded queue; kSaturated when
//     full, kShuttingDown while draining) — backpressure is explicit,
//     accepted work is never dropped,
//   * round-robins admitted requests onto ready workers' rings,
//   * health-monitors via waitpid + the ring heartbeat word, re-dispatches
//     a dead worker's in-flight requests to survivors (requeued at the
//     FRONT — their latency budget is already spent) and respawns the
//     casualty, mirroring PR 6's survivor/respawn state machine,
//   * scales the pool between min_workers and max_workers from queue
//     pressure,
//   * serves /metrics- and /healthz-style queries from the same socket
//     protocol,
//   * drains on shutdown: every accepted request is answered before the
//     workers are stopped and the shm segments unlinked.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ingress/counters.hpp"
#include "ingress/shm_ring.hpp"
#include "ingress/worker.hpp"
#include "runtime/context.hpp"
#include "serve/metrics.hpp"

namespace dchag::ingress {

/// Deterministic crash injection (the fault-plan idiom of PR 4/6, applied
/// to processes): the `spawn_seq`-th worker ever spawned dies mid-request
/// while serving its `after_requests`-th request. Respawned workers get
/// fresh spawn_seq values, so a plan entry fires at most once.
struct CrashSpec {
  int spawn_seq = 0;
  int after_requests = 1;
};

struct IngressConfig {
  /// TCP port to bind on 127.0.0.1; 0 = ephemeral (read back via port()).
  std::uint16_t port = 0;
  int min_workers = 1;
  int max_workers = 4;
  /// Admission queue bound; submissions beyond it get kSaturated.
  std::size_t queue_capacity = 256;
  /// Per-worker ring geometry (slots bounds per-worker in-flight work).
  RingConfig ring;
  /// Queue depth that triggers a scale-up (when below max_workers).
  std::size_t scale_up_depth = 8;
  /// Continuous idle time after which one worker above min is retired.
  std::chrono::milliseconds scale_down_idle{2000};
  /// A ready worker whose heartbeat stalls this long with work in flight
  /// is declared hung and killed (then respawned like a crash).
  std::chrono::milliseconds heartbeat_timeout{5000};
  /// Checkpoint every worker cold-starts from, and the architecture to
  /// rebuild before loading it.
  std::string checkpoint;
  ModelSpec model;
  /// Worker binary; empty = $DCHAG_ING_WORKER, else a path probed
  /// relative to the current executable (build-tree layout).
  std::string worker_exe;
  /// Seeded worker-crash schedule for the chaos suites.
  std::vector<CrashSpec> crash_plan;
};

class Ingress {
 public:
  /// Binds the listener, spawns min_workers worker processes, and starts
  /// serving. `ctx` (default: the constructing thread's effective
  /// context) is re-exported as DCHAG_* env to every worker it spawns —
  /// the context hand-off across the process boundary.
  explicit Ingress(IngressConfig cfg,
                   const runtime::Context& ctx = runtime::Context::current());
  /// Implies drain().
  ~Ingress();
  Ingress(const Ingress&) = delete;
  Ingress& operator=(const Ingress&) = delete;

  /// Actual bound port (after ephemeral-port resolution).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Graceful shutdown: stop accepting, answer every accepted request,
  /// stop workers via their control word, reap and unlink. Idempotent.
  void drain();

  [[nodiscard]] Counters::Snapshot counters() const;
  [[nodiscard]] serve::Metrics::Snapshot metrics() const {
    return metrics_.summary();
  }
  /// Live worker processes right now.
  [[nodiscard]] std::size_t worker_count() const;
  /// Admission queue depth right now.
  [[nodiscard]] std::size_t queue_depth() const;
  /// True once drain() has begun: from then on every request that
  /// reaches admission is rejected with kShuttingDown.
  [[nodiscard]] bool draining() const;
  /// The full /metrics exposition (serve::Metrics + ingress counters).
  [[nodiscard]] std::string metrics_text() const;

 private:
  /// One client connection. The fd stays open for the Conn's lifetime:
  /// drain() only shuts it down, so a thread blocked reading it never sees
  /// the number closed (and reused) under it.
  struct Conn {
    explicit Conn(int fd) : fd(fd) {}
    ~Conn();
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;
    const int fd;
    std::mutex write_mu;  ///< frames from dispatch + query paths interleave
  };

  /// One admitted request waiting for (or riding on) a worker.
  struct Job {
    std::uint64_t ingress_id = 0;  ///< dispatcher-global ring id
    std::uint64_t client_id = 0;   ///< echoed back on the wire
    std::shared_ptr<Conn> conn;
    std::vector<std::uint8_t> payload;  ///< the client's kInfer payload
    std::chrono::steady_clock::time_point accepted;
    std::chrono::steady_clock::time_point dispatched;  ///< ring push time
  };

  struct Worker {
    int spawn_seq = -1;
    pid_t pid = -1;
    std::unique_ptr<ShmRing> ring;
    std::map<std::uint64_t, Job> in_flight;  ///< by ingress_id
    std::uint64_t last_heartbeat = 0;
    std::chrono::steady_clock::time_point last_beat_seen;
    bool retiring = false;  ///< deliberate scale-down, not a crash
  };

  void accept_loop();
  /// Joins the connection threads whose client hung up.
  void join_finished_connections();
  void connection_loop(std::shared_ptr<Conn> conn);
  void dispatch_loop();
  void monitor_loop();

  /// A worker's answer to one job, popped off its response ring.
  struct Done {
    Job job;
    RingMessage answer;  ///< kResult or kError payload
  };

  void handle_infer(const std::shared_ptr<Conn>& conn,
                    std::vector<std::uint8_t> payload);
  void send_error(const std::shared_ptr<Conn>& conn, std::uint64_t id,
                  ErrorCode code, const std::string& message);
  /// Moves every answered job off `w`'s response ring into `done`.
  void collect(Worker& w, std::vector<Done>* done);
  /// The one delivery path: writes the result (verbatim) or the error to
  /// the job's client, records its latency and counts the completion.
  void deliver(Done& d);

  [[nodiscard]] std::unique_ptr<Worker> spawn_worker();
  /// Requeues a dead worker's in-flight jobs and reaps its segment.
  void fail_over(std::unique_ptr<Worker> dead, bool count_restart);
  [[nodiscard]] std::string resolve_worker_exe() const;

  IngressConfig cfg_;
  runtime::Context ctx_;
  model::ModelConfig model_cfg_;  ///< cfg_.model.config()
  std::string worker_exe_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;

  mutable std::mutex mu_;  ///< guards queue_, workers_, flags, conns_
  std::condition_variable work_cv_;   ///< queue/ring/worker state changed
  std::condition_variable drain_cv_;  ///< fires when accepted work drains
  std::deque<Job> queue_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::shared_ptr<Conn>> conns_;
  bool draining_ = false;
  bool stopped_ = false;
  /// Responses popped off a ring but not yet written to their client
  /// socket; drain() must wait these out before closing connections.
  std::size_t undelivered_ = 0;
  std::uint64_t next_ingress_id_ = 1;
  int next_spawn_seq_ = 0;
  int rr_cursor_ = 0;  ///< round-robin position over workers_
  std::chrono::steady_clock::time_point last_busy_;

  Counters counters_;
  serve::Metrics metrics_;

  std::thread accept_thread_;
  std::thread dispatch_thread_;
  std::thread monitor_thread_;
  std::vector<std::thread> conn_threads_;
  /// Connection threads that left connection_loop, not yet joined.
  std::vector<std::thread::id> finished_conn_threads_;
  std::mutex conn_threads_mu_;  ///< guards conn_threads_ and the list above
};

}  // namespace dchag::ingress
