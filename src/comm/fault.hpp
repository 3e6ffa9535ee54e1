// Deterministic fault injection for the SPMD runtime.
//
// A FaultPlan is a pure function of (seed, group size): per-edge link
// latencies, per-rank straggler delays, drop-with-retry decisions, and
// completion jitter are all drawn from hashes of (rank, collective kind,
// per-rank op sequence number). Because every rank of a symmetric SPMD
// program advances its op counter identically, the injected schedule is
// reproducible run to run — timing faults perturb TIMING only, never
// data, so any result difference under a plan is a real synchronization
// bug.
//
// On top of timing, a plan can carry STRUCTURAL events: seeded rank
// deaths ("kill world rank r at its at_op-th collective") and link
// partitions ("sever island {A} from the rest for k collectives").
// Structural events surface as a typed RankFailure (communicator.hpp) on
// every affected handle instead of a hang; survivors regroup with
// Communicator::split_survivors. Every RankFailure message embeds the
// plan's seed, the event index, and the full schedule string
// (FaultPlan::describe), so a failing seeded schedule reproduces from
// the ctest log alone.
//
// Install a plan on any World with World::set_fault_plan(), or use the
// FaultyWorld convenience wrapper. Plans propagate through split() into
// child groups (including the shadow groups AsyncCommunicator creates),
// so injected schedules are adversarial end to end.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "comm/communicator.hpp"

namespace dchag::comm {

/// Kill world rank `rank` when any of its communicator handles issues its
/// `at_op`-th collective (first op with seq >= at_op; each handle counts
/// its own ops). The death fires once per plan — a respawned rank's fresh
/// handles, created after the event, are immune to it.
struct RankDeathEvent {
  int rank = 0;
  std::uint64_t at_op = 0;
};

/// Sever `island` from the complement for collectives with seq in
/// [at_op, at_op + duration_ops). Any group whose membership spans both
/// sides is broken when it issues a collective inside the window; the
/// MINORITY side (ties: the side not containing world rank 0) is marked
/// dead so the majority can regroup and keep serving. A partition whose
/// window passes with no spanning collective is harmless by design.
struct PartitionEvent {
  std::uint64_t at_op = 0;
  std::uint64_t duration_ops = 1;
  std::vector<int> island;  ///< world ranks of one side (proper subset)
};

/// Knobs for one injection plan. All delays are microseconds; zero
/// disables that fault class.
struct FaultSpec {
  std::uint64_t seed = 0;
  /// Per-edge link latency drawn uniformly in [min, max] at plan build;
  /// a rank's collectives stall for its slowest incoming edge.
  std::uint32_t min_edge_delay_us = 0;
  std::uint32_t max_edge_delay_us = 0;
  /// Probability that a rank's contribution to a collective is "dropped"
  /// and must be resent; each retry costs retry_backoff_us.
  double drop_prob = 0.0;
  int max_retries = 3;
  std::uint32_t retry_backoff_us = 50;
  /// Extra delay added AFTER a collective completes, drawn per op in
  /// [0, max]: async completions arrive out of the issue-time pattern,
  /// which is what shakes out wait()-ordering bugs.
  std::uint32_t max_completion_jitter_us = 0;
  /// Per-rank straggler delay (index = rank; shorter vectors pad with 0).
  /// The straightforward way to model one slow GCD / preempted worker.
  std::vector<std::uint32_t> per_rank_delay_us;
  /// Structural events. Event indices (for RankFailure repro strings)
  /// number deaths first, then partitions.
  std::vector<RankDeathEvent> deaths;
  std::vector<PartitionEvent> partitions;
};

class FaultPlan {
 public:
  FaultPlan(FaultSpec spec, int size);

  struct Injection {
    std::uint32_t pre_delay_us = 0;   ///< before the collective's data moves
    int drops = 0;                    ///< resend attempts before success
    std::uint32_t retry_backoff_us = 0;
    std::uint32_t post_jitter_us = 0;  ///< after completion, before return
  };

  /// Deterministic injection for the `seq`-th collective of kind `kind`
  /// issued by `rank`. Also bumps the plan's observability counters.
  [[nodiscard]] Injection draw(int rank, CollectiveKind kind,
                               std::uint64_t seq) const;

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] std::uint32_t edge_delay_us(int src, int dst) const;

  // --- Structural events -----------------------------------------------------

  [[nodiscard]] bool has_events() const {
    return !spec_.deaths.empty() || !spec_.partitions.empty();
  }
  [[nodiscard]] int event_count() const {
    return static_cast<int>(spec_.deaths.size() + spec_.partitions.size());
  }

  /// Index of the death event hitting `world_rank` at op `seq` (first op
  /// at or past its at_op), or -1. Firing-once semantics live in the
  /// world's FailureLedger, not here — the plan is a pure function.
  [[nodiscard]] int death_event(int world_rank, std::uint64_t seq) const;

  /// Index of the partition event broken by a group with membership
  /// `world_ranks` issuing op `seq`, or -1. On a hit, `*dead` receives
  /// the world ranks of the losing (minority) side.
  [[nodiscard]] int partition_event(std::span<const int> world_ranks,
                                    std::uint64_t seq,
                                    std::vector<int>* dead) const;

  /// One-line schedule string: seed, size, every timing knob and event.
  /// Pasteable into a FaultSpec for one-command repro of a failure.
  [[nodiscard]] std::string describe() const;

  // Observability: what the plan actually injected so far.
  [[nodiscard]] std::uint64_t injected_delay_us() const {
    return injected_delay_us_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t injected_retries() const {
    return injected_retries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t injections() const {
    return injections_.load(std::memory_order_relaxed);
  }
  void reset_counters() const {
    injected_delay_us_.store(0, std::memory_order_relaxed);
    injected_retries_.store(0, std::memory_order_relaxed);
    injections_.store(0, std::memory_order_relaxed);
  }

 private:
  FaultSpec spec_;
  int size_;
  std::vector<std::uint32_t> edge_delay_us_;  ///< size x size, row = src
  std::vector<std::uint32_t> ingress_us_;     ///< max incoming edge per rank

  mutable std::atomic<std::uint64_t> injected_delay_us_{0};
  mutable std::atomic<std::uint64_t> injected_retries_{0};
  mutable std::atomic<std::uint64_t> injections_{0};
};

[[nodiscard]] std::shared_ptr<const FaultPlan> make_fault_plan(FaultSpec spec,
                                                               int size);

/// A World with a seeded FaultPlan pre-installed: the comm test double.
/// Drop-in for World in any SPMD test — same run() contract, adversarial
/// timing, and (with structural events) typed RankFailure errors instead
/// of hangs. Wrap an existing World instead with World::set_fault_plan().
class FaultyWorld {
 public:
  FaultyWorld(int size, FaultSpec spec)
      : plan_(make_fault_plan(std::move(spec), size)), world_(size) {
    world_.set_fault_plan(plan_);
  }

  [[nodiscard]] int size() const { return world_.size(); }
  [[nodiscard]] const FaultPlan& plan() const { return *plan_; }

  void run(const std::function<void(Communicator&)>& fn) { world_.run(fn); }

 private:
  std::shared_ptr<const FaultPlan> plan_;
  World world_;
};

}  // namespace dchag::comm
