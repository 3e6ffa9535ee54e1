// In-process SPMD communication runtime.
//
// World spawns one std::thread per rank and hands each a Communicator bound
// to a shared GroupState. Collectives move real data between rank-private
// buffers through shared memory, with the same semantics as NCCL/RCCL
// collectives on a GPU cluster. There is one data path: each rank publishes
// a pointer to its buffer and reads its peers' buffers directly between
// barriers. This is the executable substrate for every distributed
// algorithm in the library; the analytic hw::CommCostModel prices the same
// operations (ring and node-placement costs included) on Frontier's fabric
// for at-scale projections.
//
// Usage contract (as in MPI/NCCL): every rank of a communicator must call
// the same sequence of collectives with compatible sizes; collectives are
// rendezvous points and asymmetric call sequences deadlock. Sizes are
// checked: when ranks pass different element counts to one collective,
// every rank throws (none reads past a shorter peer buffer, none is left
// waiting on a barrier).
//
// Fault semantics: a World carries one FailureLedger shared by every group
// descended from it (split() children and async shadow groups included).
// When a FaultPlan structural event fires — rank death or link partition
// (fault.hpp) — the ledger's fault epoch advances, and every communicator
// handle created before that epoch is permanently POISONED: any collective,
// barrier, or send/recv on it throws a typed RankFailure instead of
// hanging on a peer that will never arrive. Survivors regroup with
// split_survivors(), which rendezvouses through the ledger (no barriers,
// so it works on poisoned groups) and yields a fresh, un-poisoned group
// over an explicit membership list.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "comm/types.hpp"
#include "tensor/check.hpp"

namespace dchag::comm {

class FaultPlan;  // fault.hpp: deterministic delay/drop/jitter/event plan

/// Typed error for an injected (or detected) rank failure. The message
/// always embeds the failing world ranks plus the fault plan's seed,
/// event index, and full schedule string, so any seeded chaos failure is
/// reproducible straight from a test log.
class RankFailure : public Error {
 public:
  RankFailure(const std::string& context, std::vector<int> failed_ranks,
              std::uint64_t seed, int event_index, std::string schedule);

  [[nodiscard]] const std::vector<int>& failed_ranks() const {
    return failed_ranks_;
  }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] int event_index() const { return event_index_; }
  [[nodiscard]] const std::string& schedule() const { return schedule_; }

 private:
  std::vector<int> failed_ranks_;
  std::uint64_t seed_;
  int event_index_;
  std::string schedule_;
};

namespace detail {

struct GroupState;

/// World-scoped failure record, shared by all groups of one World. The
/// epoch is the poisoning clock: every structural fault event advances it
/// exactly once, and handles compare their construction-time epoch
/// against it on every operation.
class FailureLedger {
 public:
  [[nodiscard]] std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Fires `event_index` (idempotent — at most once per plan event):
  /// marks `ranks` dead, advances the epoch, records repro info. Returns
  /// the epoch at which the event fired, whether now or earlier; callers
  /// throw iff that epoch postdates their handle.
  std::uint64_t fail(int event_index, const std::vector<int>& ranks,
                     std::uint64_t seed, const std::string& schedule);

  [[nodiscard]] bool is_dead(int world_rank) const;
  [[nodiscard]] std::vector<int> dead_ranks() const;

  struct Repro {
    std::vector<int> failed;
    std::uint64_t seed = 0;
    int event_index = -1;
    std::string schedule;
  };
  [[nodiscard]] Repro last_failure() const;

  /// Barrier-free rendezvous for post-failure regrouping: the first
  /// caller under `key` creates the group via `make`; everyone else gets
  /// the same GroupState. Keys are caller-chosen (the serving layer uses
  /// "phase#generation" tags) so repeated recoveries stay distinct. The
  /// ledger holds groups weakly — every group owns the ledger, so a
  /// strong reference back would keep both alive forever; a group lives
  /// as long as some member's handle does.
  std::shared_ptr<GroupState> recovery_group(
      const std::string& key,
      const std::function<std::shared_ptr<GroupState>()>& make);

 private:
  mutable std::mutex mu_;
  std::atomic<std::uint64_t> epoch_{0};
  std::map<int, std::uint64_t> fired_;  ///< event index -> firing epoch
  std::vector<int> dead_;               ///< sorted world ranks
  Repro last_;
  std::map<std::string, std::weak_ptr<GroupState>> groups_;
};

/// Rendezvous barrier that can break. Functionally std::barrier with a
/// fixed participant count, except waiters poll the FailureLedger: when
/// the fault epoch moves past the waiter's view, the wait RETRACTS its
/// arrival and returns false so the caller can throw RankFailure —
/// turning what would be a permanent hang on a dead peer into an error.
class SeqBarrier {
 public:
  SeqBarrier(int expected, const FailureLedger* ledger)
      : expected_(expected), ledger_(ledger) {}

  /// True: all ranks arrived, barrier passed. False: the world's fault
  /// epoch advanced past `seen_epoch` while waiting (arrival retracted).
  [[nodiscard]] bool arrive_and_wait(std::uint64_t seen_epoch);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int expected_;
  int arrived_ = 0;
  std::uint64_t phase_ = 0;
  const FailureLedger* ledger_;
};

/// State shared by all ranks of one communicator group.
struct GroupState {
  explicit GroupState(int size,
                      std::shared_ptr<const FaultPlan> plan = nullptr,
                      std::shared_ptr<FailureLedger> ledger = nullptr,
                      std::vector<int> world_ranks = {});

  int size;
  /// Optional fault injection consulted by every collective (timing plus
  /// structural events). Propagates into split() children.
  std::shared_ptr<const FaultPlan> fault_plan;
  /// World-scoped failure ledger; created by the root group, shared by
  /// every descendant (split children, shadow groups, recovery groups).
  std::shared_ptr<FailureLedger> ledger;
  /// Group rank -> root-world rank, composed through split(). Structural
  /// fault events are specified in world ranks, so nested groups can
  /// still match them.
  std::vector<int> world_ranks;

  // Pointer-exchange slots: each rank publishes its buffer and element
  // count, then peers read them between barriers.
  std::vector<const float*> send_slots;
  std::vector<std::int64_t> count_slots;
  SeqBarrier barrier;

  // split() rendezvous.
  std::mutex split_mu;
  std::vector<int> split_colors;
  std::vector<int> split_keys;
  std::map<int, std::shared_ptr<GroupState>> split_groups;
  std::map<int, std::vector<int>> split_members;  // color -> parent ranks

  // Point-to-point mailbox (synchronous rendezvous send).
  struct Parcel {
    const float* data = nullptr;
    std::int64_t count = 0;
    bool consumed = false;
  };
  std::mutex mail_mu;
  std::condition_variable mail_cv;
  std::map<std::tuple<int, int, int>, Parcel> mailbox;  // (src,dst,tag)
};

}  // namespace detail

/// Per-rank handle to a communicator group. Not copyable: a handle also
/// carries this rank's traffic ledger (stats()), which callers inspect to
/// verify communication properties (e.g. D-CHAG's communication-free
/// backward pass).
class Communicator {
 public:
  Communicator(std::shared_ptr<detail::GroupState> state, int rank);

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;
  Communicator(Communicator&&) = default;
  Communicator& operator=(Communicator&&) = default;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return state_->size; }

  /// This rank's position in the ROOT world (== rank() on the root group;
  /// composed through split() / split_survivors() for nested groups).
  [[nodiscard]] int world_rank() const {
    return state_->world_ranks[static_cast<std::size_t>(rank_)];
  }
  [[nodiscard]] const std::vector<int>& world_ranks() const {
    return state_->world_ranks;
  }

  /// True once a fault event has poisoned this handle: every subsequent
  /// collective / barrier / send / recv throws RankFailure.
  [[nodiscard]] bool poisoned() const;
  /// This group's membership minus the ledger's dead set (world ranks).
  [[nodiscard]] std::vector<int> alive_world_ranks() const;
  /// The ledger's current fault epoch (advances once per structural fault
  /// event). Recovery code snapshots it to tag regrouping rendezvous and
  /// re-checks it after regrouping to detect events that raced in.
  [[nodiscard]] std::uint64_t fault_epoch() const;
  /// The world's failure ledger, held weakly: it must expire once every
  /// group of the world (recovery groups included) is gone.
  [[nodiscard]] std::weak_ptr<const detail::FailureLedger> failure_ledger()
      const {
    return state_->ledger;
  }

  /// Synchronisation point for all ranks in the group.
  void barrier();

  /// In-place sum/avg/max/min across ranks; every rank ends with the result.
  void all_reduce(std::span<float> data, ReduceOp op = ReduceOp::kSum);

  /// Gathers each rank's `send` into `recv` ordered by rank.
  /// recv.size() must equal send.size() * size().
  void all_gather(std::span<const float> send, std::span<float> recv);

  /// Reduces element-wise across ranks, scattering contiguous chunks:
  /// rank r receives chunk r. send.size() must equal recv.size() * size().
  void reduce_scatter(std::span<const float> send, std::span<float> recv,
                      ReduceOp op = ReduceOp::kSum);

  /// Copies root's `data` to every rank (in place).
  void broadcast(std::span<float> data, int root);

  /// Synchronous (rendezvous) point-to-point send/recv with message tags.
  void send(std::span<const float> data, int dst, int tag);
  void recv(std::span<float> data, int src, int tag);

  /// Collective: partitions ranks by `color` into child communicators.
  /// Ranks are ordered within the child group by (key, parent rank);
  /// key < 0 means "use parent rank order".
  [[nodiscard]] Communicator split(int color, int key = -1);

  /// Post-failure regrouping over an explicit membership of WORLD ranks
  /// (sorted, unique, containing this handle's world_rank). Rendezvouses
  /// through the FailureLedger rather than barriers, so it works on a
  /// poisoned handle; every member must call it with the same
  /// (world_members, tag). The fresh group inherits the fault plan and
  /// ledger (already-fired events cannot re-fire). Tags namespace
  /// concurrent recoveries — reuse a tag only for the same membership.
  [[nodiscard]] Communicator split_survivors(
      const std::vector<int>& world_members, const std::string& tag);

  /// split_survivors on behalf of `world_rank` — lets a surviving leader
  /// mint the (movable) handle a respawned rank thread will use, without
  /// that thread needing any communicator of its own first.
  [[nodiscard]] Communicator split_survivors_for(
      int world_rank, const std::vector<int>& world_members,
      const std::string& tag);

  [[nodiscard]] const CommStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CommStats{}; }

 private:
  /// Throws RankFailure if the handle is poisoned. Every public entry
  /// point calls this first.
  void check_failure() const;
  [[noreturn]] void throw_failure(const std::string& context) const;
  /// Group-internal barrier step: arrive, and convert a broken wait
  /// (peer died) into RankFailure.
  void sync();

  /// Sleeps per the group's FaultPlan (if any) before/after a collective's
  /// data movement, and fires structural events (death / partition) due at
  /// this op. No-ops without a plan; never touches payloads.
  void inject_entry_faults(CollectiveKind kind);
  void inject_exit_faults(CollectiveKind kind);

  /// Publishes this rank's element count and waits for every peer's;
  /// throws on every rank unless all counts equal `n`.
  void agree_on_count(std::size_t n, const char* what);

  std::shared_ptr<detail::GroupState> state_;
  int rank_;
  CommStats stats_;
  /// Ledger epoch observed when this handle was created; the handle is
  /// poisoned forever once the ledger moves past it.
  std::uint64_t seen_epoch_ = 0;
  /// Per-rank collective sequence number feeding FaultPlan::draw; symmetric
  /// SPMD call sequences keep it aligned across ranks, which is what makes
  /// injected schedules deterministic.
  std::uint64_t fault_seq_ = 0;
  /// Completion jitter drawn at entry, slept at exit of the same op.
  std::uint32_t pending_exit_jitter_us_ = 0;
};

/// Owns the shared state for `size` ranks and runs SPMD functions.
class World {
 public:
  explicit World(int size);

  [[nodiscard]] int size() const { return size_; }

  /// Installs deterministic fault injection (fault.hpp) on every group this
  /// world creates, including split() children. Pass nullptr to clear.
  /// This is how FaultyWorld wraps a World; call before run().
  void set_fault_plan(std::shared_ptr<const FaultPlan> plan) {
    fault_plan_ = std::move(plan);
  }
  [[nodiscard]] const std::shared_ptr<const FaultPlan>& fault_plan() const {
    return fault_plan_;
  }

  /// Runs `fn(comm)` on every rank in its own thread and joins. If any rank
  /// throws, the first exception is rethrown after all threads finish —
  /// RankFailure errors keep their type (and repro payload) through the
  /// rethrow. Rank bodies must keep collective call sequences symmetric.
  void run(const std::function<void(Communicator&)>& fn);

 private:
  int size_;
  std::shared_ptr<const FaultPlan> fault_plan_;
};

/// Accumulates the element-wise reduction `op` of `src` into `dst`.
void reduce_into(std::span<float> dst, std::span<const float> src,
                 ReduceOp op);

}  // namespace dchag::comm
