#include "comm/communicator.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "comm/fault.hpp"

namespace dchag::comm {

namespace {

constexpr std::uint64_t bytes_of_count(std::size_t n) {
  return static_cast<std::uint64_t>(n) * sizeof(float);
}

void sleep_us(std::uint64_t us) {
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/// Poll period for waits that must notice a fault epoch advance. Epoch
/// bumps also notify the waiters' cv, so this is a backstop, not the
/// detection latency.
constexpr auto kFailurePoll = std::chrono::microseconds(200);

std::string rank_failure_message(const std::string& context,
                                 const std::vector<int>& failed,
                                 std::uint64_t seed, int event_index,
                                 const std::string& schedule) {
  std::ostringstream os;
  os << "RankFailure: " << context << " | failed world ranks {";
  for (std::size_t i = 0; i < failed.size(); ++i) {
    if (i > 0) os << ',';
    os << failed[i];
  }
  os << "} | repro: seed=" << seed << " event=" << event_index
     << " schedule=\"" << schedule << '"';
  return os.str();
}

}  // namespace

RankFailure::RankFailure(const std::string& context,
                         std::vector<int> failed_ranks, std::uint64_t seed,
                         int event_index, std::string schedule)
    : Error(rank_failure_message(context, failed_ranks, seed, event_index,
                                 schedule)),
      failed_ranks_(std::move(failed_ranks)),
      seed_(seed),
      event_index_(event_index),
      schedule_(std::move(schedule)) {}

namespace detail {

std::uint64_t FailureLedger::fail(int event_index,
                                  const std::vector<int>& ranks,
                                  std::uint64_t seed,
                                  const std::string& schedule) {
  std::scoped_lock lk(mu_);
  if (auto it = fired_.find(event_index); it != fired_.end())
    return it->second;
  for (int r : ranks) {
    auto pos = std::lower_bound(dead_.begin(), dead_.end(), r);
    if (pos == dead_.end() || *pos != r) dead_.insert(pos, r);
  }
  last_ = Repro{ranks, seed, event_index, schedule};
  const std::uint64_t now = epoch_.load(std::memory_order_relaxed) + 1;
  fired_[event_index] = now;
  epoch_.store(now, std::memory_order_release);
  return now;
}

bool FailureLedger::is_dead(int world_rank) const {
  std::scoped_lock lk(mu_);
  return std::binary_search(dead_.begin(), dead_.end(), world_rank);
}

std::vector<int> FailureLedger::dead_ranks() const {
  std::scoped_lock lk(mu_);
  return dead_;
}

FailureLedger::Repro FailureLedger::last_failure() const {
  std::scoped_lock lk(mu_);
  return last_;
}

std::shared_ptr<GroupState> FailureLedger::recovery_group(
    const std::string& key,
    const std::function<std::shared_ptr<GroupState>()>& make) {
  std::scoped_lock lk(mu_);
  std::erase_if(groups_, [](const auto& kv) { return kv.second.expired(); });
  std::weak_ptr<GroupState>& slot = groups_[key];
  std::shared_ptr<GroupState> group = slot.lock();
  if (!group) slot = group = make();
  return group;
}

bool SeqBarrier::arrive_and_wait(std::uint64_t seen_epoch) {
  std::unique_lock lk(mu_);
  if (ledger_ && ledger_->epoch() > seen_epoch) return false;
  if (++arrived_ == expected_) {
    arrived_ = 0;
    ++phase_;
    cv_.notify_all();
    return true;
  }
  const std::uint64_t my_phase = phase_;
  while (phase_ == my_phase) {
    cv_.wait_for(lk, kFailurePoll);
    if (phase_ != my_phase) break;
    if (ledger_ && ledger_->epoch() > seen_epoch) {
      // Retract: a rank that throws must not count toward the trip, or a
      // later (recovered) phase would trip one arrival short.
      --arrived_;
      cv_.notify_all();
      return false;
    }
  }
  return true;
}

GroupState::GroupState(int size_in, std::shared_ptr<const FaultPlan> plan,
                       std::shared_ptr<FailureLedger> ledger_in,
                       std::vector<int> world_ranks_in)
    : size(size_in),
      fault_plan(std::move(plan)),
      ledger(ledger_in ? std::move(ledger_in)
                       : std::make_shared<FailureLedger>()),
      world_ranks(std::move(world_ranks_in)),
      send_slots(static_cast<std::size_t>(size_in), nullptr),
      count_slots(static_cast<std::size_t>(size_in), 0),
      barrier(size_in, ledger.get()) {
  DCHAG_CHECK(size_in > 0, "communicator size must be positive");
  if (world_ranks.empty()) {
    world_ranks.resize(static_cast<std::size_t>(size_in));
    for (int r = 0; r < size_in; ++r)
      world_ranks[static_cast<std::size_t>(r)] = r;
  }
  DCHAG_CHECK(world_ranks.size() == static_cast<std::size_t>(size_in),
              "world_ranks size " << world_ranks.size() << " != group size "
                                  << size_in);
}

}  // namespace detail

void reduce_into(std::span<float> dst, std::span<const float> src,
                 ReduceOp op) {
  DCHAG_CHECK(dst.size() == src.size(), "reduce_into size mismatch");
  switch (op) {
    case ReduceOp::kSum:
    case ReduceOp::kAvg:  // averaging is a post-scale by the caller
      for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += src[i];
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < dst.size(); ++i)
        dst[i] = std::max(dst[i], src[i]);
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < dst.size(); ++i)
        dst[i] = std::min(dst[i], src[i]);
      break;
  }
}

Communicator::Communicator(std::shared_ptr<detail::GroupState> state,
                           int rank)
    : state_(std::move(state)),
      rank_(rank),
      seen_epoch_(state_->ledger->epoch()) {}

bool Communicator::poisoned() const {
  return state_->ledger->epoch() > seen_epoch_;
}

std::vector<int> Communicator::alive_world_ranks() const {
  const std::vector<int> dead = state_->ledger->dead_ranks();
  std::vector<int> alive;
  alive.reserve(state_->world_ranks.size());
  for (int wr : state_->world_ranks) {
    if (!std::binary_search(dead.begin(), dead.end(), wr))
      alive.push_back(wr);
  }
  std::sort(alive.begin(), alive.end());
  return alive;
}

std::uint64_t Communicator::fault_epoch() const {
  return state_->ledger->epoch();
}

void Communicator::check_failure() const {
  if (poisoned()) throw_failure("operation on a poisoned group");
}

void Communicator::throw_failure(const std::string& context) const {
  const detail::FailureLedger::Repro repro = state_->ledger->last_failure();
  throw RankFailure(context + " (world rank " + std::to_string(world_rank()) +
                        ")",
                    repro.failed, repro.seed, repro.event_index,
                    repro.schedule);
}

void Communicator::sync() {
  if (!state_->barrier.arrive_and_wait(seen_epoch_))
    throw_failure("peer rank failed mid-collective");
}

void Communicator::inject_entry_faults(CollectiveKind kind) {
  check_failure();
  const FaultPlan* plan = state_->fault_plan.get();
  if (!plan) return;
  const std::uint64_t seq = fault_seq_++;
  if (plan->has_events()) {
    // Rank death: fires on the dying rank's own handle. The ledger makes
    // firing idempotent and tells us whether the event postdates this
    // handle — a respawned rank's fresh handles sail past their own stale
    // death event.
    int ev = plan->death_event(world_rank(), seq);
    if (ev >= 0 &&
        state_->ledger->fail(ev, {world_rank()}, plan->spec().seed,
                             plan->describe()) > seen_epoch_) {
      throw_failure("rank death injected at op " + std::to_string(seq));
    }
    // Link partition: fires on any group spanning both islands during the
    // window. Every rank of the group throws (the group is severed);
    // the minority side is marked dead so the majority can regroup.
    std::vector<int> dead;
    ev = plan->partition_event(state_->world_ranks, seq, &dead);
    if (ev >= 0 &&
        state_->ledger->fail(ev, dead, plan->spec().seed,
                             plan->describe()) > seen_epoch_) {
      throw_failure("link partition injected at op " + std::to_string(seq));
    }
  }
  const FaultPlan::Injection inj = plan->draw(rank_, kind, seq);
  // Dropped contribution: each resend attempt costs one backoff window.
  sleep_us(static_cast<std::uint64_t>(inj.drops) * inj.retry_backoff_us);
  sleep_us(inj.pre_delay_us);
  pending_exit_jitter_us_ = inj.post_jitter_us;
}

void Communicator::inject_exit_faults(CollectiveKind) {
  if (!state_->fault_plan) return;
  sleep_us(pending_exit_jitter_us_);
  pending_exit_jitter_us_ = 0;
}

void Communicator::barrier() {
  stats_.record(CollectiveKind::kBarrier, 0);
  inject_entry_faults(CollectiveKind::kBarrier);
  sync();
  inject_exit_faults(CollectiveKind::kBarrier);
}

// ----- Collectives ----------------------------------------------------------
//
// One data path: each rank publishes a pointer to its buffer (and its
// element count) in the group's slots, then reads its peers' buffers
// directly between barriers. A single-rank group moves nothing.

void Communicator::agree_on_count(std::size_t n, const char* what) {
  auto& st = *state_;
  st.count_slots[static_cast<std::size_t>(rank_)] =
      static_cast<std::int64_t>(n);
  sync();
  // Every rank scans every slot, so a mismatch anywhere throws on all
  // ranks after the same barrier: none reads past a shorter peer buffer
  // and none is left waiting for the others.
  for (int r = 0; r < size(); ++r) {
    const std::int64_t peer = st.count_slots[static_cast<std::size_t>(r)];
    DCHAG_CHECK(peer == static_cast<std::int64_t>(n),
                what << " size mismatch across ranks: rank " << r << " has "
                     << peer << " elements, rank " << rank_ << " has " << n);
  }
}

void Communicator::all_reduce(std::span<float> data, ReduceOp op) {
  stats_.record(CollectiveKind::kAllReduce, bytes_of_count(data.size()));
  inject_entry_faults(CollectiveKind::kAllReduce);
  if (size() > 1) {
    auto& st = *state_;
    st.send_slots[static_cast<std::size_t>(rank_)] = data.data();
    agree_on_count(data.size(), "all_reduce");
    std::vector<float> temp(data.begin(), data.end());
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      reduce_into(temp,
                  {st.send_slots[static_cast<std::size_t>(r)], data.size()},
                  op);
    }
    sync();  // all reads done before anyone writes
    std::copy(temp.begin(), temp.end(), data.begin());
    sync();  // writes done before buffers are reused
    if (op == ReduceOp::kAvg) {
      const float inv = 1.0f / static_cast<float>(size());
      for (float& x : data) x *= inv;
    }
  }
  inject_exit_faults(CollectiveKind::kAllReduce);
}

void Communicator::all_gather(std::span<const float> send,
                              std::span<float> recv) {
  DCHAG_CHECK(recv.size() == send.size() * static_cast<std::size_t>(size()),
              "all_gather: recv size " << recv.size() << " != send "
                                       << send.size() << " * " << size());
  stats_.record(CollectiveKind::kAllGather, bytes_of_count(recv.size()));
  inject_entry_faults(CollectiveKind::kAllGather);
  if (size() == 1) {
    std::copy(send.begin(), send.end(), recv.begin());
  } else {
    auto& st = *state_;
    st.send_slots[static_cast<std::size_t>(rank_)] = send.data();
    agree_on_count(send.size(), "all_gather");
    const std::size_t n = send.size();
    for (int r = 0; r < size(); ++r) {
      std::copy_n(st.send_slots[static_cast<std::size_t>(r)], n,
                  recv.data() + static_cast<std::size_t>(r) * n);
    }
    sync();  // senders keep buffers alive until here
  }
  inject_exit_faults(CollectiveKind::kAllGather);
}

void Communicator::reduce_scatter(std::span<const float> send,
                                  std::span<float> recv, ReduceOp op) {
  DCHAG_CHECK(send.size() == recv.size() * static_cast<std::size_t>(size()),
              "reduce_scatter: send size " << send.size() << " != recv "
                                           << recv.size() << " * " << size());
  stats_.record(CollectiveKind::kReduceScatter, bytes_of_count(send.size()));
  inject_entry_faults(CollectiveKind::kReduceScatter);
  if (size() == 1) {
    std::copy(send.begin(), send.end(), recv.begin());
  } else {
    auto& st = *state_;
    st.send_slots[static_cast<std::size_t>(rank_)] = send.data();
    agree_on_count(recv.size(), "reduce_scatter");
    const std::size_t n = recv.size();
    const std::size_t my_off = static_cast<std::size_t>(rank_) * n;
    std::copy_n(send.data() + my_off, n, recv.data());
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      reduce_into(recv,
                  {st.send_slots[static_cast<std::size_t>(r)] + my_off, n},
                  op);
    }
    sync();
    if (op == ReduceOp::kAvg) {
      const float inv = 1.0f / static_cast<float>(size());
      for (float& x : recv) x *= inv;
    }
  }
  inject_exit_faults(CollectiveKind::kReduceScatter);
}

// ----- Broadcast / point-to-point -------------------------------------------

void Communicator::broadcast(std::span<float> data, int root) {
  DCHAG_CHECK(root >= 0 && root < size(), "broadcast root " << root);
  stats_.record(CollectiveKind::kBroadcast, bytes_of_count(data.size()));
  inject_entry_faults(CollectiveKind::kBroadcast);
  if (size() > 1) {
    auto& st = *state_;
    if (rank_ == root)
      st.send_slots[static_cast<std::size_t>(rank_)] = data.data();
    agree_on_count(data.size(), "broadcast");
    if (rank_ != root) {
      std::copy_n(st.send_slots[static_cast<std::size_t>(root)], data.size(),
                  data.data());
    }
    sync();
  }
  inject_exit_faults(CollectiveKind::kBroadcast);
}

void Communicator::send(std::span<const float> data, int dst, int tag) {
  DCHAG_CHECK(dst != rank_, "send to self");
  stats_.record(CollectiveKind::kSendRecv, bytes_of_count(data.size()));
  inject_entry_faults(CollectiveKind::kSendRecv);
  auto& st = *state_;
  const auto key = std::make_tuple(rank_, dst, tag);
  std::unique_lock lk(st.mail_mu);
  bool published = false;
  // Rendezvous waits poll the ledger: a dead receiver must fail the send,
  // not hang it. If we already published the parcel, retract it so a
  // later retry of the same (src,dst,tag) doesn't see stale bytes.
  const auto wait_or_fail = [&](const std::function<bool()>& pred) {
    while (!pred()) {
      st.mail_cv.wait_for(lk, kFailurePoll);
      if (pred()) break;
      if (poisoned()) {
        if (published) st.mailbox.erase(key);
        st.mail_cv.notify_all();
        lk.unlock();
        throw_failure("peer rank failed during send");
      }
    }
  };
  wait_or_fail([&] { return !st.mailbox.contains(key); });
  st.mailbox[key] = {data.data(), static_cast<std::int64_t>(data.size()),
                     false};
  published = true;
  st.mail_cv.notify_all();
  wait_or_fail([&] {
    auto it = st.mailbox.find(key);
    return it != st.mailbox.end() && it->second.consumed;
  });
  st.mailbox.erase(key);
  st.mail_cv.notify_all();
  lk.unlock();  // jitter sleeps must never hold the shared mailbox lock
  inject_exit_faults(CollectiveKind::kSendRecv);
}

void Communicator::recv(std::span<float> data, int src, int tag) {
  DCHAG_CHECK(src != rank_, "recv from self");
  stats_.record(CollectiveKind::kSendRecv, bytes_of_count(data.size()));
  inject_entry_faults(CollectiveKind::kSendRecv);
  auto& st = *state_;
  const auto key = std::make_tuple(src, rank_, tag);
  std::unique_lock lk(st.mail_mu);
  const auto arrived = [&] {
    auto it = st.mailbox.find(key);
    return it != st.mailbox.end() && !it->second.consumed;
  };
  while (!arrived()) {
    st.mail_cv.wait_for(lk, kFailurePoll);
    if (arrived()) break;
    if (poisoned()) {
      lk.unlock();
      throw_failure("peer rank failed during recv");
    }
  }
  auto& parcel = st.mailbox.at(key);
  DCHAG_CHECK(parcel.count == static_cast<std::int64_t>(data.size()),
              "recv size " << data.size() << " != sent " << parcel.count);
  if (!data.empty())
    std::memcpy(data.data(), parcel.data, data.size() * sizeof(float));
  parcel.consumed = true;
  st.mail_cv.notify_all();
  lk.unlock();
  inject_exit_faults(CollectiveKind::kSendRecv);
}

// ----- split -----------------------------------------------------------------

Communicator Communicator::split(int color, int key) {
  check_failure();
  auto& st = *state_;
  {
    std::scoped_lock lk(st.split_mu);
    if (st.split_colors.empty()) {
      st.split_colors.assign(static_cast<std::size_t>(size()), 0);
      st.split_keys.assign(static_cast<std::size_t>(size()), 0);
    }
    st.split_colors[static_cast<std::size_t>(rank_)] = color;
    st.split_keys[static_cast<std::size_t>(rank_)] =
        key >= 0 ? key : rank_;
  }
  sync();

  // Determine this color's membership, ordered by (key, parent rank).
  std::vector<int> members;
  for (int r = 0; r < size(); ++r) {
    if (st.split_colors[static_cast<std::size_t>(r)] == color)
      members.push_back(r);
  }
  std::stable_sort(members.begin(), members.end(), [&](int a, int b) {
    return st.split_keys[static_cast<std::size_t>(a)] <
           st.split_keys[static_cast<std::size_t>(b)];
  });
  const bool is_creator = members.front() == rank_;
  if (is_creator) {
    // Children inherit the parent's fault plan and the world's failure
    // ledger: flaky links stay flaky for every subgroup carved out of the
    // world, and a fault event anywhere poisons the whole family. World
    // ranks compose so nested groups still match structural events.
    std::vector<int> child_world;
    child_world.reserve(members.size());
    for (int m : members)
      child_world.push_back(st.world_ranks[static_cast<std::size_t>(m)]);
    auto child = std::make_shared<detail::GroupState>(
        static_cast<int>(members.size()), st.fault_plan, st.ledger,
        std::move(child_world));
    std::scoped_lock lk(st.split_mu);
    st.split_groups[color] = std::move(child);
    st.split_members[color] = members;
  }
  sync();

  std::shared_ptr<detail::GroupState> child;
  {
    std::scoped_lock lk(st.split_mu);
    child = st.split_groups.at(color);
  }
  int child_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == rank_) child_rank = static_cast<int>(i);
  }
  DCHAG_CHECK(child_rank >= 0, "split: rank not in own color group");
  sync();

  // Reset rendezvous state for the next split call.
  if (rank_ == 0) {
    std::scoped_lock lk(st.split_mu);
    st.split_groups.clear();
    st.split_members.clear();
    st.split_colors.clear();
    st.split_keys.clear();
  }
  sync();
  return Communicator(std::move(child), child_rank);
}

Communicator Communicator::split_survivors(
    const std::vector<int>& world_members, const std::string& tag) {
  return split_survivors_for(world_rank(), world_members, tag);
}

Communicator Communicator::split_survivors_for(
    int world_rank_in, const std::vector<int>& world_members,
    const std::string& tag) {
  DCHAG_CHECK(!world_members.empty(), "split_survivors: empty membership");
  DCHAG_CHECK(std::is_sorted(world_members.begin(), world_members.end()) &&
                  std::adjacent_find(world_members.begin(),
                                     world_members.end()) ==
                      world_members.end(),
              "split_survivors: membership must be sorted and unique");
  const auto it = std::lower_bound(world_members.begin(), world_members.end(),
                                   world_rank_in);
  DCHAG_CHECK(it != world_members.end() && *it == world_rank_in,
              "split_survivors: world rank " << world_rank_in
                                             << " not in membership");
  auto& st = *state_;
  // Rendezvous through the ledger (lock, no barriers): works even when
  // this handle is poisoned, which is exactly when it's needed.
  auto group = st.ledger->recovery_group(tag, [&] {
    return std::make_shared<detail::GroupState>(
        static_cast<int>(world_members.size()), st.fault_plan, st.ledger,
        world_members);
  });
  DCHAG_CHECK(group->world_ranks == world_members,
              "split_survivors: tag \"" << tag
                                        << "\" already bound to a different "
                                           "membership");
  return Communicator(std::move(group),
                      static_cast<int>(it - world_members.begin()));
}

// ----- World -----------------------------------------------------------------

World::World(int size) : size_(size) {
  DCHAG_CHECK(size_ > 0, "world size must be positive");
}

void World::run(const std::function<void(Communicator&)>& fn) {
  auto state = std::make_shared<detail::GroupState>(size_, fault_plan_);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(size_));
  threads.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    // Every rank body runs inside a catch-all: a throwing closure must
    // surface as a failed run() on the spawning thread (with the rank
    // identified), never escape a std::thread and std::terminate the
    // process.
    threads.emplace_back([&, r]() noexcept {
      try {
        Communicator comm(state, r);
        fn(comm);
      } catch (const RankFailure&) {
        // Keep the type (and its seed/event repro payload) intact; the
        // message already names the world rank.
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      } catch (const std::exception& ex) {
        errors[static_cast<std::size_t>(r)] = std::make_exception_ptr(
            Error("rank " + std::to_string(r) + ": " + ex.what()));
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::make_exception_ptr(
            Error("rank " + std::to_string(r) +
                  " threw a non-standard exception"));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace dchag::comm
