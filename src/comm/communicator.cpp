#include "comm/communicator.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "comm/fault.hpp"

namespace dchag::comm {

namespace {

/// Contiguous chunk layout used by ring and scatter collectives: element
/// counts per part differ by at most one when n % parts != 0.
struct Chunk {
  std::int64_t offset;
  std::int64_t len;
};

std::vector<Chunk> make_chunks(std::int64_t n, int parts) {
  std::vector<Chunk> out(static_cast<std::size_t>(parts));
  const std::int64_t base = n / parts;
  const std::int64_t rem = n % parts;
  std::int64_t off = 0;
  for (int i = 0; i < parts; ++i) {
    const std::int64_t len = base + (i < rem ? 1 : 0);
    out[static_cast<std::size_t>(i)] = {off, len};
    off += len;
  }
  return out;
}

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

GroupState::GroupState(int size_in, Topology topo,
                       std::shared_ptr<const FaultPlan> plan,
                       std::shared_ptr<FailureLedger> ledger_in,
                       std::vector<int> world_ranks_in)
    : size(size_in),
      topology(std::move(topo)),
      fault_plan(std::move(plan)),
      ledger(ledger_in ? std::move(ledger_in)
                       : std::make_shared<FailureLedger>()),
      world_ranks(std::move(world_ranks_in)),
      send_slots(static_cast<std::size_t>(size_in), nullptr),
      recv_slots(static_cast<std::size_t>(size_in), nullptr),
      count_slots(static_cast<std::size_t>(size_in), 0),
      barrier(size_in, ledger.get()) {
  DCHAG_CHECK(size_in > 0, "communicator size must be positive");
  DCHAG_CHECK(topology.size() == size_in,
              "topology size " << topology.size() << " != group size "
                               << size_in);
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

// ----- AllReduce -------------------------------------------------------------

void Communicator::all_reduce(std::span<float> data, ReduceOp op,
                              Algorithm alg) {
  stats_.record(CollectiveKind::kAllReduce, bytes_of_count(data.size()));
  inject_entry_faults(CollectiveKind::kAllReduce);
  // Zero elements / one rank: nothing moves. Sizes must match across ranks
  // (usage contract), so every rank takes this exit symmetrically.
  if (size() == 1 || data.empty()) {
    inject_exit_faults(CollectiveKind::kAllReduce);
    return;
  }
  switch (alg) {
    case Algorithm::kAuto:
    case Algorithm::kDirect:
      all_reduce_direct(data, op);
      break;
    case Algorithm::kRing:
      all_reduce_ring(data, op);
      break;
    case Algorithm::kHierarchical:
      all_reduce_hierarchical(data, op);
      break;
  }
  if (op == ReduceOp::kAvg) {
    const float inv = 1.0f / static_cast<float>(size());
    for (float& x : data) x *= inv;
  }
  inject_exit_faults(CollectiveKind::kAllReduce);
}

void Communicator::all_reduce_direct(std::span<float> data, ReduceOp op) {
  auto& st = *state_;
  st.send_slots[static_cast<std::size_t>(rank_)] = data.data();
  st.count_slots[static_cast<std::size_t>(rank_)] =
      static_cast<std::int64_t>(data.size());
  sync();
  std::vector<float> temp(data.begin(), data.end());
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    DCHAG_CHECK(st.count_slots[static_cast<std::size_t>(r)] ==
                    static_cast<std::int64_t>(data.size()),
                "all_reduce size mismatch across ranks");
    reduce_into(temp,
                {st.send_slots[static_cast<std::size_t>(r)], data.size()},
                op);
  }
  sync();  // all reads done before anyone writes
  std::copy(temp.begin(), temp.end(), data.begin());
  sync();  // writes done before buffers are reused
}

void Communicator::all_reduce_ring(std::span<float> data, ReduceOp op) {
  auto& st = *state_;
  const int P = size();
  const auto chunks = make_chunks(static_cast<std::int64_t>(data.size()), P);
  st.recv_slots[static_cast<std::size_t>(rank_)] = data.data();
  sync();
  const int left = (rank_ - 1 + P) % P;
  float* left_buf = st.recv_slots[static_cast<std::size_t>(left)];
  // Reduce-scatter phase: after step s, the chunk received at step s has
  // s+2 contributions; after P-1 steps rank r owns complete chunk (r+1)%P.
  for (int s = 0; s < P - 1; ++s) {
    const int idx = ((rank_ - s - 1) % P + P) % P;
    const auto& c = chunks[static_cast<std::size_t>(idx)];
    reduce_into({data.data() + c.offset, static_cast<std::size_t>(c.len)},
                {left_buf + c.offset, static_cast<std::size_t>(c.len)}, op);
    sync();
  }
  // All-gather phase: complete chunks travel around the ring.
  for (int s = 0; s < P - 1; ++s) {
    const int idx = ((rank_ - s) % P + P) % P;
    const auto& c = chunks[static_cast<std::size_t>(idx)];
    std::memcpy(data.data() + c.offset, left_buf + c.offset,
                static_cast<std::size_t>(c.len) * sizeof(float));
    sync();
  }
}

void Communicator::all_reduce_hierarchical(std::span<float> data,
                                           ReduceOp op) {
  auto& st = *state_;
  const Topology& topo = st.topology;
  const int my_node = topo.node_of(rank_);
  int leader = rank_;
  for (int r = 0; r < size(); ++r) {
    if (topo.node_of(r) == my_node) {
      leader = r;
      break;
    }
  }
  const bool is_leader = leader == rank_;

  st.recv_slots[static_cast<std::size_t>(rank_)] = data.data();
  sync();

  // Phase 1: each leader reduces its node's members.
  std::vector<float> temp;
  if (is_leader) {
    temp.assign(data.begin(), data.end());
    for (int r = 0; r < size(); ++r) {
      if (r == rank_ || topo.node_of(r) != my_node) continue;
      reduce_into(temp,
                  {st.recv_slots[static_cast<std::size_t>(r)], data.size()},
                  op);
    }
    st.send_slots[static_cast<std::size_t>(rank_)] = temp.data();
  }
  sync();

  // Phase 2: leaders reduce across nodes into a private buffer.
  std::vector<float> final_buf;
  if (is_leader) {
    final_buf = temp;
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      int r_leader = -1;
      for (int q = 0; q < size(); ++q) {
        if (topo.node_of(q) == topo.node_of(r)) {
          r_leader = q;
          break;
        }
      }
      if (r != r_leader || topo.node_of(r) == my_node) continue;
      reduce_into(final_buf,
                  {st.send_slots[static_cast<std::size_t>(r)], data.size()},
                  op);
    }
  }
  sync();

  // Phase 3: leaders publish; members copy from their leader.
  if (is_leader) std::copy(final_buf.begin(), final_buf.end(), data.begin());
  sync();
  if (!is_leader) {
    const float* src = st.recv_slots[static_cast<std::size_t>(leader)];
    std::memcpy(data.data(), src, data.size() * sizeof(float));
  }
  sync();
}

// ----- AllGather -------------------------------------------------------------

void Communicator::all_gather(std::span<const float> send,
                              std::span<float> recv, Algorithm alg) {
  DCHAG_CHECK(recv.size() == send.size() * static_cast<std::size_t>(size()),
              "all_gather: recv size " << recv.size() << " != send "
                                       << send.size() << " * " << size());
  stats_.record(CollectiveKind::kAllGather, bytes_of_count(recv.size()));
  inject_entry_faults(CollectiveKind::kAllGather);
  if (size() == 1 || send.empty()) {
    std::copy(send.begin(), send.end(), recv.begin());
    inject_exit_faults(CollectiveKind::kAllGather);
    return;
  }
  switch (alg) {
    case Algorithm::kAuto:
    case Algorithm::kDirect:
    case Algorithm::kHierarchical:  // in-process: same data path as direct
      all_gather_direct(send, recv);
      break;
    case Algorithm::kRing:
      all_gather_ring(send, recv);
      break;
  }
  inject_exit_faults(CollectiveKind::kAllGather);
}

void Communicator::all_gather_direct(std::span<const float> send,
                                     std::span<float> recv) {
  auto& st = *state_;
  st.send_slots[static_cast<std::size_t>(rank_)] = send.data();
  st.count_slots[static_cast<std::size_t>(rank_)] =
      static_cast<std::int64_t>(send.size());
  sync();
  const std::size_t n = send.size();
  for (int r = 0; r < size(); ++r) {
    DCHAG_CHECK(st.count_slots[static_cast<std::size_t>(r)] ==
                    static_cast<std::int64_t>(n),
                "all_gather size mismatch across ranks");
    std::memcpy(recv.data() + static_cast<std::size_t>(r) * n,
                st.send_slots[static_cast<std::size_t>(r)],
                n * sizeof(float));
  }
  sync();  // senders keep buffers alive until here
}

void Communicator::all_gather_ring(std::span<const float> send,
                                   std::span<float> recv) {
  auto& st = *state_;
  const int P = size();
  const std::size_t n = send.size();
  std::memcpy(recv.data() + static_cast<std::size_t>(rank_) * n, send.data(),
              n * sizeof(float));
  st.recv_slots[static_cast<std::size_t>(rank_)] = recv.data();
  sync();
  const int left = (rank_ - 1 + P) % P;
  const float* left_buf = st.recv_slots[static_cast<std::size_t>(left)];
  for (int s = 0; s < P - 1; ++s) {
    const int idx = ((rank_ - s - 1) % P + P) % P;
    std::memcpy(recv.data() + static_cast<std::size_t>(idx) * n,
                left_buf + static_cast<std::size_t>(idx) * n,
                n * sizeof(float));
    sync();
  }
}

// ----- ReduceScatter ---------------------------------------------------------

void Communicator::reduce_scatter(std::span<const float> send,
                                  std::span<float> recv, ReduceOp op,
                                  Algorithm alg) {
  DCHAG_CHECK(send.size() == recv.size() * static_cast<std::size_t>(size()),
              "reduce_scatter: send size " << send.size() << " != recv "
                                           << recv.size() << " * " << size());
  stats_.record(CollectiveKind::kReduceScatter, bytes_of_count(send.size()));
  inject_entry_faults(CollectiveKind::kReduceScatter);
  if (size() == 1 || recv.empty()) {
    std::copy(send.begin(), send.end(), recv.begin());
    inject_exit_faults(CollectiveKind::kReduceScatter);
    return;
  }
  switch (alg) {
    case Algorithm::kAuto:
    case Algorithm::kDirect:
    case Algorithm::kHierarchical:
      reduce_scatter_direct(send, recv, op);
      break;
    case Algorithm::kRing:
      reduce_scatter_ring(send, recv, op);
      break;
  }
  if (op == ReduceOp::kAvg) {
    const float inv = 1.0f / static_cast<float>(size());
    for (float& x : recv) x *= inv;
  }
  inject_exit_faults(CollectiveKind::kReduceScatter);
}

void Communicator::reduce_scatter_direct(std::span<const float> send,
                                         std::span<float> recv,
                                         ReduceOp op) {
  auto& st = *state_;
  st.send_slots[static_cast<std::size_t>(rank_)] = send.data();
  sync();
  const std::size_t n = recv.size();
  const std::size_t my_off = static_cast<std::size_t>(rank_) * n;
  std::memcpy(recv.data(), send.data() + my_off, n * sizeof(float));
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    reduce_into(recv,
                {st.send_slots[static_cast<std::size_t>(r)] + my_off, n},
                op == ReduceOp::kAvg ? ReduceOp::kSum : op);
  }
  sync();
}

void Communicator::reduce_scatter_ring(std::span<const float> send,
                                       std::span<float> recv, ReduceOp op) {
  auto& st = *state_;
  const int P = size();
  // Workspace copy of send (ring mutates partial sums in place).
  std::vector<float> work(send.begin(), send.end());
  st.recv_slots[static_cast<std::size_t>(rank_)] = work.data();
  sync();
  const int left = (rank_ - 1 + P) % P;
  float* left_buf = st.recv_slots[static_cast<std::size_t>(left)];
  const std::size_t n = recv.size();
  const ReduceOp eff = op == ReduceOp::kAvg ? ReduceOp::kSum : op;
  for (int s = 0; s < P - 1; ++s) {
    const int idx = ((rank_ - s - 1) % P + P) % P;
    const std::size_t off = static_cast<std::size_t>(idx) * n;
    reduce_into({work.data() + off, n}, {left_buf + off, n}, eff);
    sync();
  }
  // Rank r now owns complete chunk (r+1)%P; chunk r lives on the left
  // neighbour — one final shift delivers reduce_scatter semantics.
  const std::size_t final_off = static_cast<std::size_t>(rank_) * n;
  std::memcpy(recv.data(), left_buf + final_off, n * sizeof(float));
  sync();  // keep workspaces alive until all copied
}

// ----- Broadcast / point-to-point -------------------------------------------

void Communicator::broadcast(std::span<float> data, int root) {
  DCHAG_CHECK(root >= 0 && root < size(), "broadcast root " << root);
  stats_.record(CollectiveKind::kBroadcast, bytes_of_count(data.size()));
  inject_entry_faults(CollectiveKind::kBroadcast);
  if (size() == 1 || data.empty()) {
    inject_exit_faults(CollectiveKind::kBroadcast);
    return;
  }
  auto& st = *state_;
  if (rank_ == root)
    st.send_slots[static_cast<std::size_t>(rank_)] = data.data();
  sync();
  if (rank_ != root) {
    std::memcpy(data.data(), st.send_slots[static_cast<std::size_t>(root)],
                data.size() * sizeof(float));
  }
  sync();
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
        static_cast<int>(members.size()), st.topology.subgroup(members),
        st.fault_plan, st.ledger, std::move(child_world));
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
  // this handle is poisoned, which is exactly when it's needed. The new
  // group gets a flat topology — survivor sets need not respect the
  // original node packing.
  auto group = st.ledger->recovery_group(tag, [&] {
    return std::make_shared<detail::GroupState>(
        static_cast<int>(world_members.size()),
        Topology::flat(static_cast<int>(world_members.size())), st.fault_plan,
        st.ledger, world_members);
  });
  DCHAG_CHECK(group->world_ranks == world_members,
              "split_survivors: tag \"" << tag
                                        << "\" already bound to a different "
                                           "membership");
  return Communicator(std::move(group),
                      static_cast<int>(it - world_members.begin()));
}

// ----- World -----------------------------------------------------------------

World::World(int size, Topology topo) : size_(size), topo_(std::move(topo)) {
  DCHAG_CHECK(size_ > 0, "world size must be positive");
  DCHAG_CHECK(topo_.size() == size_, "topology/world size mismatch");
}

void World::run(const std::function<void(Communicator&)>& fn) {
  auto state = std::make_shared<detail::GroupState>(size_, topo_, fault_plan_);
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
