#include "tensor/plan.hpp"

#include <algorithm>
#include <utility>

namespace dchag::tensor::plan {

namespace {

thread_local std::uint64_t t_buffer_allocations = 0;
thread_local Arena* t_active_arena = nullptr;

}  // namespace

std::uint64_t thread_buffer_allocations() { return t_buffer_allocations; }

struct Arena::State {
  mutable std::mutex mu;
  /// Free lists keyed by exact element count; a buffer only ever serves
  /// tensors of the size it was born with, so reuse never over-allocates.
  std::unordered_map<Index, std::vector<std::unique_ptr<AlignedVec>>> pool;
  std::uint64_t fresh = 0;
  std::uint64_t reused = 0;
  /// Cleared by ~Arena: buffers released after it are freed, not parked.
  bool open = true;

  /// A parked buffer of exactly `n` floats, or null on a miss.
  std::unique_ptr<AlignedVec> pop(Index n) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = pool.find(n);
    if (it == pool.end() || it->second.empty()) {
      ++fresh;
      return nullptr;
    }
    std::unique_ptr<AlignedVec> buf = std::move(it->second.back());
    it->second.pop_back();
    ++reused;
    return buf;
  }
};

namespace {

/// A zero-filled heap buffer for a pool miss.
std::unique_ptr<AlignedVec> allocate(Index n) {
  ++t_buffer_allocations;
  return std::make_unique<AlignedVec>(static_cast<std::size_t>(n));
}

}  // namespace

Arena::Arena() : state_(std::make_shared<State>()) {}

Arena::~Arena() {
  decltype(State::pool) parked;  // freed below, outside the lock
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->open = false;
    parked.swap(state_->pool);
  }
}

std::shared_ptr<AlignedVec> Arena::lend(
    std::unique_ptr<AlignedVec> buf) const {
  std::shared_ptr<State> state = state_;
  return std::shared_ptr<AlignedVec>(buf.release(), [state](AlignedVec* p) {
    {
      std::lock_guard<std::mutex> lock(state->mu);
      if (state->open) {
        state->pool[static_cast<Index>(p->size())].emplace_back(p);
        return;
      }
    }
    delete p;
  });
}

std::shared_ptr<AlignedVec> Arena::acquire_raw(Index n) {
  std::unique_ptr<AlignedVec> buf = state_->pop(n);
  if (!buf) buf = allocate(n);
  return lend(std::move(buf));
}

std::shared_ptr<AlignedVec> Arena::acquire(Index n) {
  std::unique_ptr<AlignedVec> buf = state_->pop(n);
  if (buf) {
    std::fill(buf->begin(), buf->end(), 0.0f);
  } else {
    buf = allocate(n);  // born zeroed
  }
  return lend(std::move(buf));
}

Arena::Stats Arena::stats() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  Stats s;
  s.fresh = state_->fresh;
  s.reused = state_->reused;
  for (const auto& [n, free] : state_->pool) {
    (void)n;
    s.pooled += free.size();
  }
  return s;
}

ArenaScope::ArenaScope(Arena& arena) : prev_(t_active_arena) {
  t_active_arena = &arena;
}

ArenaScope::~ArenaScope() { t_active_arena = prev_; }

namespace detail {

std::shared_ptr<AlignedVec> acquire_buffer(Index n) {
  if (t_active_arena != nullptr) return t_active_arena->acquire(n);
  ++t_buffer_allocations;
  return std::make_shared<AlignedVec>(static_cast<std::size_t>(n), 0.0f);
}

std::shared_ptr<AlignedVec> acquire_buffer_raw(Index n) {
  if (t_active_arena != nullptr) return t_active_arena->acquire_raw(n);
  ++t_buffer_allocations;
  return std::make_shared<AlignedVec>(static_cast<std::size_t>(n));
}

}  // namespace detail

}  // namespace dchag::tensor::plan
