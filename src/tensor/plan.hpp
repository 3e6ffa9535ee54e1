// Static memory plan for repeated passes (the serving forward, the
// training step): a size-keyed arena of aligned, reusable tensor buffers.
//
// A forward pass builds the same graph every request, and a training
// step the same graph and tape every step, so the multiset of buffer
// sizes allocated is identical from one pass to the next. Installing an
// ArenaScope on a thread reroutes every Tensor construction on that
// thread through the arena: the first pass per shape populates the pool
// (warm-up), and every later pass draws exclusively from it — zero heap
// allocations in steady state, which tests and the serving bench gate on
// via thread_buffer_allocations(). Engine and SpmdEngine own one for
// serving; train_mae, train_forecast and evaluate_forecast_rmse each own
// one for their loop.
//
// Lifetime: buffers carry a deleter owning a reference to the arena's
// shared state, so tensors that escape the scope (responses, the SPMD
// published result, parameter gradients after a training loop) stay
// valid past it. While the Arena lives, a released buffer returns to
// the pool; once it is destroyed, the parked buffers are freed and a
// buffer released later is freed too, so an escaped tensor keeps only
// its own buffer alive. The pool is mutex-protected: one Engine-owned
// arena is shared by every server worker thread.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "tensor/align.hpp"
#include "tensor/shape.hpp"

namespace dchag::tensor::plan {

/// Physical buffer allocations (operator new of an AlignedVec) performed
/// on the CALLING thread since it started — arena reuses do not count.
/// The serving steady-state contract is that this stays flat across a
/// warmed-up forward.
[[nodiscard]] std::uint64_t thread_buffer_allocations();

class Arena {
 public:
  struct Stats {
    std::uint64_t fresh = 0;   ///< pool misses (heap allocations)
    std::uint64_t reused = 0;  ///< pool hits
    std::uint64_t pooled = 0;  ///< buffers currently parked in the pool
  };

  Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  /// Frees the parked buffers. Buffers still in use stay valid and are
  /// freed, not parked, when their last Tensor dies.
  ~Arena();

  /// A zero-filled buffer of exactly `n` floats, pooled if available.
  [[nodiscard]] std::shared_ptr<AlignedVec> acquire(Index n);
  /// Same, but contents are unspecified (reused buffers keep stale data);
  /// callers must overwrite every element.
  [[nodiscard]] std::shared_ptr<AlignedVec> acquire_raw(Index n);

  [[nodiscard]] Stats stats() const;

 private:
  struct State;
  /// Wraps `buf` with the deleter that parks it here (see Lifetime).
  [[nodiscard]] std::shared_ptr<AlignedVec> lend(
      std::unique_ptr<AlignedVec> buf) const;

  std::shared_ptr<State> state_;
};

/// RAII: routes Tensor buffer acquisition on this thread through `arena`
/// for the scope's lifetime. Nests; restores the previous arena (or none)
/// on destruction.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena);
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* prev_;
};

namespace detail {
/// Tensor's allocation hook: the active arena's acquire (zeroed /
/// uninitialised) when an ArenaScope is installed on this thread, a plain
/// counted heap allocation otherwise.
[[nodiscard]] std::shared_ptr<AlignedVec> acquire_buffer(Index n);
[[nodiscard]] std::shared_ptr<AlignedVec> acquire_buffer_raw(Index n);
}  // namespace detail

}  // namespace dchag::tensor::plan
