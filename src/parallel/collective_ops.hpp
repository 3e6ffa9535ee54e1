// Autograd-integrated collectives: the bridge between the SPMD runtime
// (comm/) and the tape (tensor/autograd.hpp). These encode the
// communication calculus of tensor parallelism (Megatron's f/g conjugate
// pair) and of D-CHAG's forward-only AllGather, whose split-phase form
// (all_gather_cat_start + PendingGatherCat::wait) is the one gather every
// D-CHAG forward issues, on either the sync or the async lane.
#pragma once

#include "comm/async.hpp"
#include "comm/communicator.hpp"
#include "tensor/autograd.hpp"

namespace dchag::parallel {

using autograd::Variable;
using comm::Communicator;
using tensor::Index;

/// Backward behaviour of all_gather_cat.
enum class GatherBackward {
  /// Downstream computation is replicated across ranks, so the incoming
  /// gradient is identical everywhere and each rank can just slice out its
  /// own shard — zero backward communication. This is D-CHAG's key
  /// property (paper §3.3: "during the backward pass, we gather only the
  /// relevant gradients for each GPU, avoiding any additional
  /// communication").
  kLocalSlice,
  /// General case: shards feed rank-dependent computation, so the true
  /// input gradient is the sum of every rank's gradient slice.
  kReduceScatter,
};

/// Megatron "f" op: AllReduce-sum in the forward pass, identity backward.
/// Closes a row-parallel linear (partial sums live on each rank).
[[nodiscard]] Variable reduce_from_parallel(const Variable& x,
                                            Communicator& comm);

/// Megatron "g" op: identity forward, AllReduce-sum backward. Opens a
/// column-parallel region from a replicated activation.
[[nodiscard]] Variable copy_to_parallel(const Variable& x,
                                        Communicator& comm);

/// Concatenates every rank's `x` along `dim` (rank order). All ranks
/// receive the same gathered tensor.
[[nodiscard]] Variable all_gather_cat(const Variable& x, Communicator& comm,
                                      Index dim, GatherBackward backward);

/// Split-phase all_gather_cat: the non-blocking half of D-CHAG's overlap.
/// start() issues the gather on an ICollective and returns immediately;
/// the handle's wait() blocks on the traffic and assembles the
/// concatenated Variable — including the kLocalSlice tape node, so
/// train-mode backward works exactly like the blocking op. The handle owns
/// the receive buffer and pins the input until the gather completes: a
/// handle destroyed unwaited (an exception unwinding its caller) first
/// waits the gather out and drops its error, so the progress thread never
/// touches freed memory. Backward is restricted to kLocalSlice (zero
/// backward communication), which is the only mode the overlap pipeline
/// needs — the general kReduceScatter backward would reintroduce a
/// blocking collective inside the tape.
class PendingGatherCat {
 public:
  PendingGatherCat() = default;
  /// A moved-from handle owns no gather.
  PendingGatherCat(PendingGatherCat&&) = default;
  /// Deleted: assigning over a handle would free buffers its gather may
  /// still be using.
  PendingGatherCat& operator=(PendingGatherCat&&) = delete;
  PendingGatherCat(const PendingGatherCat&) = delete;
  PendingGatherCat& operator=(const PendingGatherCat&) = delete;
  ~PendingGatherCat();

  [[nodiscard]] Variable wait();

 private:
  friend PendingGatherCat all_gather_cat_start(const Variable& x,
                                               comm::ICollective& coll,
                                               Index dim);
  comm::CommFuture future_;
  tensor::Tensor flat_;  ///< [P, numel(x)] receive buffer
  Variable input_;
  Index dim_ = 0;
  int rank_ = 0;
};

[[nodiscard]] PendingGatherCat all_gather_cat_start(const Variable& x,
                                                    comm::ICollective& coll,
                                                    Index dim);

/// Broadcasts the values of `params` from `root`, forcing bit-identical
/// replicated parameters across the group (used at model construction).
void sync_parameters(std::span<const Variable> params, Communicator& comm,
                     int root = 0);

/// True iff `t` holds identical values on every rank (debug/test helper;
/// uses collectives, so call it symmetrically).
[[nodiscard]] bool is_replicated(const tensor::Tensor& t, Communicator& comm,
                                 float tol = 0.0f);

}  // namespace dchag::parallel
