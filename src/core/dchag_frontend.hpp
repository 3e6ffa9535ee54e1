// D-CHAG: Distributed Cross-Channel Hierarchical Aggregation (paper §3.3,
// Fig. 4) — the paper's primary contribution.
//
// Each rank of the TP/D-CHAG group:
//   1. tokenizes its contiguous slice of the input channels,
//   2. reduces those tokens to ONE channel representation with a local
//      partial-channel aggregation tree (TreeN of -C or -L units),
//   3. AllGathers the single representation per rank (the only front-end
//      communication, forward-only: the backward takes a local slice),
//   4. applies the final cross-attention — whose weights are replicated
//      across the group — over the P gathered representations.
//
// Downstream of step 4 every rank computes on identical data, so the
// replicated parameters stay in sync without gradient synchronisation and
// the rank-local tokenizer/tree parameters train on purely local
// gradients: no communication in the backward pass.
//
// Serving a channel subset (paper §2.1) runs the same four steps over
// fewer channels, through the same code: forward() and forward_subset()
// share one chunk loop with one gather site. The full forward is the
// case where every local channel is present and every rank is kept.
#pragma once

#include <optional>

#include "comm/async.hpp"
#include "model/foundation.hpp"
#include "parallel/dist_tokenizer.hpp"
#include "runtime/context.hpp"
#include "tensor/kernel_config.hpp"

namespace dchag::core {

using model::AggLayerKind;
using model::Index;
using model::ModelConfig;
using parallel::Communicator;
using tensor::Rng;

struct DchagOptions {
  DchagOptions() = default;
  DchagOptions(Index units, AggLayerKind kind)
      : tree_units(units), partial_kind(kind) {}

  /// Paper's TreeN: number of first-level units in the partial module
  /// (0/1 = one unit over all local channels; Fig. 9's best is Tree0).
  Index tree_units = 1;
  /// -C (cross-attention) vs -L (linear) partial layers; the final shared
  /// aggregation is always cross-attention (paper §3.3).
  AggLayerKind partial_kind = AggLayerKind::kLinear;
};

class DchagFrontEnd : public model::FrontEnd {
 public:
  /// All ranks must construct with the same `master_rng` seed — the final
  /// aggregation weights are derived from it and must be replicated.
  ///
  /// `ctx` pins this front-end's execution configuration (kernel backend,
  /// comm mode + pipeline depth, tracing). nullopt = unpinned: every
  /// forward reads the ambient runtime::Context::current() at call time.
  /// A pinned context is still outranked by any runtime::Scope active on
  /// the forwarding thread (the precedence ladder in runtime/context.hpp).
  DchagFrontEnd(const ModelConfig& cfg, Index total_channels,
                Communicator& comm, const DchagOptions& opts,
                Rng& master_rng,
                std::optional<runtime::Context> ctx = std::nullopt);

  /// local_images: [B, C/P, H, W] (this rank's channels, rank order).
  /// Returns [B, S, D], identical on every rank. Runs as K micro-chunks of
  /// the batch (K = the context's pipeline_chunks clamped to [1, B]), each
  /// with one AllGather double-buffered against the next chunk's compute;
  /// K = 1 is one chunk, one gather; every K computes the same math.
  [[nodiscard]] autograd::Variable forward(
      const tensor::Tensor& images) const override;

  /// Distributed channel-subset inference (paper §2.1 under §3.3's layout):
  /// unlike forward(), every rank receives the FULL subset batch
  /// [B, N, H, W] (N == channels.size(), strictly increasing global ids)
  /// and slices its own intersection internally. Ranks owning none of the
  /// subset contribute a zero placeholder to the AllGather (collectives
  /// must stay symmetric) which is dropped before the final aggregation,
  /// so the result matches the subset-only math on every rank. The ids
  /// (an empty list included) are validated on every rank before any
  /// collective. Runs the forward() loop as one chunk on the sync lane, so
  /// it never builds the async lane (a collective split); with every
  /// channel requested it computes exactly forward()'s output.
  [[nodiscard]] autograd::Variable forward_subset(
      const tensor::Tensor& images,
      std::span<const Index> channels) const override;

  /// The rank-local stage only (tokenize + partial aggregation tree ->
  /// this rank's single channel representation [B, S, D]). Contains no
  /// collectives; useful for profiling the localised workload.
  [[nodiscard]] autograd::Variable forward_local_partial(
      const tensor::Tensor& images) const;

  [[nodiscard]] Index local_channels() const override {
    return tokenizer_->local_channels();
  }
  [[nodiscard]] Index total_channels() const {
    return tokenizer_->total_channels();
  }
  [[nodiscard]] const model::AggregationTree& partial_tree() const {
    return *tree_;
  }
  [[nodiscard]] const model::CrossAttentionAggregator& final_aggregator()
      const {
    return *final_;
  }
  [[nodiscard]] Communicator& communicator() const { return *comm_; }
  /// The full effective context a forward on this thread would run under
  /// (pinned construction context, if any, overlaid with active Scopes).
  [[nodiscard]] runtime::Context effective_context() const {
    return runtime::Context::effective_or_current(ctx_);
  }

  /// Elastic-recovery hook (serve/spmd_engine): rebinds this front-end to
  /// a regrouped communicator after a rank failure. `logical_slots` maps
  /// the new group's rank i to the ORIGINAL channel-partition slot it
  /// carries (strictly increasing, values < the construction-time world
  /// size; rank i's entry must be this rank's own original slot). Tears
  /// down the async progress lane (it holds a shadow group of the old
  /// comm) and rebuilds the sync lane; forward_subset and
  /// slice_local_channels consult the slot map, so a degraded group
  /// serves the surviving channels bit-exactly. The full-world forward()
  /// remains valid only when the group is back to the original size (the
  /// final aggregator's width is fixed at construction).
  void rebind(Communicator& comm, std::vector<int> logical_slots);
  /// Current rank -> original channel-slot map (identity until rebind).
  [[nodiscard]] const std::vector<int>& logical_slots() const {
    return logical_slots_;
  }
  /// Group size this front-end was constructed for (the channel-partition
  /// width; survives rebinds to smaller survivor groups).
  [[nodiscard]] int world_size() const { return world_size_; }

  /// The slice of the full input this rank consumes:
  /// images[:, slot*C/P : (slot+1)*C/P] (slot == rank until a rebind).
  [[nodiscard]] tensor::Tensor slice_local_channels(
      const tensor::Tensor& full_images) const;
  [[nodiscard]] tensor::Tensor select_input(
      const tensor::Tensor& full_images) const override {
    return slice_local_channels(full_images);
  }

 private:
  /// The ICollective for `mode`. First async use constructs the
  /// AsyncCommunicator, which is COLLECTIVE (it splits a shadow group) —
  /// all ranks must take their first pipelined async forward together, the
  /// usual symmetric-SPMD contract.
  [[nodiscard]] comm::ICollective& collective_for(comm::CommMode mode) const;

  void check_local_input(const tensor::Tensor& images) const;

  /// Steps 1-2 on `images` [B, N, H, W], whose N slabs are the local
  /// tokenizer's `positions` (also the partial tree's slots) -> [B, S, D].
  /// No positions (a rank owning none of the requested channels) gives a
  /// zero placeholder; only the batch size of `images` is read then.
  [[nodiscard]] autograd::Variable local_partial(
      const tensor::Tensor& images, const std::vector<Index>& positions) const;

  /// The one D-CHAG forward behind forward() and forward_subset(): K batch
  /// micro-chunks of steps 1-2 (local_partial), each with one AllGather
  /// double-buffered against the next chunk's compute (on the `mode` lane
  /// when K > 1, else the sync lane), then step 4 over the `kept` group
  /// ranks' representations. Every rank kept feeds the gathered tensor to
  /// the final cross-attention whole; otherwise the kept ranks are sliced
  /// out and fused at their channel-partition slots.
  [[nodiscard]] autograd::Variable run_chunks(
      const tensor::Tensor& images, const std::vector<Index>& positions,
      const std::vector<Index>& kept, comm::CommMode mode, Index K) const;

  ModelConfig cfg_;
  Communicator* comm_;
  /// Construction-time group size == channel-partition width.
  int world_size_;
  /// Group rank -> original channel slot. Identity until rebind() maps a
  /// survivor group onto the original partition.
  std::vector<int> logical_slots_;
  /// Pinned execution context (nullopt = read the ambient context per
  /// forward).
  std::optional<runtime::Context> ctx_;
  mutable std::optional<comm::SyncCollective> sync_coll_;
  mutable std::unique_ptr<comm::AsyncCommunicator> async_;
  std::unique_ptr<parallel::DistributedTokenizer> tokenizer_;
  std::unique_ptr<model::AggregationTree> tree_;
  std::unique_ptr<model::CrossAttentionAggregator> final_;
};

/// Convenience: full D-CHAG MAE / forecast models (front-end + replicated
/// encoder and head) built from one master seed. `ctx` pins the
/// front-end's execution context exactly as in DchagFrontEnd.
[[nodiscard]] std::unique_ptr<model::MaeModel> make_dchag_mae(
    const ModelConfig& cfg, Index total_channels, Communicator& comm,
    const DchagOptions& opts, Rng& master_rng,
    std::optional<runtime::Context> ctx = std::nullopt);
[[nodiscard]] std::unique_ptr<model::ForecastModel> make_dchag_forecast(
    const ModelConfig& cfg, Index total_channels, Communicator& comm,
    const DchagOptions& opts, Rng& master_rng,
    std::optional<runtime::Context> ctx = std::nullopt);

}  // namespace dchag::core
