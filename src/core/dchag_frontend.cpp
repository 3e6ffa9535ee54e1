#include "core/dchag_frontend.hpp"

#include <algorithm>
#include <array>

namespace dchag::core {

namespace ops = tensor::ops;
using autograd::Variable;
using tensor::Shape;
using tensor::Tensor;

DchagFrontEnd::DchagFrontEnd(const ModelConfig& cfg, Index total_channels,
                             Communicator& comm, const DchagOptions& opts,
                             Rng& master_rng,
                             std::optional<runtime::Context> ctx)
    : cfg_(cfg),
      comm_(&comm),
      world_size_(comm.size()),
      ctx_(std::move(ctx)) {
  cfg_.validate();
  logical_slots_.resize(static_cast<std::size_t>(world_size_));
  for (int r = 0; r < world_size_; ++r)
    logical_slots_[static_cast<std::size_t>(r)] = r;
  sync_coll_.emplace(comm);
  // The async progress lane is built lazily at the first async forward
  // (collective_for), NOT here: front-end construction must stay free of
  // collectives so a rank whose peer fails to construct can still unwind
  // (SpmdEngine's cold-start failure path relies on this).
  Rng tok_rng = master_rng.fork(0xD0C);
  tokenizer_ = std::make_unique<parallel::DistributedTokenizer>(
      cfg_, total_channels, comm, tok_rng);
  register_child(*tokenizer_);

  const Index c_local = tokenizer_->local_channels();
  const Index units =
      std::min<Index>(std::max<Index>(opts.tree_units, 1), c_local);
  Rng tree_rng = master_rng.fork(0x73EE);
  tree_ = model::AggregationTree::with_units(cfg_, opts.partial_kind,
                                             c_local, units, tree_rng,
                                             "dchag.tree");
  register_child(*tree_);

  // Final shared cross-attention over one representation per rank. Its
  // weights derive from the same master stream on every rank, so they are
  // replicated by construction (asserted in tests via is_replicated).
  Rng final_rng = master_rng.fork(0xF17A);
  final_ = std::make_unique<model::CrossAttentionAggregator>(
      cfg_.embed_dim, cfg_.num_heads, comm.size(), cfg_.query_mode,
      final_rng, "dchag.final");
  register_child(*final_);
}

void DchagFrontEnd::rebind(Communicator& comm,
                           std::vector<int> logical_slots) {
  DCHAG_CHECK(static_cast<int>(logical_slots.size()) == comm.size(),
              "rebind: slot map size " << logical_slots.size()
                                       << " != group size " << comm.size());
  int prev = -1;
  for (int s : logical_slots) {
    DCHAG_CHECK(s > prev && s < world_size_,
                "rebind: logical slots must be strictly increasing in [0, "
                    << world_size_ << ")");
    prev = s;
  }
  // Tear down comm-bound lanes BEFORE swapping: the async progress thread
  // holds a shadow group of the old comm. On a poisoned group, queued ops
  // fail fast into their futures, so this join cannot hang.
  async_.reset();
  comm_ = &comm;
  sync_coll_.emplace(comm);
  tokenizer_->rebind(comm);
  logical_slots_ = std::move(logical_slots);
}

Variable DchagFrontEnd::forward_local_partial(const Tensor& images) const {
  // Scope into this front-end's effective context for the local stage
  // (thread-local, so concurrent ranks don't fight over the process
  // default, and pool workers inherit it across the fan-out).
  runtime::Scope scope(effective_context());
  check_local_input(images);
  return local_partial(images, model::detail::all_slots(local_channels()));
}

void DchagFrontEnd::check_local_input(const Tensor& images) const {
  DCHAG_CHECK(images.rank() == 4 && images.dim(1) == local_channels(),
              "DchagFrontEnd expects the rank-local channel slice [B, "
                  << local_channels() << ", H, W], got "
                  << images.shape().to_string());
}

Variable DchagFrontEnd::local_partial(
    const Tensor& images, const std::vector<Index>& positions) const {
  if (positions.empty()) {  // owns none of the channels: a zero placeholder
    return Variable::input(
        Tensor(Shape{images.dim(0), cfg_.seq_len(), cfg_.embed_dim}, 0.0f));
  }
  Variable tokens = tokenizer_->local_tokenizer().forward_for_aggregator(
      images, positions);                          // [B, S, W, D]
  return tree_->forward_subset(tokens, positions);  // [B, S, D]
}

comm::ICollective& DchagFrontEnd::collective_for(comm::CommMode mode) const {
  if (mode == comm::CommMode::kSync) return *sync_coll_;
  if (!async_) async_ = std::make_unique<comm::AsyncCommunicator>(*comm_);
  return *async_;
}

Variable DchagFrontEnd::forward(const Tensor& images) const {
  // One context resolution per forward: everything below (including nested
  // ops on pool workers) runs under it.
  const runtime::Context ctx = effective_context();
  runtime::Scope scope(ctx);
  check_local_input(images);
  // K micro-chunks of the batch; an empty batch is one empty chunk.
  const comm::CommConfig cc = ctx.comm();
  const Index K = std::clamp<Index>(cc.pipeline_chunks, 1,
                                    std::max<Index>(images.dim(0), 1));
  runtime::trace(ctx, "core.forward.pipeline_chunks",
                 static_cast<double>(K));
  return run_chunks(images, model::detail::all_slots(local_channels()),
                    model::detail::all_slots(comm_->size()), cc.mode, K);
}

Variable DchagFrontEnd::forward_subset(
    const Tensor& images, std::span<const Index> channels) const {
  runtime::Scope scope(effective_context());
  DCHAG_CHECK(images.rank() == 4 &&
                  images.dim(1) == static_cast<Index>(channels.size()),
              "forward_subset expects the full subset batch [B, "
                  << channels.size() << ", H, W], got "
                  << images.shape().to_string());
  // Validate the ids up front, before any rank-dependent branching: every
  // rank sees the identical list and slot map, so a malformed request
  // throws uniformly on all ranks and none of them reaches the AllGather
  // (one rank gathering while another throws is a deadlock, not an error).
  DCHAG_CHECK(!channels.empty(), "forward_subset needs at least one channel");
  Index prev = -1;
  for (Index c : channels) {
    DCHAG_CHECK(c > prev && c < total_channels(),
                "subset channel ids must be strictly increasing in [0, "
                    << total_channels() << ")");
    prev = c;
  }
  // The group ranks whose channel slot owns requested ids. Slots are the
  // ORIGINAL partition slots, so after a survivor rebind the final
  // aggregation sees the same kept reps in the same slots as the
  // full-world subset forward would: dropped ranks look exactly like
  // empty-intersection ranks, which is what makes degraded serving
  // bit-exact on the surviving channels.
  const Index c_local = local_channels();
  const auto slot_ids = [&](int r) {
    const Index lo =
        static_cast<Index>(logical_slots_[static_cast<std::size_t>(r)]) *
        c_local;
    const auto first = std::lower_bound(channels.begin(), channels.end(), lo);
    return std::span<const Index>(
        first, std::lower_bound(first, channels.end(), lo + c_local));
  };
  std::vector<Index> kept;
  for (int r = 0; r < comm_->size(); ++r)
    if (!slot_ids(r).empty()) kept.push_back(r);
  DCHAG_CHECK(!kept.empty(),
              "no rank of this group carries any requested channel");

  // This rank's slice of the subset (sorted ids make it contiguous), as
  // one chunk on the sync lane.
  const std::span<const Index> mine = slot_ids(comm_->rank());
  const Tensor local =
      mine.empty() ? images
                   : ops::slice(images, 1, mine.data() - channels.data(),
                                static_cast<Index>(mine.size()));
  return run_chunks(local, tokenizer_->local_tokenizer().local_positions(mine),
                    kept, comm::CommMode::kSync, 1);
}

Variable DchagFrontEnd::run_chunks(const Tensor& images,
                                   const std::vector<Index>& positions,
                                   const std::vector<Index>& kept,
                                   comm::CommMode mode, Index K) const {
  const Index B = images.dim(0);
  const Index S = cfg_.seq_len();
  const Index D = cfg_.embed_dim;
  const int P = comm_->size();
  // A lone chunk has no compute to hide its gather behind, so it takes the
  // sync lane in either mode and never builds the async progress lane.
  comm::ICollective& coll =
      K > 1 && P > 1 ? collective_for(mode) : *sync_coll_;

  // 4. The replicated cross-attention over the kept ranks' representations:
  // the gathered tensor whole when every rank is kept, else the kept ranks'
  // slices at their channel-partition slots.
  const auto fuse = [&](const Variable& gathered) {
    if (static_cast<int>(kept.size()) == P) return final_->forward(gathered);
    std::vector<Variable> parts;
    std::vector<Index> kept_slots;
    for (Index r : kept) {
      parts.push_back(autograd::slice(gathered, 2, r, 1));
      kept_slots.push_back(logical_slots_[static_cast<std::size_t>(r)]);
    }
    return final_->forward_subset(
        parts.size() == 1 ? parts.front() : autograd::concat(parts, 2),
        kept_slots);
  };

  // Software pipeline over K batch micro-chunks with two gather slots:
  //
  //   chunk k   : tokenizer + tree GEMMs -> issue iall_gather into slot k%2
  //   chunk k+1 : tokenizer + tree GEMMs  | slot k traffic in flight
  //   combine k : wait slot k, final cross-attention (the only barrier)
  //
  // A slot is re-armed only after its combine, so at most two gathers are
  // ever in flight and buffers are never overwritten mid-transfer. Under
  // SyncCollective the identical code runs with eager (pre-completed)
  // futures: same chunking, same arithmetic order, bit-identical output —
  // the oracle the FaultyWorld stress tests compare against. The gather is
  // the only front-end communication and it is forward-only: downstream of
  // it every rank computes on identical data, so its backward is a local
  // slice (paper §3.3).
  std::array<std::optional<parallel::PendingGatherCat>, 2> slots;
  std::array<Index, 2> slot_chunk{0, 0};
  std::vector<Variable> outs(static_cast<std::size_t>(K));
  auto combine = [&](std::size_t s) {
    Variable gathered = slots[s]->wait();  // [b, S, P, D]
    slots[s].reset();  // free the receive buffer before the final layer runs
    outs[static_cast<std::size_t>(slot_chunk[s])] = fuse(gathered);
  };

  const Index base = B / K;
  const Index rem = B % K;
  Index off = 0;
  for (Index k = 0; k < K; ++k) {
    const Index len = base + (k < rem ? 1 : 0);
    const auto s = static_cast<std::size_t>(k % 2);
    if (slots[s]) combine(s);  // retire chunk k-2 before re-arming its slot
    // 1-2. Local tokenization + partial aggregation to one representation.
    Variable partial = local_partial(images.slice0(off, len), positions);
    Variable as_channel = autograd::reshape(partial, Shape{len, S, 1, D});
    off += len;
    // 3. With one rank there is nothing to gather: the final
    // cross-attention runs over the lone representation directly.
    if (P == 1) {
      outs[static_cast<std::size_t>(k)] = fuse(as_channel);
      continue;
    }
    slots[s].emplace(
        parallel::all_gather_cat_start(as_channel, coll, /*dim=*/2));
    slot_chunk[s] = k;
  }
  for (Index k = std::max<Index>(K - 2, 0); k < K; ++k) {
    const auto s = static_cast<std::size_t>(k % 2);
    if (slots[s]) combine(s);
  }
  return K == 1 ? outs.front() : autograd::concat(outs, 0);  // [B, S, D]
}

Tensor DchagFrontEnd::slice_local_channels(const Tensor& full_images) const {
  DCHAG_CHECK(full_images.rank() == 4 &&
                  full_images.dim(1) == total_channels(),
              "expected full [B, " << total_channels() << ", H, W], got "
                                   << full_images.shape().to_string());
  const Index c_local = local_channels();
  const Index slot =
      static_cast<Index>(logical_slots_[static_cast<std::size_t>(comm_->rank())]);
  return ops::slice(full_images, 1, slot * c_local, c_local);
}

std::unique_ptr<model::MaeModel> make_dchag_mae(
    const ModelConfig& cfg, Index total_channels, Communicator& comm,
    const DchagOptions& opts, Rng& master_rng,
    std::optional<runtime::Context> ctx) {
  auto frontend = std::make_unique<DchagFrontEnd>(
      cfg, total_channels, comm, opts, master_rng, std::move(ctx));
  Rng task_rng = master_rng.fork(0x3AE);
  return std::make_unique<model::MaeModel>(cfg, std::move(frontend),
                                           total_channels, task_rng);
}

std::unique_ptr<model::ForecastModel> make_dchag_forecast(
    const ModelConfig& cfg, Index total_channels, Communicator& comm,
    const DchagOptions& opts, Rng& master_rng,
    std::optional<runtime::Context> ctx) {
  auto frontend = std::make_unique<DchagFrontEnd>(
      cfg, total_channels, comm, opts, master_rng, std::move(ctx));
  Rng task_rng = master_rng.fork(0x3AF);
  return std::make_unique<model::ForecastModel>(cfg, std::move(frontend),
                                                total_channels, task_rng);
}

}  // namespace dchag::core
