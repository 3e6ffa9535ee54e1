#include "model/tokenizer.hpp"

#include <algorithm>
#include <numeric>

#include "tensor/dispatch.hpp"

namespace dchag::model {

namespace ops = tensor::ops;

namespace {

/// Patch extraction is pure data movement over independent (b, c) image
/// planes — fan planes out via the shared kernel dispatch policy. The
/// grain scales with plane size so tiny inputs stay on the fast serial
/// path instead of paying a pool fork/join for a 2 KB copy.
template <typename F>
void for_each_plane(tensor::Index planes, tensor::Index plane_elems, F&& fn) {
  const tensor::Index grain = std::max<tensor::Index>(
      1, tensor::kDispatchGrain / std::max<tensor::Index>(1, plane_elems));
  tensor::dispatch_range(planes, grain,
                         [&](tensor::Index lo, tensor::Index hi) {
                           for (tensor::Index p = lo; p < hi; ++p) fn(p);
                         });
}

}  // namespace

Tensor patchify(const Tensor& images, Index patch) {
  DCHAG_CHECK(images.rank() == 4, "patchify expects [B, C, H, W], got "
                                      << images.shape().to_string());
  const Index B = images.dim(0);
  const Index C = images.dim(1);
  const Index H = images.dim(2);
  const Index W = images.dim(3);
  DCHAG_CHECK(H % patch == 0 && W % patch == 0,
              "image " << H << "x" << W << " not divisible by patch "
                       << patch);
  const Index gh = H / patch;
  const Index gw = W / patch;
  Tensor out(Shape{B, C, gh * gw, patch * patch});
  const float* src = images.data();
  float* dst = out.data();
  for_each_plane(B * C, H * W, [&](Index plane) {
    const float* img = src + plane * H * W;
    float* chan = dst + plane * gh * gw * patch * patch;
    for (Index py = 0; py < gh; ++py) {
      for (Index px = 0; px < gw; ++px) {
        float* cell = chan + (py * gw + px) * patch * patch;
        for (Index y = 0; y < patch; ++y) {
          const float* row = img + (py * patch + y) * W + px * patch;
          for (Index x = 0; x < patch; ++x) cell[y * patch + x] = row[x];
        }
      }
    }
  });
  return out;
}

Tensor unpatchify(const Tensor& patches, Index patch, Index h, Index w) {
  DCHAG_CHECK(patches.rank() == 4, "unpatchify expects [B, C, S, p*p]");
  const Index B = patches.dim(0);
  const Index C = patches.dim(1);
  const Index gh = h / patch;
  const Index gw = w / patch;
  DCHAG_CHECK(patches.dim(2) == gh * gw &&
                  patches.dim(3) == patch * patch,
              "unpatchify shape mismatch: " << patches.shape().to_string());
  Tensor out(Shape{B, C, h, w});
  const float* src = patches.data();
  float* dst = out.data();
  for_each_plane(B * C, h * w, [&](Index plane) {
    const float* chan = src + plane * gh * gw * patch * patch;
    float* img = dst + plane * h * w;
    for (Index py = 0; py < gh; ++py) {
      for (Index px = 0; px < gw; ++px) {
        const float* cell = chan + (py * gw + px) * patch * patch;
        for (Index y = 0; y < patch; ++y) {
          float* row = img + (py * patch + y) * w + px * patch;
          for (Index x = 0; x < patch; ++x) row[x] = cell[y * patch + x];
        }
      }
    }
  });
  return out;
}

namespace {
std::vector<Index> iota_channels(Index channels) {
  std::vector<Index> ids(static_cast<std::size_t>(channels));
  std::iota(ids.begin(), ids.end(), Index{0});
  return ids;
}
}  // namespace

PatchTokenizer::PatchTokenizer(const ModelConfig& cfg,
                               std::vector<Index> channel_ids, Rng& rng)
    : cfg_(cfg), channel_ids_(std::move(channel_ids)) {
  cfg_.validate();
  DCHAG_CHECK(!channel_ids_.empty(), "tokenizer needs at least one channel");
  const Index p2 = cfg_.patch_size * cfg_.patch_size;
  const Index d = cfg_.embed_dim;
  embeds_.reserve(channel_ids_.size());
  Tensor chan_emb(Shape{num_channels(), d});
  for (std::size_t i = 0; i < channel_ids_.size(); ++i) {
    const Index gid = channel_ids_[i];
    // Weights derive from the *global* channel id so that any partition of
    // the channels across ranks reproduces the same per-channel weights.
    Rng chan_rng = rng.fork(static_cast<std::uint64_t>(gid) + 1);
    embeds_.push_back(std::make_unique<Linear>(
        p2, d, chan_rng, "tokenizer.embed" + std::to_string(gid)));
    register_child(*embeds_.back());
    Tensor e = chan_rng.normal_tensor(Shape{d}, 0.0f, 0.02f);
    std::copy(e.span().begin(), e.span().end(),
              chan_emb.data() + static_cast<Index>(i) * d);
  }
  channel_emb_ = register_param("tokenizer.channel_emb", chan_emb);
  Rng pos_rng = rng.fork(0);
  pos_emb_ = register_param(
      "tokenizer.pos_emb",
      pos_rng.normal_tensor(Shape{cfg_.seq_len(), d}, 0.0f, 0.02f));
}

PatchTokenizer::PatchTokenizer(const ModelConfig& cfg, Index channels,
                               Rng& rng)
    : PatchTokenizer(cfg, iota_channels(channels), rng) {}

Variable PatchTokenizer::forward(const Tensor& images) const {
  return forward_at_positions(images, iota_channels(num_channels()));
}

std::vector<Index> PatchTokenizer::local_positions(
    std::span<const Index> channels) const {
  std::vector<Index> positions;
  positions.reserve(channels.size());
  Index prev = -1;
  for (Index gid : channels) {
    DCHAG_CHECK(gid > prev, "subset channels must be strictly increasing");
    prev = gid;
    const auto it =
        std::find(channel_ids_.begin(), channel_ids_.end(), gid);
    DCHAG_CHECK(it != channel_ids_.end(),
                "channel " << gid << " is not tokenized by this tokenizer");
    positions.push_back(
        static_cast<Index>(std::distance(channel_ids_.begin(), it)));
  }
  return positions;
}

Variable PatchTokenizer::forward_subset(
    const Tensor& images, std::span<const Index> channels) const {
  return forward_at_positions(images, local_positions(channels));
}

Variable PatchTokenizer::forward_at_positions(
    const Tensor& images, const std::vector<Index>& positions) const {
  return embed(images, positions, /*spatial_major=*/false);
}

Variable PatchTokenizer::forward_for_aggregator(
    const Tensor& images, const std::vector<Index>& positions) const {
  return embed(images, positions, /*spatial_major=*/true);
}

Variable PatchTokenizer::embed(const Tensor& images,
                               const std::vector<Index>& positions,
                               bool spatial_major) const {
  DCHAG_CHECK(!positions.empty(), "tokenization needs >= 1 channel");
  DCHAG_CHECK(images.rank() == 4 &&
                  images.dim(1) == static_cast<Index>(positions.size()),
              "tokenizer expects [B, " << positions.size()
                                       << ", H, W], got "
                                       << images.shape().to_string());
  for (Index pos : positions) {
    DCHAG_CHECK(pos >= 0 && pos < num_channels(),
                "tokenizer position " << pos << " out of [0, "
                                      << num_channels() << ")");
  }
  Tensor patches = patchify(images, cfg_.patch_size);  // [B, N, S, p2]
  if (is_frozen() && !autograd::is_grad_enabled()) {
    return Variable::input(embed_frozen(patches, positions, spatial_major));
  }
  const Index B = images.dim(0);
  const Index S = cfg_.seq_len();
  const Index p2 = cfg_.patch_size * cfg_.patch_size;
  std::vector<Variable> per_channel;
  per_channel.reserve(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Index pos = positions[i];
    Tensor chan = tensor::ops::slice(patches, 1, static_cast<Index>(i), 1)
                      .reshape(Shape{B, S, p2});
    Variable tok = embeds_[static_cast<std::size_t>(pos)]->forward(
        Variable::input(chan));                          // [B, S, D]
    Variable cid = autograd::slice(channel_emb_, 0, pos, 1);  // [1, D]
    tok = autograd::add(tok, cid);      // broadcast channel-ID embedding
    tok = autograd::add(tok, pos_emb_); // broadcast positional embedding
    per_channel.push_back(
        autograd::reshape(tok, Shape{B, 1, S, cfg_.embed_dim}));
  }
  Variable tokens = per_channel.size() == 1
                        ? per_channel.front()
                        : autograd::concat(per_channel, 1);  // [B, N, S, D]
  return spatial_major ? autograd::permute(tokens, {0, 2, 1, 3}) : tokens;
}

Tensor PatchTokenizer::embed_frozen(const Tensor& patches,
                                    const std::vector<Index>& positions,
                                    bool spatial_major) const {
  const Index B = patches.dim(0);
  const Index N = patches.dim(1);
  const Index S = cfg_.seq_len();
  const Index p2 = cfg_.patch_size * cfg_.patch_size;
  const Index D = cfg_.embed_dim;
  const float* chan_emb = channel_emb_.value().data();
  // Every requested channel's Linear and pre-packed panels, fetched up
  // front so a stale-weight check throws here, on the calling thread,
  // before any product runs.
  struct Channel {
    const Linear* lin;
    const tensor::gemm::PackedB* panels;
    const float* cid;  // its channel-ID embedding row
  };
  std::vector<Channel> chans;
  chans.reserve(positions.size());
  for (Index pos : positions) {
    const Linear& lin = *embeds_[static_cast<std::size_t>(pos)];
    const tensor::gemm::PackedB* panels = lin.serving_panels();
    DCHAG_CHECK(panels != nullptr,
                "frozen tokenizer has no packed panels for channel "
                    << channel_ids_[static_cast<std::size_t>(pos)]);
    chans.push_back({&lin, panels, chan_emb + pos * D});
  }
  // Item t = (b, i) embeds channel i of image b: S rows of D written at
  // row stride D into [B, N, S, D], or N*D into [B, S, N, D].
  Tensor out(spatial_major ? Shape{B, S, N, D} : Shape{B, N, S, D});
  const Index ldc = spatial_major ? N * D : D;
  const float* pp = patches.data();
  float* po = out.data();
  const float* pos_emb = pos_emb_.value().data();
  tensor::ops::gemm_items(
      B * N, S, D, p2,
      [&](Index t) {
        const Index b = t / N;
        const Index i = t % N;
        const Channel& c = chans[static_cast<std::size_t>(i)];
        return tensor::ops::GemmItem{
            .a = pp + t * S * p2,
            .lda = p2,
            .b = c.lin->weight().value().data(),
            .ldb = D,
            .packed = c.panels,
            .c = po + (spatial_major ? b * S * N * D + i * D : t * S * D),
            .ldc = ldc};
      },
      [&](Index t, const tensor::ops::GemmItem& g) {
        // The unfrozen chain's three adds in its order: the Linear's bias,
        // then the channel-ID and positional embeddings.
        const Channel& c = chans[static_cast<std::size_t>(t % N)];
        const float* bias = c.lin->bias().value().data();
        for (Index s = 0; s < S; ++s) {
          float* row = g.c + s * g.ldc;
          const float* pe = pos_emb + s * D;
          for (Index j = 0; j < D; ++j)
            row[j] = ((row[j] + bias[j]) + c.cid[j]) + pe[j];
        }
      });
  return out;
}

}  // namespace dchag::model
