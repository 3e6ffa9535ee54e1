#include "model/aggregation.hpp"

namespace dchag::model {

TreePlan plan_tree(Index channels, Index max_group_width) {
  DCHAG_CHECK(channels > 0, "plan_tree: channels must be positive");
  DCHAG_CHECK(max_group_width > 1 || channels == 1,
              "plan_tree: max_group_width must be > 1");
  TreePlan plan;
  Index tokens = channels;
  while (tokens > 1) {
    const Index groups = (tokens + max_group_width - 1) / max_group_width;
    std::vector<Index> widths(static_cast<std::size_t>(groups));
    // Distribute tokens as evenly as possible across the groups.
    const Index base = tokens / groups;
    const Index rem = tokens % groups;
    for (Index g = 0; g < groups; ++g)
      widths[static_cast<std::size_t>(g)] = base + (g < rem ? 1 : 0);
    plan.level_widths.push_back(std::move(widths));
    tokens = groups;
  }
  if (plan.level_widths.empty()) {
    // Single channel still passes through one unit so the module always
    // applies learned aggregation (and has stable parameter counts).
    plan.level_widths.push_back({1});
  }
  return plan;
}

Index tree_units_to_width(Index channels, Index units) {
  if (units <= 1) return channels;
  DCHAG_CHECK(units <= channels,
              "TreeN with N=" << units << " > channels " << channels);
  const Index width = (channels + units - 1) / units;
  // Width-1 units cannot reduce anything; degenerate TreeN requests (N ==
  // channels) clamp to the narrowest reducing tree.
  return std::max<Index>(width, channels > 1 ? 2 : 1);
}

Index tree_params(const ModelConfig& cfg, AggLayerKind kind,
                  const TreePlan& plan) {
  Index total = 0;
  for (const auto& level : plan.level_widths)
    for (Index w : level) total += cfg.aggregator_params(kind, w);
  return total;
}

AggregationTree::AggregationTree(const ModelConfig& cfg, AggLayerKind kind,
                                 Index channels, Index max_group_width,
                                 Rng& rng, const std::string& name)
    : cfg_(cfg),
      channels_(channels),
      plan_(plan_tree(channels, max_group_width)) {
  units_.resize(plan_.level_widths.size());
  for (std::size_t lvl = 0; lvl < plan_.level_widths.size(); ++lvl) {
    const auto& widths = plan_.level_widths[lvl];
    units_[lvl].reserve(widths.size());
    for (std::size_t g = 0; g < widths.size(); ++g) {
      auto unit = make_aggregator(
          kind, cfg.embed_dim, cfg.num_heads, widths[g], cfg.query_mode, rng,
          name + ".l" + std::to_string(lvl) + "u" + std::to_string(g));
      register_child(*unit);
      units_[lvl].push_back(std::move(unit));
    }
  }
}

std::unique_ptr<AggregationTree> AggregationTree::with_units(
    const ModelConfig& cfg, AggLayerKind kind, Index channels, Index units,
    Rng& rng, const std::string& name) {
  return std::make_unique<AggregationTree>(
      cfg, kind, channels, tree_units_to_width(channels, units), rng, name);
}

Variable AggregationTree::forward(const Variable& tokens) const {
  return forward_subset(tokens, detail::all_slots(channels_));
}

Variable AggregationTree::forward_subset(
    const Variable& tokens, std::span<const Index> slots) const {
  const auto& s = tokens.shape();
  DCHAG_CHECK(s.rank() == 4 && s.dim(3) == cfg_.embed_dim,
              "tree expects [B, S, W, " << cfg_.embed_dim << "], got "
                                        << s.to_string());
  detail::check_subset_slots(slots, channels_, s.dim(2));
  const Index B = s.dim(0);
  const Index S = s.dim(1);
  const Index D = s.dim(3);

  // `present` lists the full-width slots the current tokens occupy, in
  // order; `current` holds one token per present slot. The full set keeps
  // every slot of every level present.
  std::vector<Index> present(slots.begin(), slots.end());
  Variable current = tokens;
  for (std::size_t lvl = 0; lvl < units_.size(); ++lvl) {
    const auto& widths = plan_.level_widths[lvl];
    std::vector<Variable> outputs;
    std::vector<Index> next_present;
    Index group_off = 0;     // first full-width slot owned by group g
    std::size_t cursor = 0;  // next unconsumed entry of `present`
    for (std::size_t g = 0; g < widths.size(); ++g) {
      std::vector<Index> local;
      const std::size_t start = cursor;
      while (cursor < present.size() &&
             present[cursor] < group_off + widths[g]) {
        local.push_back(present[cursor] - group_off);
        ++cursor;
      }
      if (!local.empty()) {
        Variable group = autograd::slice(
            current, 2, static_cast<Index>(start),
            static_cast<Index>(local.size()));
        Variable reduced = units_[lvl][g]->forward_subset(group, local);
        outputs.push_back(
            autograd::reshape(reduced, tensor::Shape{B, S, 1, D}));
        next_present.push_back(static_cast<Index>(g));
      }
      group_off += widths[g];
    }
    current = outputs.size() == 1 ? outputs.front()
                                  : autograd::concat(outputs, 2);
    present = std::move(next_present);
  }
  return autograd::reshape(current, tensor::Shape{B, S, D});
}

}  // namespace dchag::model
