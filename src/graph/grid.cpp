#include "graph/grid.hpp"

#include "support/check.hpp"

namespace gtrix {

Grid::Grid(BaseGraph base, std::uint32_t layers) : base_(std::move(base)), layers_(layers) {
  GTRIX_CHECK_MSG(layers >= 1, "grid needs at least one layer");
  const std::uint32_t bn = base_.node_count();
  // The node-id space is uint32 with one sentinel reserved (the line-mode
  // clock source gets id node_count). Check the 64-bit product BEFORE any
  // per-node allocation, so an overflowing mega-grid shape fails with the
  // offending dimensions instead of truncating into a small wrong grid.
  (void)checked_u32_mul(layers, bn,
                        "grid node count (" + std::to_string(layers) + " layers x " +
                            std::to_string(bn) + " base nodes)");
  // Predecessor/successor lists are identical for every layer >= 1 (resp.
  // < layers-1) up to an offset of bn: one template per base node, own copy
  // first, then the base neighbours.
  std::vector<BaseNodeId> tmpl_ids;
  std::vector<std::uint32_t> tmpl_offsets{0};
  for (BaseNodeId v = 0; v < bn; ++v) {
    tmpl_ids.push_back(v);
    for (BaseNodeId w : base_.neighbors(v)) tmpl_ids.push_back(w);
    tmpl_offsets.push_back(static_cast<std::uint32_t>(tmpl_ids.size()));
  }
  const std::size_t per_layer = tmpl_ids.size();
  const std::size_t inter_layers = layers_ - 1;
  pred_ids_.reserve(per_layer * inter_layers);
  succ_ids_.reserve(per_layer * inter_layers);
  pred_offsets_.reserve(node_count() + 1);
  succ_offsets_.reserve(node_count() + 1);
  pred_offsets_.push_back(0);
  succ_offsets_.push_back(0);
  for (std::uint32_t l = 0; l < layers_; ++l) {
    for (BaseNodeId v = 0; v < bn; ++v) {
      for (std::uint32_t i = tmpl_offsets[v]; i < tmpl_offsets[v + 1]; ++i) {
        if (l >= 1) pred_ids_.push_back(id(tmpl_ids[i], l - 1));
        if (l + 1 < layers_) succ_ids_.push_back(id(tmpl_ids[i], l + 1));
      }
      pred_offsets_.push_back(static_cast<std::uint32_t>(pred_ids_.size()));
      succ_offsets_.push_back(static_cast<std::uint32_t>(succ_ids_.size()));
    }
  }
}

GridNodeId Grid::id(BaseNodeId v, std::uint32_t layer) const {
  GTRIX_CHECK(v < base_.node_count() && layer < layers_);
  return layer * base_.node_count() + v;
}

std::span<const GridNodeId> Grid::predecessors(GridNodeId id) const {
  GTRIX_CHECK(id < node_count());
  return {pred_ids_.data() + pred_offsets_[id], pred_offsets_[id + 1] - pred_offsets_[id]};
}

std::span<const GridNodeId> Grid::successors(GridNodeId id) const {
  GTRIX_CHECK(id < node_count());
  return {succ_ids_.data() + succ_offsets_[id], succ_offsets_[id + 1] - succ_offsets_[id]};
}

std::string Grid::label(GridNodeId id) const {
  return "(" + base_.label(base_of(id)) + ", " + std::to_string(layer_of(id)) + ")";
}

std::uint64_t Grid::edge_count() const noexcept { return succ_ids_.size(); }

}  // namespace gtrix
