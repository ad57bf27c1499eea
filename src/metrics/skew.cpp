#include "metrics/skew.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "support/check.hpp"
#include "support/stats.hpp"

namespace gtrix {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct NoRow {
  void operator()(std::uint32_t, std::size_t, const double*) const {}
};

/// Pair visitor keeping the worst deviation per wave in `out` (NaN while
/// no pair of that wave was readable).
auto worst_per_wave(std::vector<double>& out) {
  return [&out](std::uint32_t, std::size_t i, double dev) {
    if (!std::isnan(dev) && (std::isnan(out[i]) || dev > out[i])) out[i] = dev;
  };
}

/// The one pair kernel behind every skew measure. Each layer's steady pulse
/// times are read into a dense slab, row s - lo and column base node, over
/// waves [lo, hi + 1] (inter-layer pairs read wave s + 1). A slab holds NaN
/// where the node's pulse is absent, outside its steady window, or the node
/// is faulty, so |t_a - t_b| is NaN exactly for the pairs a measurement
/// skips. Only two slabs (layers l and l + 1) are live at a time: the
/// scratch is O(base nodes x waves), whatever the number of pairs.
class PairSweep {
 public:
  PairSweep(const GridTrace& trace, Sigma lo, Sigma hi, std::uint32_t layer_begin,
            std::uint32_t layer_end)
      : trace_(trace),
        grid_(*trace.grid),
        edges_(grid_.base().edges()),
        lo_(lo),
        waves_(hi >= lo ? static_cast<std::size_t>(hi - lo + 1) : 0),
        width_(grid_.base().node_count()),
        layer_begin_(layer_begin),
        layer_end_(waves_ == 0 ? layer_begin : layer_end) {  // no waves: no pairs
    if (waves_ == 0) return;
    for (Slab& slab : slabs_) {
      slab.times.resize((waves_ + 1) * width_);
      slab.faulty.resize(width_);
    }
  }

  std::size_t waves() const noexcept { return waves_; }

  /// Intra-layer pairs in the order layer -> wave -> edge:
  /// pair(layer, s - lo, |t_a - t_b|), NaN when an endpoint is faulty or has
  /// no steady pulse. row(layer, s - lo, times) sees each wave's row first.
  template <typename Pair, typename Row = NoRow>
  void intra(Pair&& pair, Row&& row = {}) {
    for (std::uint32_t layer = layer_begin_; layer < layer_end_; ++layer) {
      fill(layer, slabs_[0]);
      intra_layer(layer, slabs_[0], pair, row);
    }
  }

  /// Inter-layer pairs |t^{s+1}_{v,l} - t^s_{w,l+1}| in the order
  /// layer -> v -> successor w -> wave: pair(layer, s - lo, deviation).
  /// Pairs with a faulty endpoint are not visited; a missing pulse gives NaN.
  template <typename Pair>
  void inter(Pair&& pair) {
    for (std::uint32_t layer = layer_begin_; layer < layer_end_; ++layer) {
      fill(layer, slab(layer));
      if (layer > layer_begin_) inter_layer(layer - 1, pair);
    }
  }

  /// Every pair, each layer read once, in no promised order.
  template <typename Intra, typename Inter>
  void all(Intra&& intra_pair, Inter&& inter_pair) {
    NoRow no_row;
    for (std::uint32_t layer = layer_begin_; layer < layer_end_; ++layer) {
      fill(layer, slab(layer));
      intra_layer(layer, slab(layer), intra_pair, no_row);
      if (layer > layer_begin_) inter_layer(layer - 1, inter_pair);
    }
  }

 private:
  struct Slab {
    std::vector<double> times;         ///< [wave - lo][base node]
    std::vector<std::uint8_t> faulty;  ///< [base node]
  };

  Slab& slab(std::uint32_t layer) { return slabs_[(layer - layer_begin_) & 1]; }

  void fill(std::uint32_t layer, Slab& slab) const {
    std::fill(slab.times.begin(), slab.times.end(), kNaN);
    const Recorder& rec = *trace_.recorder;
    const std::size_t rows = waves_ + 1;
    for (BaseNodeId v = 0; v < width_; ++v) {
      const GridNodeId g = grid_.id(v, layer);
      slab.faulty[v] = trace_.is_faulty(g);
      if (slab.faulty[v]) continue;
      double* column = slab.times.data() + v;
      // The node's steady window (steady_pulse's filter), clipped to the
      // slab's waves and copied in bulk.
      const RecNodeId id = trace_.rec_id(g);
      const Sigma from = rec.steady_from(id, trace_.node_warmup);
      const Sigma last = rec.last_recorded(id);
      if (from == Recorder::kInvalidSigma || last == Recorder::kInvalidSigma) continue;
      const Sigma first = std::max(lo_, from);
      const Sigma end = std::min(lo_ + static_cast<Sigma>(rows) - 1, last - trace_.node_tail);
      if (first > end) continue;
      rec.pulse_times(id, first, static_cast<std::size_t>(end - first + 1),
                      column + static_cast<std::size_t>(first - lo_) * width_, width_);
    }
  }

  template <typename Pair, typename Row>
  void intra_layer(std::uint32_t layer, const Slab& slab, Pair& pair, Row& row) const {
    for (std::size_t i = 0; i < waves_; ++i) {
      const double* t = slab.times.data() + i * width_;
      row(layer, i, t);
      for (const auto& [a, b] : edges_) pair(layer, i, std::abs(t[a] - t[b]));
    }
  }

  template <typename Pair>
  void inter_layer(std::uint32_t layer, Pair& pair) {
    const Slab& up = slab(layer);
    const Slab& down = slab(layer + 1);
    for (BaseNodeId v = 0; v < width_; ++v) {
      if (up.faulty[v]) continue;
      for (const GridNodeId gw : grid_.successors(grid_.id(v, layer))) {
        const BaseNodeId w = grid_.base_of(gw);
        if (down.faulty[w]) continue;
        const double* tv = up.times.data() + width_ + v;  // wave s + 1
        const double* tw = down.times.data() + w;         // wave s
        for (std::size_t i = 0; i < waves_; ++i) {
          pair(layer, i, std::abs(tv[i * width_] - tw[i * width_]));
        }
      }
    }
  }

  const GridTrace& trace_;
  const Grid& grid_;
  const std::vector<std::pair<BaseNodeId, BaseNodeId>> edges_;
  const Sigma lo_;
  const std::size_t waves_;
  const std::size_t width_;
  const std::uint32_t layer_begin_;
  const std::uint32_t layer_end_;
  std::array<Slab, 2> slabs_;
};

}  // namespace

std::optional<SimTime> GridTrace::steady_pulse(GridNodeId g, Sigma s) const {
  const RecNodeId id = rec_id(g);
  const Sigma from = recorder->steady_from(id, node_warmup);
  if (from == Recorder::kInvalidSigma || s < from) return std::nullopt;
  const Sigma last = recorder->last_recorded(id);
  if (last == Recorder::kInvalidSigma || s > last - node_tail) return std::nullopt;
  return recorder->pulse_time(id, s);
}

SkewReport compute_skew(const GridTrace& trace, Sigma lo, Sigma hi) {
  GTRIX_CHECK(trace.grid != nullptr && trace.recorder != nullptr);
  const std::uint32_t layers = trace.grid->layers();

  SkewReport report;
  report.sigma_lo = lo;
  report.sigma_hi = hi;
  report.intra_by_layer.assign(layers, 0.0);
  report.inter_by_layer.assign(layers > 0 ? layers - 1 : 0, 0.0);
  report.spread_by_layer.assign(layers, 0.0);

  PairSweep sweep(trace, lo, hi, 0, layers);
  // The deviation sum follows the fixed visiting order (all intra pairs,
  // then all inter pairs), so the mean is the same double on every run; the
  // exact quantiles take their first pass alongside.
  RadixQuantiles quantiles({0.50, 0.90, 0.99});
  double sum = 0.0;
  const auto check = [&](double& worst, double dev) {
    if (std::isnan(dev)) {
      ++report.pairs_skipped;
      return;
    }
    ++report.pairs_checked;
    worst = std::max(worst, dev);
    sum += dev;
    quantiles.add(dev);
  };
  sweep.intra(
      [&](std::uint32_t layer, std::size_t, double dev) {
        check(report.intra_by_layer[layer], dev);
      },
      [&](std::uint32_t layer, std::size_t, const double* t) {
        // Layer spread (global skew component) over the wave's steady pulses.
        double tmin = std::numeric_limits<double>::infinity();
        double tmax = -std::numeric_limits<double>::infinity();
        for (std::size_t v = 0; v < trace.grid->base().node_count(); ++v) {
          if (std::isnan(t[v])) continue;
          tmin = std::min(tmin, t[v]);
          tmax = std::max(tmax, t[v]);
        }
        double& spread = report.spread_by_layer[layer];
        if (tmax >= tmin) spread = std::max(spread, tmax - tmin);
      });
  // Inter-layer pairs with a faulty endpoint are never visited, so unlike
  // intra pairs they do not count as skipped (only a missing pulse does).
  sweep.inter([&](std::uint32_t layer, std::size_t, double dev) {
    check(report.inter_by_layer[layer], dev);
  });

  for (std::uint32_t layer = 0; layer < layers; ++layer) {
    report.max_intra = std::max(report.max_intra, report.intra_by_layer[layer]);
    report.global_skew = std::max(report.global_skew, report.spread_by_layer[layer]);
  }
  for (const double inter : report.inter_by_layer) {
    report.max_inter = std::max(report.max_inter, inter);
  }
  report.local_skew = std::max(report.max_intra, report.max_inter);

  report.deviations.count = report.pairs_checked;
  report.deviations.exact = true;
  const auto add = [&](std::uint32_t, std::size_t, double dev) {
    if (!std::isnan(dev)) quantiles.add(dev);
  };
  while (quantiles.next_pass()) sweep.all(add, add);
  if (report.pairs_checked > 0) {
    report.deviations.mean = sum / static_cast<double>(report.pairs_checked);
    report.deviations.p50 = quantiles.value(0);
    report.deviations.p90 = quantiles.value(1);
    report.deviations.p99 = quantiles.value(2);
  }
  return report;
}

std::vector<double> intra_skew_by_sigma(const GridTrace& trace, std::uint32_t layer,
                                        Sigma lo, Sigma hi) {
  PairSweep sweep(trace, lo, hi, layer, layer + 1);
  std::vector<double> out(sweep.waves(), kNaN);
  sweep.intra(worst_per_wave(out));
  return out;
}

std::vector<double> local_skew_by_sigma(const GridTrace& trace, Sigma lo, Sigma hi) {
  PairSweep sweep(trace, lo, hi, 0, trace.grid->layers());
  std::vector<double> out(sweep.waves(), kNaN);
  sweep.all(worst_per_wave(out), worst_per_wave(out));
  return out;
}

std::pair<Sigma, Sigma> default_window(const Recorder& recorder, Sigma warmup) {
  (void)warmup;  // per-node steady filtering handles transients; the global
                 // window just bounds the sigma sweep.
  if (recorder.min_sigma() == Recorder::kInvalidSigma) return {0, -1};
  return {recorder.min_sigma(), recorder.max_sigma()};
}

}  // namespace gtrix
