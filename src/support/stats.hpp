// Small statistics helpers used by metrics and benchmark harnesses.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace gtrix {

class CkptWriter;
class CkptCursor;

/// Streaming summary accumulator (Welford's online algorithm for variance).
class Summary {
 public:
  void add(double x) noexcept;

  /// Merges another summary into this one (parallel Welford combine).
  void merge(const Summary& other) noexcept;

  /// Checkpoint hooks (src/ckpt/state_ckpt.cpp): all six accumulator words.
  void checkpoint_save(CkptWriter& w) const;
  void checkpoint_restore(CkptCursor& r);

  std::size_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }
  double mean() const noexcept;
  double variance() const noexcept;  ///< population variance
  double stddev() const noexcept;
  double min() const noexcept;
  double max() const noexcept;
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Streaming quantile estimator (Jain & Chlamtac's P-squared algorithm):
/// five markers track the target quantile in O(1) memory and O(1) time per
/// observation, independent of stream length. Exact for the first five
/// observations, an estimate afterwards; the error is a property of the
/// sample distribution, not of the stream length (typically well under a
/// few percent of the sample range for unimodal data -- see
/// docs/scaling.md, "Quantile estimator error"). Deterministic: the same
/// observation sequence always yields the same estimate, so streaming-mode
/// campaign output stays byte-stable across thread counts.
class P2Quantile {
 public:
  /// `q` in (0, 1): the target quantile (0.5 = median).
  explicit P2Quantile(double q);

  void add(double x) noexcept;
  std::size_t count() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }

  /// Current estimate; NaN while empty. Exact while count() <= 5.
  double value() const noexcept;

 private:
  double q_;
  std::size_t n_ = 0;
  double heights_[5] = {};        ///< marker heights q_0..q_4
  double positions_[5] = {};      ///< actual marker positions n_i
  double desired_[5] = {};        ///< desired marker positions n'_i
  double increments_[5] = {};     ///< dn'_i per observation
};

/// Streaming quantile sketch over non-negative values with a GUARANTEED
/// relative value error (DDSketch-style logarithmic binning): each
/// observation lands in the bin whose geometric midpoint is within
/// `relative_error` of it, so any reported quantile is within
/// `relative_error` of a true order statistic at that rank -- independent
/// of the distribution's shape. This is what the streaming metrics path
/// uses for skew-deviation percentiles: unlike P-squared markers, the
/// bound holds for multimodal and point-mass distributions too (the Fig. 5
/// oscillation workload wedges P2's p90 marker; see docs/scaling.md).
/// Memory is a fixed ~2000-bin count array; fully deterministic.
class LogQuantileSketch {
 public:
  explicit LogQuantileSketch(double relative_error = 0.01);

  /// x must be >= 0; values below 1e-9 count as zero.
  void add(double x) noexcept;
  std::size_t count() const noexcept { return total_; }
  bool empty() const noexcept { return total_ == 0; }

  /// Value within relative_error of the rank-floor(q*(n-1)) order
  /// statistic; NaN while empty. q in [0, 1].
  double quantile(double q) const noexcept;

  std::uint64_t memory_bytes() const noexcept;

  /// Checkpoint hooks (src/ckpt/state_ckpt.cpp): bin counts and totals; the
  /// binning parameters are construction state and must already match.
  void checkpoint_save(CkptWriter& w) const;
  void checkpoint_restore(CkptCursor& r);

 private:
  double gamma_;
  double inv_log_gamma_;
  std::int32_t min_index_;
  std::vector<std::uint64_t> counts_;  ///< bin i covers gamma^(i-1)..gamma^i
  std::uint64_t zero_ = 0;
  std::uint64_t overflow_high_ = 0;    ///< beyond the top bin (kept at top value)
  std::size_t total_ = 0;
};

/// Exact type-7 quantiles of a multiset of finite, non-negative doubles
/// that the caller enumerates again instead of storing. For such values the
/// IEEE-754 bit patterns order like uint64, so each needed order statistic
/// (ranks floor(q(n-1)) and the one above it) is narrowed MSB first by
/// radix histograms, 2^16 buckets and 16 bits of the answer per pass. Once
/// the buckets holding the ranks contain at most kGatherCap samples in all,
/// the next pass collects just those samples and selects among them; a
/// multiset of at most kGatherCap samples is kept whole by the first pass
/// and needs no second one. Four passes at most; memory is one histogram per
/// distinct bucket still in play (at most two per quantile; 32-bit counts
/// after the first pass) or at most kGatherCap samples, independent of the
/// sample count.
///
///   RadixQuantiles quantiles({0.5, 0.9});
///   do {
///     for (double x : samples) quantiles.add(x);
///   } while (quantiles.next_pass());
///   quantiles.value(1);  // exact p90
///
/// Every pass must add the same multiset (the order is free).
class RadixQuantiles {
 public:
  static constexpr std::size_t kGatherCap = std::size_t{1} << 16;

  /// `qs` ascending, each in [0, 1].
  explicit RadixQuantiles(std::vector<double> qs);

  void add(double x) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    if (pass_ == 0) {
      // The first kGatherCap samples are kept as they are; past that, they
      // and the rest go to the top-digit histogram.
      if (++count_ <= kGatherCap) {
        gathered_.push_back(x);
        return;
      }
      if (count_ == kGatherCap + 1) spill();
      ++top_[bits >> 48];
      return;
    }
    const std::uint64_t prefix = bits >> (64 - 16 * pass_);
    // One load and a rarely taken branch reject almost every sample: only
    // prefixes whose last digit is in play reach the scan below.
    const std::uint64_t digit = prefix & 0xFFFF;
    if (((digit_bits_[digit >> 6] >> (digit & 63)) & 1) == 0) return;
    for (std::size_t g = 0; g < prefixes_.size(); ++g) {
      if (prefixes_[g] != prefix) continue;
      if (gather_) {
        gathered_.push_back(x);
      } else {
        ++counts_[(g << 16) | ((bits >> (48 - 16 * pass_)) & 0xFFFF)];
      }
      return;
    }
  }

  /// Ends a pass over the samples; true while another one is needed.
  bool next_pass();

  /// Type-7 quantile qs[i] once next_pass() returned false; NaN when empty.
  double value(std::size_t i) const;

 private:
  struct Rank {
    std::uint64_t global = 0;  ///< rank among all samples
    std::uint64_t rank = 0;    ///< remaining rank inside the prefix
    std::uint64_t prefix = 0;  ///< answer bits resolved so far
    std::uint64_t bucket = 0;  ///< samples under that prefix
    std::size_t group = 0;     ///< index of the prefix in prefixes_
  };

  void spill();
  void resolve_digits();
  void select_gathered();

  std::vector<double> qs_;
  std::vector<Rank> ranks_;              ///< the distinct ranks needed, ascending
  std::vector<std::uint64_t> prefixes_;  ///< distinct prefixes in play this pass
  /// Bit d is set when some prefix in play ends in the 16-bit digit d.
  std::array<std::uint64_t, (std::size_t{1} << 16) / 64> digit_bits_{};
  std::vector<std::uint64_t> top_;       ///< first pass: 2^16 buckets of the top digit
  std::vector<std::uint32_t> counts_;    ///< later passes: 2^16 buckets per prefix
  std::vector<double> gathered_;         ///< samples kept for the final selection
  std::uint64_t count_ = 0;              ///< samples in the first pass
  int pass_ = 0;                         ///< 16-bit digits resolved so far
  bool gather_ = false;                  ///< this pass collects instead of counting
  bool done_ = false;
};

/// Quantile of a sample using linear interpolation between order statistics
/// (type-7, the numpy default). q in [0, 1]. The input span is copied.
double quantile(std::span<const double> xs, double q);

/// Same, but for input already sorted ascending; no copy, no sort. Callers
/// extracting several quantiles should sort once and use this.
double quantile_sorted(std::span<const double> sorted_xs, double q);

/// Convenience: median.
double median(std::span<const double> xs);

/// Ordinary least squares fit y = a + b*x; returns {a, b, r2}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;
};
LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys);

/// Fits y = a + b*log2(x); useful for checking O(log D) scaling claims.
LinearFit fit_log2(std::span<const double> xs, std::span<const double> ys);

/// Histogram with uniform bins over [lo, hi]; values outside are clamped
/// into the first/last bin. Used for diagnostic printing.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const noexcept { return counts_.size(); }
  std::size_t total() const noexcept { return total_; }

  /// Renders a compact ASCII bar chart, one line per bin.
  std::string render(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace gtrix
