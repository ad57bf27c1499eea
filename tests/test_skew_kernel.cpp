// The slab kernel behind compute_skew / local_skew_by_sigma against the
// per-pair oracle (tests/skew_oracle.hpp): every SkewReport field and every
// recovery-series entry bit for bit, on the paper builtins in every
// recording mode and shard count; the radix quantile selection on its edge
// cases; and the measurement's memory staying flat in the pair count.
#include <gtest/gtest.h>
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "obs/rss.hpp"
#include "runner/experiment.hpp"
#include "scenario/registry.hpp"
#include "skew_oracle.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace gtrix {
namespace {

std::vector<std::uint64_t> bits_of(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out;
  for (const double x : xs) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_report(const SkewReport& want, const SkewReport& got) {
  EXPECT_EQ(bits_of(want.intra_by_layer), bits_of(got.intra_by_layer));
  EXPECT_EQ(bits_of(want.inter_by_layer), bits_of(got.inter_by_layer));
  EXPECT_EQ(bits_of(want.spread_by_layer), bits_of(got.spread_by_layer));
  EXPECT_EQ(bits_of(want.max_intra), bits_of(got.max_intra));
  EXPECT_EQ(bits_of(want.max_inter), bits_of(got.max_inter));
  EXPECT_EQ(bits_of(want.local_skew), bits_of(got.local_skew));
  EXPECT_EQ(bits_of(want.global_skew), bits_of(got.global_skew));
  EXPECT_EQ(want.sigma_lo, got.sigma_lo);
  EXPECT_EQ(want.sigma_hi, got.sigma_hi);
  EXPECT_EQ(want.pairs_checked, got.pairs_checked);
  EXPECT_EQ(want.pairs_skipped, got.pairs_skipped);
  EXPECT_EQ(want.deviations.count, got.deviations.count);
  EXPECT_EQ(bits_of(want.deviations.mean), bits_of(got.deviations.mean));
  EXPECT_EQ(bits_of(want.deviations.p50), bits_of(got.deviations.p50));
  EXPECT_EQ(bits_of(want.deviations.p90), bits_of(got.deviations.p90));
  EXPECT_EQ(bits_of(want.deviations.p99), bits_of(got.deviations.p99));
  EXPECT_EQ(want.deviations.exact, got.deviations.exact);
}

void expect_same_measures(const GridTrace& trace, Sigma lo, Sigma hi) {
  SCOPED_TRACE("window [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
  expect_same_report(oracle::compute_skew(trace, lo, hi), compute_skew(trace, lo, hi));
  EXPECT_EQ(bits_of(oracle::local_skew_by_sigma(trace, lo, hi)),
            bits_of(local_skew_by_sigma(trace, lo, hi)));
}

// --- the paper builtins -----------------------------------------------------

struct Recording {
  const char* mode;  ///< "full", "windowed" or "streaming" (always anchored)
  int window;
};

// Window 32 spans thm16's corruption box through its post-recovery tail
// (the same look-back tests/test_streaming_metrics.cpp uses).
constexpr Recording kRecordings[] = {{"full", 0}, {"windowed", 32}, {"streaming", 32}};

class BuiltinSkewKernel : public testing::TestWithParam<const char*> {};

TEST_P(BuiltinSkewKernel, MatchesTheOracleInEveryRecordingModeAndShardCount) {
  const std::vector<ScenarioCell> cells = builtin_scenario(GetParam()).cells();
  std::uint64_t checked = 0;
  for (const ScenarioCell& cell : cells) {
    for (const Recording& recording : kRecordings) {
      for (const std::uint32_t shards : {1u, 2u}) {
        SCOPED_TRACE(cell.label + " " + recording.mode + " shards=" + std::to_string(shards));
        ExperimentConfig config = cell.config;
        config.recording_spec = ComponentSpec::of(recording.mode);
        if (recording.window > 0) {
          recording_registry().set_param(config.recording_spec, "window",
                                         Json(recording.window));
        }
        EngineOptions engine;
        engine.shards = shards;
        World world(config, engine);
        const CorruptPlan& corrupt = cell.corrupt;
        // Streaming mode keeps per-wave times only under an anchor; clean
        // cells get one mid-run so the pinned box and the rolling window
        // both feed the slabs.
        if (corrupt.enabled) {
          world.set_corruption_anchor(corrupt.wave);
        } else if (std::string(recording.mode) == "streaming") {
          world.set_corruption_anchor(static_cast<double>(config.pulses / 2));
        }
        if (corrupt.enabled) {
          Rng rng(config.seed ^ 0xFEED);
          world.run_until(corrupt.wave * config.params.lambda);
          world.corrupt_fraction(corrupt.fraction, rng);
          world.run_to_completion();
          (void)world.realign_labels();
        } else {
          world.run_to_completion();
        }
        const GridTrace trace = world.trace();
        const auto [lo, hi] = default_window(world.recorder(), config.warmup);
        expect_same_measures(trace, lo, hi);
        if (corrupt.enabled) {
          // measure_cell's post-recovery window and recovery scan.
          const Sigma recovered =
              static_cast<Sigma>(corrupt.wave) + static_cast<Sigma>(config.layers) + 6;
          expect_same_measures(trace, std::max(lo, recovered), hi);
          expect_same_measures(trace, static_cast<Sigma>(corrupt.wave),
                               std::min(hi, recovered + 2));
        }
        checked += compute_skew(trace, lo, hi).pairs_checked;
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Paper, BuiltinSkewKernel,
                         testing::Values("quickstart-grid", "table1-comparison", "thm11-logd",
                                         "thm12-worstcase-faults", "thm13-random-faults",
                                         "fig5-jump-ablation", "thm16-stabilization",
                                         "torus-smoke"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// --- synthetic traces ---------------------------------------------------------

/// Replicated-line grid whose pulse times the test sets directly.
struct SyntheticTrace {
  Grid grid;
  Recorder recorder;
  GridTrace trace;

  SyntheticTrace(std::uint32_t columns, std::uint32_t layers)
      : grid(BaseGraph::line_replicated(columns), layers) {
    recorder.reserve(grid.node_count());
    for (GridNodeId g = 0; g < grid.node_count(); ++g) {
      NodeMeta meta;
      meta.layer = grid.layer_of(g);
      meta.base = grid.base_of(g);
      recorder.register_node(g, meta);
    }
    trace.grid = &grid;
    trace.recorder = &recorder;
    for (GridNodeId g = 0; g < grid.node_count(); ++g) trace.node_ids.push_back(g);
    trace.node_warmup = 0;
    trace.node_tail = 0;
  }

  /// Every node pulses waves [1, waves] at (s + layer) * 100 + time(g, s).
  template <typename Time>
  void pulse_all(Sigma waves, Time&& time) {
    for (Sigma s = 1; s <= waves; ++s) {
      for (GridNodeId g = 0; g < grid.node_count(); ++g) {
        recorder.record_pulse(g, s,
                              static_cast<double>(s + grid.layer_of(g)) * 100.0 + time(g, s));
      }
    }
  }
};

TEST(SkewKernel, SinglePairAndTwoPairs) {
  {
    // Two columns, one layer, one wave: one checked pair per base edge.
    SyntheticTrace t(2, 1);
    t.pulse_all(1, [](GridNodeId g, Sigma) { return g == 0 ? 0.0 : 3.25; });
    const SkewReport report = compute_skew(t.trace, 1, 1);
    EXPECT_EQ(report.pairs_checked, t.grid.base().edges().size());
    expect_same_report(oracle::compute_skew(t.trace, 1, 1), report);
  }
  {
    SyntheticTrace t(2, 1);
    t.pulse_all(2, [](GridNodeId g, Sigma s) {
      return g == 0 ? 0.0 : 1.5 * static_cast<double>(s);
    });
    expect_same_report(oracle::compute_skew(t.trace, 1, 2), compute_skew(t.trace, 1, 2));
  }
}

TEST(SkewKernel, AllEqualAndZeroDeviations) {
  SyntheticTrace t(8, 4);
  t.pulse_all(6, [](GridNodeId, Sigma) { return 0.0; });  // every deviation 0
  const SkewReport zeros = compute_skew(t.trace, 1, 5);
  EXPECT_GT(zeros.pairs_checked, 0u);
  EXPECT_EQ(zeros.deviations.p99, 0.0);
  expect_same_report(oracle::compute_skew(t.trace, 1, 5), zeros);

  SyntheticTrace u(8, 1);  // one layer: every intra deviation is 2.5
  u.pulse_all(6, [](GridNodeId g, Sigma) { return (g % 2) * 2.5; });
  expect_same_report(oracle::compute_skew(u.trace, 1, 6), compute_skew(u.trace, 1, 6));
}

TEST(SkewKernel, MoreThanTwoToTheSixteenTies) {
  // ~2.7e5 pairs, nearly all with deviation exactly 0, a few outliers on
  // both sides of the median's bucket: selection must finish by radix alone.
  SyntheticTrace t(64, 16);
  t.pulse_all(64, [](GridNodeId g, Sigma s) {
    return (g * 7 + static_cast<GridNodeId>(s)) % 997 == 0 ? 1.0 + static_cast<double>(g) : 0.0;
  });
  const SkewReport report = compute_skew(t.trace, 1, 63);
  EXPECT_GT(report.pairs_checked, 2 * RadixQuantiles::kGatherCap);
  expect_same_report(oracle::compute_skew(t.trace, 1, 63), report);
}

TEST(SkewKernel, RandomTimesWithFaultsAndGaps) {
  SyntheticTrace t(24, 6);
  Rng rng(17);
  std::vector<double> jitter(t.grid.node_count() * 40);
  for (double& x : jitter) x = rng.uniform(0.0, 10.0);
  for (Sigma s = 1; s <= 40; ++s) {
    for (GridNodeId g = 0; g < t.grid.node_count(); ++g) {
      if ((g + static_cast<GridNodeId>(s)) % 13 == 0) continue;  // a missing pulse
      t.recorder.record_pulse(g, s, static_cast<double>(s + t.grid.layer_of(g)) * 100.0 +
                                        jitter[g * 40 + static_cast<GridNodeId>(s - 1)]);
    }
  }
  for (const GridNodeId g : {5u, 31u, 77u}) {
    NodeMeta meta = t.recorder.meta(g);
    meta.faulty = true;
    t.recorder.register_node(g, meta);
  }
  t.trace.node_warmup = 2;
  t.trace.node_tail = 1;
  // Whole run, inner window, wider than the trace, one wave, empty.
  const std::pair<Sigma, Sigma> windows[] = {{1, 40}, {3, 9}, {0, 45}, {12, 12}, {9, 3}};
  for (const auto& [lo, hi] : windows) expect_same_measures(t.trace, lo, hi);
  EXPECT_EQ(intra_skew_by_sigma(t.trace, 2, 3, 9).size(), 7u);
}

// --- radix quantile selection -------------------------------------------------

/// Runs RadixQuantiles over `samples`; returns p-values for `qs` and the
/// number of passes it took.
std::pair<std::vector<double>, int> radix_quantiles(const std::vector<double>& samples,
                                                    const std::vector<double>& qs) {
  RadixQuantiles select(qs);
  int passes = 0;
  do {
    ++passes;
    for (const double x : samples) select.add(x);
  } while (select.next_pass());
  std::vector<double> out;
  for (std::size_t i = 0; i < qs.size(); ++i) out.push_back(select.value(i));
  return {out, passes};
}

void expect_exact_quantiles(const std::vector<double>& samples) {
  const std::vector<double> qs = {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0};
  const auto [got, passes] = radix_quantiles(samples, qs);
  EXPECT_LE(passes, 4);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(bits_of(oracle::exact_quantile(samples, qs[i])), bits_of(got[i]))
        << "q=" << qs[i] << " n=" << samples.size();
  }
}

TEST(RadixQuantiles, EmptyIsNaN) {
  const auto [got, passes] = radix_quantiles({}, {0.5});
  EXPECT_EQ(passes, 1);
  EXPECT_TRUE(std::isnan(got[0]));
}

TEST(RadixQuantiles, OneAndTwoSamples) {
  expect_exact_quantiles({3.5});
  expect_exact_quantiles({0.0});
  expect_exact_quantiles({1.0, 2.0});
  expect_exact_quantiles({2.0, 1.0});
  expect_exact_quantiles({0.0, 5e-324});  // zero and the smallest subnormal
}

TEST(RadixQuantiles, AllEqualAndZeros) {
  expect_exact_quantiles(std::vector<double>(1000, 7.25));
  expect_exact_quantiles(std::vector<double>(1000, 0.0));
  std::vector<double> mostly_zero(5000, 0.0);
  mostly_zero[17] = 4.0;
  mostly_zero[4000] = 1e-300;
  expect_exact_quantiles(mostly_zero);
}

TEST(RadixQuantiles, MoreThanTwoToTheSixteenTiesTakeEveryRadixPass) {
  std::vector<double> ties(RadixQuantiles::kGatherCap + 5000, 1.0);
  for (int i = 0; i < 50; ++i) {
    ties.push_back(0.5 + i * 1e-3);
    ties.push_back(std::nextafter(1.0, 2.0) + i);
  }
  const auto [got, passes] = radix_quantiles(ties, {0.5});
  EXPECT_EQ(passes, 4);  // the tied bucket never shrinks below the gather cap
  EXPECT_EQ(got[0], 1.0);
  expect_exact_quantiles(ties);
}

TEST(RadixQuantiles, RanksStraddlingBucketBoundaries) {
  // Neighbouring doubles on both sides of a 16-bit and a 32-bit bucket
  // boundary, so a quantile's two bracketing ranks land in different
  // buckets at every pass.
  std::vector<double> xs;
  const std::uint64_t boundaries[] = {std::bit_cast<std::uint64_t>(1.0),
                                      std::bit_cast<std::uint64_t>(3.0) + (std::uint64_t{1} << 32),
                                      std::bit_cast<std::uint64_t>(0.125) +
                                          (std::uint64_t{1} << 48)};
  for (const std::uint64_t boundary : boundaries) {
    for (std::uint64_t k = 1; k <= 3; ++k) {
      xs.push_back(std::bit_cast<double>(boundary - k));
      xs.push_back(std::bit_cast<double>(boundary + k - 1));
    }
  }
  for (std::size_t n = 1; n <= xs.size(); ++n) {
    expect_exact_quantiles(
        std::vector<double>(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(n)));
  }
  // Large samples split exactly at a bucket edge, radix and gather paths.
  for (const std::size_t half : {std::size_t{100}, RadixQuantiles::kGatherCap}) {
    std::vector<double> split;
    for (std::size_t i = 0; i < half; ++i) {
      split.push_back(std::bit_cast<double>(std::bit_cast<std::uint64_t>(2.0) - 1 - i % 7));
      split.push_back(std::bit_cast<double>(std::bit_cast<std::uint64_t>(2.0) + i % 5));
    }
    expect_exact_quantiles(split);
  }
}

TEST(RadixQuantiles, WideRandomSamples) {
  Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 300000; ++i) xs.push_back(std::exp(rng.uniform(-20.0, 20.0)));
  expect_exact_quantiles(xs);
  xs.resize(3001);
  expect_exact_quantiles(xs);
}

// --- memory ---------------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

TEST(SkewKernel, MeasurementMemoryIsFlatInThePairCount) {
  // ~2.1M checked pairs. Holding their deviations takes >= 16 MB; the
  // slabs, histograms and gather buffer stay well under 4 MB.
  if (kSanitized) {
    GTEST_SKIP() << "a sanitizer's shadow memory and quarantined frees swamp the RSS signal";
  }
  SyntheticTrace t(62, 128);
  t.pulse_all(64, [](GridNodeId g, Sigma s) {
    return static_cast<double>((g * 2654435761u + static_cast<std::uint32_t>(s) * 40503u) %
                               100000u) * 1e-4;
  });
  malloc_trim(0);  // no resident free memory for the measurement to reuse

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // The child's peak RSS starts at its RSS at fork, so the growth is the
    // measurement's alone.
    const double before = peak_rss_mb();
    const SkewReport report = compute_skew(t.trace, 1, 63);
    const double result[2] = {peak_rss_mb() - before, static_cast<double>(report.pairs_checked)};
    const ssize_t wrote = write(fds[1], result, sizeof(result));
    _exit(wrote == static_cast<ssize_t>(sizeof(result)) ? 0 : 1);
  }
  close(fds[1]);
  double result[2] = {-1.0, 0.0};
  const ssize_t got = read(fds[0], result, sizeof(result));
  close(fds[0]);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_EQ(got, static_cast<ssize_t>(sizeof(result)));
  EXPECT_GE(result[1], 2e6);
  EXPECT_LT(result[0], 4.0) << "compute_skew grew peak RSS by " << result[0] << " MB over "
                            << result[1] << " checked pairs";
}

}  // namespace
}  // namespace gtrix
