// Skew bound theorems on fault-free executions:
//  * Theorem 1.1: L_l <= 4 kappa (2 + log2 D)
//  * Corollary 4.23: Psi^1(l) <= 2 kappa D
//  * Corollary 4.24: global skew <= 6 kappa D
//  * Observation 4.2: L_l <= Psi^s + 4 s kappa
#include <gtest/gtest.h>

#include <cmath>

#include "metrics/potentials.hpp"
#include "runner/experiment.hpp"

namespace gtrix {
namespace {

// gtest names each case after the parameter struct's size and bytes, so the
// struct holds only 8-byte values: no padding and no pointers, whose bytes
// would differ from run to run.
enum class Delays : std::uint64_t { kUniform, kColumnSplit, kAlternating };

struct GridSetup {
  std::uint64_t columns;
  std::uint64_t seed;
  Delays delays;  ///< column-split splits at the center
};

ComponentSpec delay_spec(Delays delays, std::uint32_t columns) {
  switch (delays) {
    case Delays::kUniform: return ComponentSpec::of("uniform-random");
    case Delays::kColumnSplit:
      return ComponentSpec::of("column-split").with("split_column", columns / 2);
    case Delays::kAlternating: return ComponentSpec::of("alternating");
  }
  return {};
}

class SkewBoundSweep : public ::testing::TestWithParam<GridSetup> {};

TEST_P(SkewBoundSweep, Theorem11AndGlobalBounds) {
  const GridSetup& setup = GetParam();
  ExperimentConfig config;
  config.columns = static_cast<std::uint32_t>(setup.columns);
  config.layers = config.columns;
  config.pulses = 16;
  config.seed = setup.seed;
  config.delay_spec = delay_spec(setup.delays, config.columns);
  const ExperimentResult result = run_experiment(config);
  ASSERT_GT(result.skew.pairs_checked, 0u);
  EXPECT_LE(result.skew.max_intra, result.thm11_bound);
  EXPECT_LE(result.skew.global_skew, result.global_bound);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, SkewBoundSweep,
    ::testing::Values(GridSetup{6, 1, Delays::kUniform}, GridSetup{6, 2, Delays::kColumnSplit},
                      GridSetup{10, 3, Delays::kUniform}, GridSetup{10, 4, Delays::kAlternating},
                      GridSetup{14, 5, Delays::kUniform}, GridSetup{14, 6, Delays::kColumnSplit},
                      GridSetup{18, 7, Delays::kUniform}));

TEST(SkewBounds, Psi1WithinCorollary423) {
  ExperimentConfig config;
  config.columns = 10;
  config.layers = 10;
  config.pulses = 16;
  config.seed = 21;
  World world(config);
  world.run_to_completion();
  const auto trace = world.trace();
  const auto [lo, hi] = default_window(world.recorder(), config.warmup);
  const auto profile = psi_profile(trace, config.params, 1, lo, hi);
  const double bound = config.params.psi1_bound(world.grid().base().diameter());
  for (std::uint32_t layer = 1; layer < profile.size(); ++layer) {
    if (std::isnan(profile[layer])) continue;
    EXPECT_LE(profile[layer], bound) << "layer " << layer;
  }
}

TEST(SkewBounds, Observation42LinksPotentialsToSkew) {
  ExperimentConfig config;
  config.columns = 9;
  config.layers = 9;
  config.pulses = 16;
  config.seed = 22;
  World world(config);
  world.run_to_completion();
  const auto trace = world.trace();
  const auto report = world.skew();
  const auto [lo, hi] = default_window(world.recorder(), config.warmup);
  const double kappa = config.params.kappa();
  for (std::uint32_t s : {0u, 1u, 2u, 3u}) {
    const auto profile = psi_profile(trace, config.params, s, lo, hi);
    for (std::uint32_t layer = 0; layer < profile.size(); ++layer) {
      if (std::isnan(profile[layer])) continue;
      // L_l <= Psi^s(l) + 4 s kappa (Observation 4.2).
      EXPECT_LE(report.intra_by_layer[layer], profile[layer] + 4.0 * s * kappa + 1e-6)
          << "s=" << s << " layer=" << layer;
    }
  }
}

TEST(SkewBounds, SkewDoesNotGrowAcrossLayers) {
  // The gradient property: deep layers are no worse than O(kappa log D),
  // i.e. the last layer's skew stays within the bound (contrast: naive TRIX
  // accumulates; see test_baselines).
  ExperimentConfig config;
  config.columns = 12;
  config.layers = 24;  // deep grid
  config.pulses = 20;
  config.seed = 23;
  config.delay_spec = ComponentSpec::of("column-split").with("split_column", 6);
  const ExperimentResult result = run_experiment(config);
  EXPECT_LE(result.skew.intra_by_layer.back(), result.thm11_bound);
}

TEST(SkewBounds, TightensWithSmallerUncertainty) {
  ExperimentConfig config;
  config.columns = 10;
  config.layers = 10;
  config.pulses = 16;
  config.seed = 24;
  config.params = Params::with(1000.0, 20.0, 1.0005);
  const ExperimentResult coarse = run_experiment(config);
  config.params = Params::with(1000.0, 2.0, 1.0005);
  const ExperimentResult fine = run_experiment(config);
  EXPECT_LT(fine.skew.max_intra, coarse.skew.max_intra);
}

TEST(SkewBounds, InterLayerSkewBounded) {
  // L_{l,l+1} is also O(kappa log D) (Theorem 1.4's fault-free core).
  ExperimentConfig config;
  config.columns = 10;
  config.layers = 12;
  config.pulses = 18;
  config.seed = 25;
  const ExperimentResult result = run_experiment(config);
  // Bound with the same shape; inter-layer skew includes one hop of delay
  // uncertainty plus correction, well within 2x the intra bound.
  EXPECT_LE(result.skew.max_inter, 2.0 * result.thm11_bound);
}

}  // namespace
}  // namespace gtrix
