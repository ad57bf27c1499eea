// Experiment E8 (Theorem 1.6): self-stabilization time.
//
// Corrupt the entire grid mid-run, then measure how many waves pass until
// the local skew is back within the Theorem 1.1 bound. The paper proves
// stabilization within O(sqrt(n)) pulses -- one layer per wave, because
// propagation is directed; the series below shows recovery waves growing
// ~linearly with the layer count.
#include <cmath>
#include <cstdio>

#include "runner/experiment.hpp"
#include "support/flags.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace gtrix {
namespace {

/// Waves from corruption until intra-layer skew <= bound and stays there;
/// -1 if it never recovers within the run.
std::int64_t recovery_waves(std::uint32_t columns, std::uint32_t layers,
                            std::uint64_t seed, double fraction) {
  ExperimentConfig config;
  config.columns = columns;
  config.layers = layers;
  config.pulses = static_cast<std::int64_t>(layers) + 30;
  config.seed = seed;
  config.self_stabilizing = true;
  World world(config);
  Rng rng(seed ^ 0xFEED);
  const Sigma corrupt_wave = 10;
  world.run_until(static_cast<double>(corrupt_wave) * config.params.lambda);
  world.corrupt_fraction(fraction, rng);
  world.run_to_completion();
  world.realign_labels();

  const double bound = config.params.thm11_bound(world.grid().base().diameter());
  const auto trace = world.trace();
  const auto [lo, hi] = default_window(world.recorder(), config.warmup);
  (void)lo;
  // Find the first wave s such that all waves in [s, hi] are within bound.
  std::int64_t recovered_at = -1;
  for (Sigma s = hi; s >= corrupt_wave; --s) {
    double worst = 0.0;
    for (std::uint32_t layer = 0; layer < layers; ++layer) {
      for (const auto& [a, b] : world.grid().base().edges()) {
        const auto ta = trace.steady_pulse(world.grid().id(a, layer), s);
        const auto tb = trace.steady_pulse(world.grid().id(b, layer), s);
        if (!ta || !tb) continue;
        worst = std::max(worst, std::abs(*ta - *tb));
      }
    }
    if (worst > bound) break;
    recovered_at = s;
  }
  if (recovered_at < 0) return -1;
  return recovered_at - corrupt_wave;
}

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool large = Flags::bench_scale() == "large";
  std::vector<std::uint32_t> layer_counts = {6, 10, 14, 18};
  if (large) layer_counts = {8, 16, 24, 32, 48};
  const int seeds = static_cast<int>(flags.get_int("seeds", large ? 6 : 4));

  std::printf("== Theorem 1.6: stabilization time after full transient corruption ==\n");
  std::printf("   every node's registers/timers scrambled at wave 10; recovery =\n"
              "   waves until intra skew is back under 4k(2+lgD) for good.\n\n");
  Table table({"layers (~sqrt n)", "columns", "recovery waves (mean)", "min", "max",
               "waves/layer"});
  std::vector<double> xs, ys;
  for (const std::uint32_t layers : layer_counts) {
    const std::uint32_t columns = 10;
    Summary waves;
    for (int s = 0; s < seeds; ++s) {
      const std::int64_t w =
          recovery_waves(columns, layers, 100 + static_cast<std::uint64_t>(s), 1.0);
      if (w >= 0) waves.add(static_cast<double>(w));
    }
    table.row()
        .add(static_cast<std::uint64_t>(layers))
        .add(static_cast<std::uint64_t>(columns))
        .add(waves.mean(), 1)
        .add(waves.min(), 0)
        .add(waves.max(), 0)
        .add(waves.mean() / layers, 2);
    xs.push_back(layers);
    ys.push_back(waves.mean());
  }
  std::printf("%s\n", table.render().c_str());
  const LinearFit fit = fit_linear(xs, ys);
  std::printf("fit: recovery ~= %.1f + %.2f * layers (r2=%.3f)\n", fit.intercept,
              fit.slope, fit.r2);
  std::printf("shape check: recovery grows at most ~1 wave per layer (the paper's\n"
              "O(sqrt n) = O(#layers) pulses), with a constant startup overhead.\n");
  return 0;
}

}  // namespace
}  // namespace gtrix

int main(int argc, char** argv) { return gtrix::run_cli(argc, argv, gtrix::run); }
