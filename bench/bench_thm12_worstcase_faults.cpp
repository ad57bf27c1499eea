// Experiment E4 (Theorem 1.2): worst-case (clustered) faults.
//
// The paper bounds local skew by O(5^f kappa log D) when f faults are
// placed adversarially (stacked in one column so each fault's displacement
// compounds before the previous one has been flattened out). This harness
// stacks f split-faults in one column at minimal layer spacing, tries
// several adversarial amplitudes, and reports measured skew against the
// 5^f-shaped bound.
#include <cstdio>
#include <vector>

#include "runner/experiment.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

namespace gtrix {
namespace {

double worst_skew_with_faults(std::uint32_t columns, std::uint32_t layers,
                              std::uint32_t f, std::uint64_t seed) {
  double worst = 0.0;
  // Adversarial strategy search: stacked faults with varying amplitude and
  // kind; keep the worst outcome (the adversary picks the best strategy).
  const Grid grid(BaseGraph::line_replicated(columns), layers);
  const double kappa = Params::with(1000.0, 10.0, 1.0005).kappa();
  for (const double amplitude : {2.0 * kappa, 6.0 * kappa, 12.0 * kappa}) {
    for (const bool use_split : {true, false}) {
      ExperimentConfig config;
      config.columns = columns;
      config.layers = layers;
      config.pulses = 18;
      config.seed = seed;
      const FaultSpec spec = use_split ? FaultSpec::split(amplitude)
                                       : FaultSpec::static_offset(amplitude);
      config.faults = clustered_faults(grid, f, columns / 2, 2, 1, spec);
      const ExperimentResult result = run_experiment(config);
      worst = std::max(worst, result.skew.max_intra);
    }
  }
  return worst;
}

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool large = Flags::bench_scale() == "large";
  const std::uint32_t columns = static_cast<std::uint32_t>(
      flags.get_int("columns", large ? 24 : 12));
  const std::uint32_t layers = static_cast<std::uint32_t>(
      flags.get_int("layers", large ? 32 : 16));
  const auto seed = flags.get_u64("seed", 1);
  const std::uint32_t max_f = static_cast<std::uint32_t>(flags.get_int("max-f", 4));

  const Params params = Params::with(1000.0, 10.0, 1.0005);
  std::printf("== Theorem 1.2: worst-case clustered faults, skew vs f ==\n");
  std::printf("   f split/offset faults stacked in column %u (adversarial strategy\n"
              "   search over amplitudes); bound B_f = 4k(2+lgD) 5^f sum 5^-j\n\n",
              columns / 2);
  Table table({"f", "measured worst skew", "bound B_f", "measured/f=0", "bound ratio"});
  double base = 0.0;
  std::vector<double> measured;
  for (std::uint32_t f = 0; f <= max_f; ++f) {
    const double skew = worst_skew_with_faults(columns, layers, f, seed);
    if (f == 0) base = skew;
    measured.push_back(skew);
    table.row()
        .add(static_cast<std::uint64_t>(f))
        .add(skew, 1)
        .add(params.thm12_bound(columns - 1, f), 1)
        .add(skew / base, 2)
        .add(params.thm12_bound(columns - 1, f) / params.thm12_bound(columns - 1, 0), 2);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("shape check: measured growth per added fault stays below the bound's\n"
              "factor ~5; within-bound compliance:\n");
  bool all_within = true;
  for (std::uint32_t f = 0; f <= max_f; ++f) {
    const bool ok = measured[f] <= params.thm12_bound(columns - 1, f);
    all_within = all_within && ok;
    std::printf("  f=%u: %s\n", f, ok ? "within bound" : "EXCEEDS bound");
  }
  return all_within ? 0 : 1;
}

}  // namespace
}  // namespace gtrix

int main(int argc, char** argv) { return gtrix::run_cli(argc, argv, gtrix::run); }
