// Experiment E3 (Theorem 1.1): fault-free local skew vs diameter D.
//
// The paper proves L_l <= 4 kappa (2 + log2 D) without faults. This harness
// sweeps D, prints measured max local skew against the bound, and fits the
// growth to a + b log2 D -- the shape claim is logarithmic scaling.
#include <cstdio>
#include <vector>

#include "runner/experiment.hpp"
#include "support/flags.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace gtrix {
namespace {

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool large = Flags::bench_scale() == "large";
  std::vector<std::uint32_t> diameters = {4, 8, 16, 32, 64};
  if (large) diameters = {4, 8, 16, 32, 64, 128, 256};
  const auto pulses = flags.get_int("pulses", 20);
  const auto seed = flags.get_u64("seed", 1);

  std::printf("== Theorem 1.1: fault-free local skew is O(kappa log D) ==\n");
  Table table({"D", "layers", "kappa", "L_intra", "L_inter", "global",
               "bound 4k(2+lgD)", "intra/kappa"});
  std::vector<double> xs, ys;
  for (const std::uint32_t d : diameters) {
    ExperimentConfig config;
    config.columns = d + 1;  // line diameter = columns - 1
    config.layers = d + 1;   // roughly square grid, as in the paper
    config.params = Params::derive_for(d, 10.0, 1.0005, 1.1);
    config.pulses = pulses;
    config.seed = seed;
    const ExperimentResult result = run_experiment(config);
    const double kappa = config.params.kappa();
    table.row()
        .add(static_cast<std::uint64_t>(d))
        .add(static_cast<std::uint64_t>(config.layers))
        .add(kappa, 2)
        .add(result.skew.max_intra, 2)
        .add(result.skew.max_inter, 2)
        .add(result.skew.global_skew, 2)
        .add(result.thm11_bound, 2)
        .add(result.skew.max_intra / kappa, 3);
    xs.push_back(static_cast<double>(d));
    ys.push_back(result.skew.max_intra / kappa);
  }
  std::printf("%s", table.render().c_str());
  const LinearFit fit = fit_log2(xs, ys);
  std::printf("\nfit: L/kappa ~= %.3f + %.3f * log2(D)   (r2 = %.3f)\n", fit.intercept,
              fit.slope, fit.r2);
  std::printf("shape check: skew in kappa units grows (sub)logarithmically; the paper's\n"
              "bound has slope 4 in these units, measured slope should be well below.\n");
  return 0;
}

}  // namespace
}  // namespace gtrix

int main(int argc, char** argv) { return gtrix::run_cli(argc, argv, gtrix::run); }
