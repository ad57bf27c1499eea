// Experiment E6 (Theorem 1.4): static fault timing => full local skew
// (intra- AND inter-layer) is O(kappa log D), and the pulse pattern repeats
// with period exactly Lambda.
#include <cmath>
#include <cstdio>

#include "runner/experiment.hpp"
#include "support/flags.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace gtrix {
namespace {

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool large = Flags::bench_scale() == "large";
  const std::uint32_t columns = static_cast<std::uint32_t>(
      flags.get_int("columns", large ? 32 : 16));
  const std::uint32_t layers = columns;
  const auto seed = flags.get_u64("seed", 1);

  const Params params = Params::with(1000.0, 10.0, 1.0005);
  std::printf("== Theorem 1.4: static-timing faults, full L bounded ==\n");
  std::printf("   grid %ux%u; static faults (crash + fixed offsets); bound "
              "4k(2+lgD) = %.1f\n\n",
              columns, layers, params.thm11_bound(columns - 1));

  Table table({"scenario", "L intra", "L inter", "L = max", "period error (max |dt-Lambda|)"});
  for (const int scenario : {0, 1, 2}) {
    ExperimentConfig config;
    config.columns = columns;
    config.layers = layers;
    config.pulses = 20;
    config.seed = seed;
    const char* name = "fault-free";
    if (scenario == 1) {
      name = "1 crash + 1 offset";
      config.faults = {{columns / 3, layers / 3, FaultSpec::crash()},
                       {(2 * columns) / 3, (2 * layers) / 3,
                        FaultSpec::static_offset(180.0)}};
    } else if (scenario == 2) {
      name = "3 static offsets";
      config.faults = {{columns / 4, layers / 4, FaultSpec::static_offset(-150.0)},
                       {columns / 2, layers / 2, FaultSpec::static_offset(220.0)},
                       {(3 * columns) / 4, (3 * layers) / 4,
                        FaultSpec::static_offset(90.0)}};
    }
    World world(config);
    world.run_to_completion();
    const SkewReport report = world.skew();

    // Period deviation over steady pulses of correct nodes.
    double period_error = 0.0;
    const auto& rec = world.recorder();
    for (GridNodeId g = 0; g < world.grid().node_count(); ++g) {
      if (world.is_faulty(g)) continue;
      const Sigma from = rec.steady_from(g, 6);
      if (from == Recorder::kInvalidSigma) continue;
      const Sigma last = rec.last_recorded(g) - 2;
      for (Sigma s = from; s + 1 <= last; ++s) {
        const auto t1 = rec.pulse_time(g, s);
        const auto t2 = rec.pulse_time(g, s + 1);
        if (!t1 || !t2) continue;
        period_error = std::max(period_error,
                                std::abs((*t2 - *t1) - config.params.lambda));
      }
    }

    table.row()
        .add(name)
        .add(report.max_intra, 1)
        .add(report.max_inter, 1)
        .add(report.local_skew, 1)
        .add(period_error, 6);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("shape check: with static fault timing the pattern repeats exactly\n"
              "(period error ~ 0) and L stays within a small multiple of kappa log D,\n"
              "matching Theorem 1.4's 'consecutive pulses of adjacent layers' claim.\n");
  return 0;
}

}  // namespace
}  // namespace gtrix

int main(int argc, char** argv) { return gtrix::run_cli(argc, argv, gtrix::run); }
