// Experiment E10 (Appendix A, Lemma A.1 / Corollary A.2): the layer-0 line.
//
//  * per-hop pulse offsets lie in [Lambda - kappa/2, Lambda],
//  * L_0 <= kappa/2 in the shifted indexing,
//  * pulse times satisfy t^k_i in [(k+i-1)Lambda - i kappa/2, (k+i-1)Lambda],
//  * the scheme stabilizes within D Lambda after transient corruption.
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
      flags.get_int("columns", large ? 64 : 16));
  const auto seed = flags.get_u64("seed", 1);

  ExperimentConfig config;
  config.columns = columns;
  config.layers = 2;
  config.pulses = 20;
  config.layer0 = Layer0Mode::kLinePropagation;
  config.seed = seed;
  World world(config);
  world.run_to_completion();

  const auto& grid = world.grid();
  const auto& rec = world.recorder();
  const double lambda = config.params.lambda;
  const double kappa = config.params.kappa();

  std::printf("== Appendix A: layer-0 line forwarding (Lemma A.1) ==\n");
  std::printf("   %u columns, Lambda=%.0f, kappa=%.1f; window [Lambda-kappa/2, Lambda]"
              " = [%.1f, %.1f]\n\n",
              columns, lambda, kappa, lambda - kappa / 2.0, lambda);

  Summary hop_offsets;
  Summary envelope_slack;  // (k+i-1)Lambda - t^k_i, must be in [0, i kappa/2]
  bool hop_ok = true;
  bool envelope_ok = true;
  for (std::uint32_t c = 0; c + 1 < columns; ++c) {
    const GridNodeId a = grid.id(grid.base().nodes_in_column(c).front(), 0);
    const GridNodeId b = grid.id(grid.base().nodes_in_column(c + 1).front(), 0);
    for (std::int64_t k = 2; k <= config.pulses - 1; ++k) {
      const auto ta = rec.pulse_time(a, k + c);
      const auto tb = rec.pulse_time(b, k + c + 1);
      if (!ta || !tb) continue;
      const double hop = *tb - *ta;
      hop_offsets.add(hop);
      hop_ok = hop_ok && hop >= lambda - kappa / 2.0 - 1e-6 && hop <= lambda + 1e-6;
    }
  }
  for (std::uint32_t c = 0; c < columns; ++c) {
    const GridNodeId g = grid.id(grid.base().nodes_in_column(c).front(), 0);
    for (std::int64_t k = 2; k <= config.pulses - 1; ++k) {
      const auto t = rec.pulse_time(g, k + c);
      if (!t) continue;
      // t^k_i in [(k+i-1)L - i k/2, (k+i-1)L] with i = c+1 hops from source.
      const double nominal = static_cast<double>(k + c) * lambda;
      const double slack = nominal - *t;
      envelope_slack.add(slack);
      envelope_ok = envelope_ok && slack >= -1e-6 &&
                    slack <= (static_cast<double>(c) + 1.0) * kappa / 2.0 + 1e-6;
    }
  }

  Table table({"quantity", "min", "mean", "max", "Lemma A.1 requirement", "ok"});
  table.row()
      .add("hop offset t_{i+1}-t_i")
      .add(hop_offsets.min(), 2)
      .add(hop_offsets.mean(), 2)
      .add(hop_offsets.max(), 2)
      .add("[Lambda-kappa/2, Lambda]")
      .add(hop_ok ? "yes" : "NO");
  table.row()
      .add("envelope slack (k+i-1)L - t")
      .add(envelope_slack.min(), 2)
      .add(envelope_slack.mean(), 2)
      .add(envelope_slack.max(), 2)
      .add("[0, i kappa/2]")
      .add(envelope_ok ? "yes" : "NO");
  std::printf("%s\n", table.render().c_str());

  // Stabilization: corrupt all line nodes, measure recovery time vs D Lambda.
  ExperimentConfig config2 = config;
  config2.pulses = static_cast<std::int64_t>(columns) + 24;
  World world2(config2);
  Rng rng(seed ^ 0xABCD);
  const double corrupt_at = 8.0 * lambda;
  world2.run_until(corrupt_at);
  for (GridNodeId g = 0; g < world2.grid().node_count(); ++g) {
    if (world2.layer0_node(g) != nullptr) world2.layer0_node(g)->corrupt_state(rng);
  }
  world2.run_to_completion();
  // Find the last time any layer-0 node deviated from the exact-Lambda
  // period (post-corruption instability).
  double last_bad = corrupt_at;
  const auto& rec2 = world2.recorder();
  for (std::uint32_t c = 0; c < columns; ++c) {
    const GridNodeId g = world2.grid().id(world2.grid().base().nodes_in_column(c).front(), 0);
    const Sigma last = rec2.last_recorded(g);
    for (Sigma s = rec2.steady_from(g, 1); s + 1 <= last; ++s) {
      const auto t1 = rec2.pulse_time(g, s);
      const auto t2 = rec2.pulse_time(g, s + 1);
      if (!t1 || !t2 || *t1 < corrupt_at) continue;
      if (std::abs((*t2 - *t1) - lambda) > 1e-6) last_bad = std::max(last_bad, *t2);
    }
  }
  const double stabilization = last_bad - corrupt_at;
  std::printf("stabilization after corrupting all line nodes: %.0f time units = %.2f\n"
              "pulses; Corollary A.2 bound D Lambda = %.0f  -> %s\n",
              stabilization, stabilization / lambda,
              static_cast<double>(columns - 1) * lambda,
              stabilization <= (columns - 1) * lambda ? "within bound" : "EXCEEDS bound");
  return hop_ok && envelope_ok ? 0 : 1;
}

}  // namespace
}  // namespace gtrix

int main(int argc, char** argv) { return gtrix::run_cli(argc, argv, gtrix::run); }
