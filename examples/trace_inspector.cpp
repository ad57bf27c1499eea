// Trace inspector: runs a small grid and dumps per-node pulse logs and
// iteration records -- the tool to reach for when studying the algorithm's
// behaviour wave by wave.
//
//   ./trace_inspector [--columns 4] [--layers 3] [--pulses 6] [--line]
//                     [--node "(v1, 1)"]
#include <cstdio>
#include <string>

#include "runner/experiment.hpp"
#include "support/flags.hpp"

static int run(int argc, char** argv) {
  using namespace gtrix;
  const Flags flags(argc, argv);
  ExperimentConfig config;
  config.columns = static_cast<std::uint32_t>(flags.get_int("columns", 4));
  config.layers = static_cast<std::uint32_t>(flags.get_int("layers", 3));
  config.pulses = flags.get_int("pulses", 6);
  config.seed = flags.get_u64("seed", 1);
  if (flags.get_bool("line", false)) config.layer0 = Layer0Mode::kLinePropagation;
  const std::string only_node = flags.get_string("node", "");

  World world(config);
  world.run_to_completion();
  const auto& grid = world.grid();
  const auto& rec = world.recorder();

  std::printf("trace: %u columns x %u layers, %lld pulses, %s input\n",
              config.columns, config.layers, static_cast<long long>(config.pulses),
              config.layer0 == Layer0Mode::kIdealJitter ? "ideal" : "line");
  std::printf("sigma range [%lld, %lld]\n\n", static_cast<long long>(rec.min_sigma()),
              static_cast<long long>(rec.max_sigma()));

  for (GridNodeId g = 0; g < grid.node_count(); ++g) {
    const std::string label = grid.label(g);
    if (!only_node.empty() && label != only_node) continue;
    std::printf("%-10s layer=%u col=%u%s\n", label.c_str(), grid.layer_of(g),
                grid.base().column(grid.base_of(g)),
                world.is_faulty(g) ? "  [FAULTY]" : "");
    std::printf("  pulses: ");
    for (Sigma s = rec.min_sigma(); s <= rec.max_sigma(); ++s) {
      const auto t = rec.pulse_time(g, s);
      if (t) std::printf("[%lld]=%.1f ", static_cast<long long>(s), *t);
    }
    std::printf("\n");
    if (grid.layer_of(g) == 0) continue;
    for (const auto& it : rec.iterations(g)) {
      std::printf("  it sigma=%lld C=%+8.2f own=%10.1f min=%10.1f max=%10.1f%s%s slots:",
                  static_cast<long long>(it.sigma), it.correction, it.h_own, it.h_min,
                  it.h_max, it.timeout_branch ? " TIMEOUT" : "", it.late ? " LATE" : "");
      for (std::uint8_t i = 0; i < it.slot_count; ++i) {
        std::printf(" %u:%s%lld", i, it.slot_seen[i] ? "" : "!",
                    static_cast<long long>(it.slot_sigma[i]));
      }
      std::printf("\n");
    }
  }
  return 0;
}

int main(int argc, char** argv) { return gtrix::run_cli(argc, argv, run); }
