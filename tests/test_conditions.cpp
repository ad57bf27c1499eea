// Property tests for Lemmas D.4, D.5, D.6 (slow / fast / jump conditions),
// D.2, D.3: every recorded steady iteration of every correct node must
// satisfy them, across seeds, drift rates, and delay models.
#include <gtest/gtest.h>

#include "runner/experiment.hpp"

namespace gtrix {
namespace {

// A 4-byte delay selector rather than a ComponentSpec: gtest names each case
// after the parameter struct's size and leading bytes.
enum class Delays : std::uint32_t { kUniform, kColumnSplit, kAlternating, kAllMax, kAllMin };

ComponentSpec delay_spec(Delays delays) {
  switch (delays) {
    case Delays::kUniform: return ComponentSpec::of("uniform-random");
    case Delays::kColumnSplit: return ComponentSpec::of("column-split").with("split_column", 5);
    case Delays::kAlternating: return ComponentSpec::of("alternating");
    case Delays::kAllMax: return ComponentSpec::of("all-max");
    case Delays::kAllMin: return ComponentSpec::of("all-min");
  }
  return {};
}

struct Scenario {
  std::uint64_t seed;
  double u;
  double theta;
  Delays delays;
  Layer0Mode layer0;
};

class ConditionSweep : public ::testing::TestWithParam<Scenario> {};

TEST_P(ConditionSweep, AllConditionsHold) {
  const Scenario& scenario = GetParam();
  ExperimentConfig config;
  config.columns = 10;
  config.layers = 10;
  config.pulses = 18;
  config.seed = scenario.seed;
  config.params = Params::with(1000.0, scenario.u, scenario.theta);
  config.delay_spec = delay_spec(scenario.delays);
  config.layer0 = scenario.layer0;
  ASSERT_TRUE(config.params.valid_for(config.columns - 1, 1.0));

  World world(config);
  world.run_to_completion();
  const ConditionReport report = world.conditions(6);
  EXPECT_GT(report.sc_checked, 0u);
  EXPECT_GT(report.fc_checked, 0u);
  EXPECT_GT(report.jc_checked, 0u);
  EXPECT_TRUE(report.ok()) << report.summary() << "\nfirst violations:\n"
                           << (report.samples.empty() ? "" : report.samples[0]);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ConditionSweep,
    ::testing::Values(
        Scenario{1, 10.0, 1.0005, Delays::kUniform, Layer0Mode::kIdealJitter},
        Scenario{2, 10.0, 1.0005, Delays::kUniform, Layer0Mode::kLinePropagation},
        Scenario{3, 5.0, 1.0002, Delays::kUniform, Layer0Mode::kIdealJitter},
        Scenario{4, 20.0, 1.001, Delays::kUniform, Layer0Mode::kIdealJitter},
        Scenario{5, 10.0, 1.0005, Delays::kColumnSplit, Layer0Mode::kIdealJitter},
        Scenario{6, 10.0, 1.0005, Delays::kAlternating, Layer0Mode::kIdealJitter},
        Scenario{7, 10.0, 1.0005, Delays::kAllMax, Layer0Mode::kIdealJitter},
        Scenario{8, 10.0, 1.0005, Delays::kAllMin, Layer0Mode::kLinePropagation},
        Scenario{9, 1.0, 1.00005, Delays::kUniform, Layer0Mode::kIdealJitter},
        Scenario{10, 10.0, 1.0005, Delays::kUniform, Layer0Mode::kIdealJitter}));

TEST(Conditions, HoldUnderClockModelExtremes) {
  for (const char* model : {"all-fast", "all-slow", "alternating"}) {
    ExperimentConfig config;
    config.columns = 8;
    config.layers = 8;
    config.pulses = 14;
    config.seed = 42;
    config.clock_spec = ComponentSpec::of(model);
    World world(config);
    world.run_to_completion();
    const ConditionReport report = world.conditions(5);
    EXPECT_TRUE(report.ok()) << "model=" << model << ": " << report.summary();
  }
}

TEST(Conditions, MedianHoldsWithCrashFault) {
  ExperimentConfig config;
  config.columns = 8;
  config.layers = 10;
  config.pulses = 16;
  config.seed = 11;
  config.faults = {{config.columns / 2, 4, FaultSpec::crash()}};
  World world(config);
  world.run_to_completion();
  const ConditionReport report = world.conditions(5);
  EXPECT_GT(report.median_checked, 0u);
  EXPECT_TRUE(report.ok()) << report.summary() << "\n"
                           << (report.samples.empty() ? "" : report.samples[0]);
}

TEST(Conditions, MedianHoldsWithOffsetFault) {
  ExperimentConfig config;
  config.columns = 8;
  config.layers = 10;
  config.pulses = 16;
  config.seed = 12;
  config.faults = {{3, 5, FaultSpec::static_offset(150.0)}};
  World world(config);
  world.run_to_completion();
  const ConditionReport report = world.conditions(5);
  EXPECT_GT(report.median_checked, 0u);
  EXPECT_TRUE(report.ok()) << report.summary() << "\n"
                           << (report.samples.empty() ? "" : report.samples[0]);
}

TEST(Conditions, ReportSummaryIsReadable) {
  ConditionReport report;
  report.sc_checked = 10;
  report.sc_violations = 1;
  const std::string s = report.summary();
  EXPECT_NE(s.find("SC 1/10"), std::string::npos);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.total_violations(), 1u);
}

}  // namespace
}  // namespace gtrix
