// Perf-harness tests: every EngineOptions combination (shards x telemetry)
// produces bit-identical skew and logical event counts on real scenarios,
// campaigns are 1-vs-N-thread byte-identical, and bench_perf's count
// report and zero-tolerance count gate behave as documented.
#include "runner/perf.hpp"

#include <gtest/gtest.h>

#include "runner/campaign.hpp"
#include "scenario/registry.hpp"

namespace gtrix {
namespace {

/// Runs every cell under each (shards, telemetry) combination and expects
/// the serial, telemetry-off digests and logical event counts everywhere.
void expect_engine_invariant(const Scenario& scenario) {
  for (const ScenarioCell& cell : scenario.cells()) {
    const ExperimentResult serial = run_cell(cell.config, cell.corrupt);
    const ExperimentCounters& s = serial.counters;
    const std::uint64_t logical = s.events_executed - s.delivery_events + s.messages_delivered;
    EXPECT_GT(logical, 0u);
    for (const std::uint32_t shards : {1u, 2u}) {
      for (const bool telemetry : {false, true}) {
        const ExperimentResult r =
            run_cell(cell.config, cell.corrupt, EngineOptions{.shards = shards, .telemetry = telemetry});
        const ExperimentCounters& c = r.counters;
        EXPECT_EQ(skew_digest(r), skew_digest(serial))
            << cell.label << " shards=" << shards << " telemetry=" << telemetry;
        EXPECT_EQ(c.events_executed - c.delivery_events + c.messages_delivered, logical)
            << cell.label << " shards=" << shards << " telemetry=" << telemetry;
      }
    }
  }
}

TEST(Perf, EnginesProduceBitIdenticalSkewOnQuickstartGrid) {
  expect_engine_invariant(builtin_scenario("quickstart-grid"));
}

TEST(Perf, EnginesProduceBitIdenticalSkewUnderCorruption) {
  // thm16-stabilization runs the mid-run corruption + realignment path;
  // every engine shape must stay identical through Rng-driven corruption
  // too. Shrink the scenario (one cell) to keep the test fast.
  Json doc = builtin_scenario_doc("thm16-stabilization");
  Json sweep = Json::object();
  Json layers = Json::array();
  layers.push_back(static_cast<std::int64_t>(6));
  sweep.set("layers", std::move(layers));
  Json seeds = Json::object();
  seeds.set("from", static_cast<std::int64_t>(100));
  seeds.set("count", static_cast<std::int64_t>(1));
  sweep.set("seed", std::move(seeds));
  doc.set("sweep", std::move(sweep));
  expect_engine_invariant(Scenario::from_json(doc));
}

TEST(Perf, SweepOverNewEngineIsThreadCountInvariant) {
  // 1-vs-N-thread byte identity: the campaign JSONL (which serializes skew
  // AND counters) must not depend on worker count, so parallel sweeps stay
  // deterministic on the calendar-queue engine.
  const Scenario scenario = builtin_scenario("quickstart-grid");
  const CampaignResult one = run_campaign(scenario, CampaignOptions{.threads = 1, .recording_override = {}});
  const CampaignResult four = run_campaign(scenario, CampaignOptions{.threads = 4, .recording_override = {}});
  EXPECT_EQ(campaign_jsonl(one), campaign_jsonl(four));
}

TEST(Perf, CountReportJsonCarriesEveryLayerCount) {
  const PerfCountReport report = run_count_pass(builtin_scenario("torus-smoke"));
  const PerfCounts& n = report.counts;
  EXPECT_EQ(report.cells, 6u);
  EXPECT_GE(n.events_scheduled, n.events_executed);
  EXPECT_GT(n.events_executed, 0u);
  EXPECT_GT(n.calendar_rebuilds, 0u);
  EXPECT_LE(n.delivery_events, n.messages_delivered);
  EXPECT_EQ(n.logical_events, n.events_executed - n.delivery_events + n.messages_delivered);
  EXPECT_GT(report.ns_per_logical_event, 0.0);

  // The counts are deterministic: a second pass reproduces them exactly.
  const PerfCountReport again = run_count_pass(builtin_scenario("torus-smoke"));
  EXPECT_EQ(again.counts.events_scheduled, n.events_scheduled);
  EXPECT_EQ(again.counts.calendar_insert_steps, n.calendar_insert_steps);
  EXPECT_EQ(again.counts.logical_events, n.logical_events);

  const Json doc = count_report_json({report});
  EXPECT_EQ(doc.at("bench").as_string(), "bench_perf");
  EXPECT_TRUE(doc.at("host").is_object());
  const Json& entry = doc.at("scenarios").as_array().front();
  EXPECT_EQ(entry.at("scenario").as_string(), "torus-smoke");
  const Json& counts = entry.at("counts");
  EXPECT_EQ(counts.at("events_scheduled").as_u64(), n.events_scheduled);
  EXPECT_EQ(counts.at("events_executed").as_u64(), n.events_executed);
  EXPECT_EQ(counts.at("calendar_rebuilds").as_u64(), n.calendar_rebuilds);
  EXPECT_EQ(counts.at("calendar_insert_steps").as_u64(), n.calendar_insert_steps);
  EXPECT_EQ(counts.at("delivery_events").as_u64(), n.delivery_events);
  EXPECT_EQ(counts.at("messages_delivered").as_u64(), n.messages_delivered);
  EXPECT_EQ(counts.at("logical_events").as_u64(), n.logical_events);
}

TEST(Perf, CountGateFailsOnAnyRiseAndOnlyOnARise) {
  PerfCountReport report;
  report.scenario = "s";
  report.counts.events_scheduled = 100;
  report.counts.calendar_insert_steps = 7;
  report.counts.logical_events = 50;
  const Json baseline = count_report_json({report});
  EXPECT_TRUE(count_regressions(report, baseline).empty());

  PerfCountReport fewer = report;
  fewer.counts.events_scheduled = 99;
  EXPECT_TRUE(count_regressions(fewer, baseline).empty());

  PerfCountReport more = report;
  more.counts.calendar_insert_steps = 8;  // zero tolerance: one step fails
  more.counts.logical_events = 51;
  const std::vector<std::string> lines = count_regressions(more, baseline);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "s calendar_insert_steps: 8 > 7");
  EXPECT_EQ(lines[1], "s logical_events: 51 > 50");

  PerfCountReport other = report;
  other.scenario = "missing";
  EXPECT_THROW(count_regressions(other, baseline), std::runtime_error);
}

}  // namespace
}  // namespace gtrix
