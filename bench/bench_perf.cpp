// Engine performance bench: the committed perf trajectory (BENCH_perf.json).
//
// Every scenario of the timing set runs once, serially, on the engine.
// The report records per-layer work counts that are deterministic and need
// no telemetry (so the gate works in GTRIX_OBS=OFF builds too):
//   scheduler  events scheduled / executed, calendar rebuilds, calendar
//              insert-walk steps;
//   network    delivery events vs messages delivered;
//   total      logical events (invariant under batching and sharding).
// Wall time is reported as ns per logical event next to the host
// fingerprint; it is trajectory only and never gated.
//
// Modes:
//   (default)  the timing set (quickstart-grid, torus-smoke,
//              table1-comparison, thm11-logd, thm16-stabilization); prints
//              the BENCH_perf.json document.
//   --quick    CI smoke: quickstart-grid + table1-comparison.
//   --baseline=FILE  count gate: fails (exit 1) if any count of a measured
//              scenario exceeds the same count in FILE. The counts are
//              deterministic, so the tolerance is zero.
//   --telemetry-gate / --checkpoint-gate  the overhead gates (below).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/perf.hpp"
#include "scenario/registry.hpp"
#include "support/flags.hpp"

namespace gtrix {
namespace {

// The overhead gates anchor on table1-comparison: a ~0.1 s workload, far
// less noise-prone than the ~5 ms quickstart-grid cells.
constexpr const char* kGateScenario = "table1-comparison";

void write_file(const std::filesystem::path& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << contents;
  if (!out.flush()) throw std::runtime_error("short write to " + path.string());
}

Json read_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read baseline " + path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return Json::parse(text);
}

int run(int argc, char** argv) {
  Usage usage("bench_perf",
              "Deterministic per-layer work counts and ns per logical event.");
  usage.flag("--quick", "CI smoke: small timing set");
  usage.flag("--repeats=N", "repeats per mode for the overhead gates (default 5)");
  usage.flag("--scenario=NAME", "measure only this built-in scenario");
  usage.flag("--out=FILE", "also write the report JSON to FILE");
  usage.flag("--baseline=FILE", "fail if any work count exceeds this BENCH_perf.json's");
  usage.flag("--telemetry-gate=TOL",
             "run ONLY the telemetry on/off overhead comparison on the gate "
             "scenario and fail if overhead exceeds TOL (e.g. 0.05); results "
             "must stay bit-identical");
  usage.flag("--checkpoint-gate=BUDGET",
             "run ONLY the checkpointing comparison (plain vs snapshotting, "
             "plus a restore pass) on the gate scenario and fail if the mean "
             "per-snapshot write or restore cost exceeds BUDGET seconds; all "
             "three paths must stay bit-identical");
  usage.flag("--checkpoint-every=T",
             "snapshot interval for --checkpoint-gate (simulated time; "
             "default 4000 = two nominal waves)");
  usage.flag("--help", "show this help");
  const Flags flags(argc, argv, {"--quick", "--help"});
  if (flags.get_bool("help", false)) {
    std::fputs(usage.str().c_str(), stdout);
    return 0;
  }
  for (const std::string& name : flags.names()) {
    const auto known = usage.flag_names();
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "unknown flag --%s (see --help)\n", name.c_str());
      return 2;
    }
  }

  const bool quick = flags.get_bool("quick", false);
  const int repeats = static_cast<int>(flags.get_int("repeats", 5));

  if (flags.has("telemetry-gate")) {
    if (!kObsCompiled) {
      // Nothing to gate: the disabled build has no telemetry code at all.
      std::fprintf(stderr, "telemetry gate skipped: built with GTRIX_OBS=OFF\n");
      return 0;
    }
    const double tolerance = flags.get_double("telemetry-gate", 0.05);
    const std::string name = flags.get_string("scenario", kGateScenario);
    std::fprintf(stderr, "telemetry overhead on %s (%d repeats, on vs off)...\n",
                 name.c_str(), repeats);
    const TelemetryOverheadReport report =
        run_telemetry_overhead(builtin_scenario(name), repeats);
    const Json doc = telemetry_overhead_json(report);
    std::fputs((doc.dump(2) + "\n").c_str(), stdout);
    if (flags.has("out")) write_file(flags.get_string("out", ""), doc.dump(2) + "\n");
    if (!report.skew_identical) {
      std::fprintf(stderr, "FAIL: telemetry changed skew results -- it must be "
                           "purely observational\n");
      return 1;
    }
    if (report.overhead > tolerance) {
      std::fprintf(stderr,
                   "FAIL: telemetry overhead %.1f%% exceeds %.1f%% tolerance "
                   "(%.3fs on vs %.3fs off)\n",
                   report.overhead * 100.0, tolerance * 100.0, report.on_wall_seconds,
                   report.off_wall_seconds);
      return 1;
    }
    std::fprintf(stderr, "telemetry gate OK: %.1f%% overhead <= %.1f%% (%.3fs on, %.3fs off)\n",
                 report.overhead * 100.0, tolerance * 100.0, report.on_wall_seconds,
                 report.off_wall_seconds);
    return 0;
  }

  if (flags.has("checkpoint-gate")) {
    // The gate budgets the MEAN PER-SNAPSHOT cost, not overhead relative to
    // the plain run: the CI scenarios burn huge simulated time per
    // wall-second, so any relative figure is dominated by the snapshot
    // cadence, not by how cheap a snapshot is. Relative overhead, size and
    // count are still reported for the trajectory.
    const double budget = flags.get_double("checkpoint-gate", 0.025);
    const double every = flags.get_double("checkpoint-every", 4000.0);
    const std::string name = flags.get_string("scenario", kGateScenario);
    const std::string scratch =
        (std::filesystem::temp_directory_path() / "gtrix-bench-ckpt-gate").string();
    std::fprintf(stderr,
                 "checkpoint cost on %s (%d repeats, plain vs snapshots every "
                 "%g sim-time, then a restore pass)...\n",
                 name.c_str(), repeats, every);
    const CheckpointOverheadReport report =
        run_checkpoint_overhead(builtin_scenario(name), repeats, scratch, every);
    const Json doc = checkpoint_overhead_json(report);
    std::fputs((doc.dump(2) + "\n").c_str(), stdout);
    if (flags.has("out")) write_file(flags.get_string("out", ""), doc.dump(2) + "\n");
    if (!report.skew_identical) {
      std::fprintf(stderr, "FAIL: checkpointed or resumed cells diverged from the "
                           "plain run -- snapshots must be exact\n");
      return 1;
    }
    if (report.checkpoints_written == 0 || report.checkpoints_restored == 0) {
      std::fprintf(stderr, "FAIL: the gate wrote %llu and restored %llu snapshots "
                           "(interval %g longer than every cell?) -- nothing was "
                           "measured\n",
                   static_cast<unsigned long long>(report.checkpoints_written),
                   static_cast<unsigned long long>(report.checkpoints_restored), every);
      return 1;
    }
    const double write_each = report.checkpoint_write_seconds /
                              static_cast<double>(report.checkpoints_written);
    const double restore_each = report.checkpoint_restore_seconds /
                                static_cast<double>(report.checkpoints_restored);
    if (write_each > budget || restore_each > budget) {
      std::fprintf(stderr,
                   "FAIL: per-snapshot cost exceeds the %.1f ms budget: "
                   "%.2f ms/write (%llu snapshots, %.1f KiB total), "
                   "%.2f ms/restore (%llu restores)\n",
                   budget * 1e3, write_each * 1e3,
                   static_cast<unsigned long long>(report.checkpoints_written),
                   static_cast<double>(report.checkpoint_bytes) / 1024.0,
                   restore_each * 1e3,
                   static_cast<unsigned long long>(report.checkpoints_restored));
      return 1;
    }
    std::fprintf(stderr,
                 "checkpoint gate OK: %.2f ms/write, %.2f ms/restore <= %.1f ms "
                 "budget (%llu snapshots, %.1f KiB; overhead vs plain %.0f%% at "
                 "every=%g)\n",
                 write_each * 1e3, restore_each * 1e3, budget * 1e3,
                 static_cast<unsigned long long>(report.checkpoints_written),
                 static_cast<double>(report.checkpoint_bytes) / 1024.0,
                 report.overhead * 100.0, every);
    return 0;
  }

  std::vector<std::string> timing_set;
  if (flags.has("scenario")) {
    timing_set = {flags.get_string("scenario", "")};
  } else if (quick) {
    timing_set = {"quickstart-grid", kGateScenario};
  } else {
    // The timing set spans the engine's regimes: tiny grid with i.i.d.
    // random delays (quickstart), component-spec torus (torus-smoke),
    // uniform-delay batching (table1), large-grid scheduling (thm11-logd),
    // and the corruption/realign path (thm16).
    timing_set = {"quickstart-grid", "torus-smoke", kGateScenario, "thm11-logd",
                  "thm16-stabilization"};
  }

  std::vector<PerfCountReport> reports;
  for (const std::string& name : timing_set) {
    std::fprintf(stderr, "measuring %s...\n", name.c_str());
    reports.push_back(run_count_pass(builtin_scenario(name)));
    const PerfCountReport& r = reports.back();
    std::fprintf(stderr, "%s: %llu logical events, %.1f ns/event\n", name.c_str(),
                 static_cast<unsigned long long>(r.counts.logical_events),
                 r.ns_per_logical_event);
  }

  const Json doc = count_report_json(reports);
  std::fputs((doc.dump(2) + "\n").c_str(), stdout);
  if (flags.has("out")) write_file(flags.get_string("out", ""), doc.dump(2) + "\n");

  if (flags.has("baseline")) {
    const Json baseline = read_json(flags.get_string("baseline", ""));
    std::vector<std::string> regressions;
    for (const PerfCountReport& report : reports) {
      for (std::string& line : count_regressions(report, baseline)) {
        regressions.push_back(std::move(line));
      }
    }
    if (!regressions.empty()) {
      for (const std::string& line : regressions) {
        std::fprintf(stderr, "FAIL: work count rose: %s\n", line.c_str());
      }
      return 1;
    }
    std::fprintf(stderr, "perf gate OK: no work count above the baseline (%zu scenarios)\n",
                 reports.size());
  }
  return 0;
}

}  // namespace
}  // namespace gtrix

int main(int argc, char** argv) { return gtrix::run_cli(argc, argv, gtrix::run); }
