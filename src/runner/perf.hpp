// Performance measurement harness: the committed perf trajectory.
//
// bench_perf (and the CI perf smoke) run every cell of a scenario once,
// serially, and record the deterministic work each layer did: scheduler
// events scheduled and executed, calendar rebuilds and insert-walk steps,
// network delivery events against messages delivered, and the logical
// event total (executed queue events minus delivery events plus messages
// delivered, invariant under broadcast batching and sharding). The counts
// are a pure function of the code and the scenario, so the baseline gate
// compares them exactly; the wall time is reported as ns per logical event
// for the trajectory and is not gated. See docs/performance.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/campaign.hpp"
#include "scenario/spec.hpp"
#include "support/json.hpp"

namespace gtrix {

/// Deterministic per-layer work of one scenario (summed over its cells).
struct PerfCounts {
  // Scheduler layer.
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t calendar_rebuilds = 0;
  std::uint64_t calendar_insert_steps = 0;
  // Network layer.
  std::uint64_t delivery_events = 0;
  std::uint64_t messages_delivered = 0;
  // Engine-invariant total.
  std::uint64_t logical_events = 0;
};

struct PerfCountReport {
  std::string scenario;
  std::size_t cells = 0;
  PerfCounts counts;
  double wall_seconds = 0.0;          ///< the one serial pass
  double ns_per_logical_event = 0.0;  ///< trajectory only, never gated
};

/// Serializes one cell's skew report to the exact byte string the identity
/// checks compare (the campaign JSONL skew object).
std::string skew_digest(const ExperimentResult& result);

/// Runs every cell of `scenario` once on the default engine.
PerfCountReport run_count_pass(const Scenario& scenario);

/// The BENCH_perf.json document.
Json count_report_json(const std::vector<PerfCountReport>& reports);

/// One line per count of `report` that exceeds the same scenario's count in
/// `baseline` (a BENCH_perf.json document), e.g. "table1-comparison
/// events_scheduled: 123 > 120". Throws if the baseline lacks the scenario.
std::vector<std::string> count_regressions(const PerfCountReport& report, const Json& baseline);

/// Telemetry overhead measurement (the CI "telemetry is ~free" gate; see
/// docs/observability.md). Runs every cell with telemetry off and on,
/// alternating pass order per repeat; wall time takes the fastest repeat
/// per mode.
struct TelemetryOverheadReport {
  std::string scenario;
  std::size_t cells = 0;
  int repeats = 1;
  double off_wall_seconds = 0.0;  ///< best repeat, telemetry disabled
  double on_wall_seconds = 0.0;   ///< best repeat, telemetry enabled
  /// on/off - 1; <= 0 means enabling was within noise of free.
  double overhead = 0.0;
  bool skew_identical = false;    ///< telemetry must not change results
};

TelemetryOverheadReport run_telemetry_overhead(const Scenario& scenario, int repeats);

Json telemetry_overhead_json(const TelemetryOverheadReport& report);

/// Checkpoint overhead measurement (the CI "snapshots are cheap and exact"
/// gate; see docs/checkpointing.md). Runs every cell plain vs checkpointed
/// (periodic snapshots to `scratch_dir`), alternating order per repeat, then
/// one resume pass that restores each cell from its newest snapshot. All
/// three paths must produce bit-identical skew digests.
struct CheckpointOverheadReport {
  std::string scenario;
  std::size_t cells = 0;
  int repeats = 1;
  double every = 0.0;                  ///< simulated time between snapshots
  double plain_wall_seconds = 0.0;     ///< summed per-cell best, no checkpointing
  double ckpt_wall_seconds = 0.0;      ///< summed per-cell best, checkpointing on
  /// ckpt/plain - 1; <= 0 means snapshotting was within noise of free.
  double overhead = 0.0;
  std::uint64_t checkpoints_written = 0;  ///< snapshots per checkpointed pass
  std::uint64_t checkpoint_bytes = 0;     ///< bytes per checkpointed pass
  double checkpoint_write_seconds = 0.0;  ///< best pass's time inside snapshot writes
  double restore_wall_seconds = 0.0;      ///< resume pass total (restore + tail re-run)
  double checkpoint_restore_seconds = 0.0;  ///< time inside snapshot loads
  std::uint64_t checkpoints_restored = 0;
  bool skew_identical = false;  ///< plain == checkpointed == resumed, bit for bit
};

CheckpointOverheadReport run_checkpoint_overhead(const Scenario& scenario, int repeats,
                                                 const std::string& scratch_dir,
                                                 double every);

Json checkpoint_overhead_json(const CheckpointOverheadReport& report);

}  // namespace gtrix
