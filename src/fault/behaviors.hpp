// Faulty-node behaviours.
//
// Send-behaviour faults (static offset, split, jitter, mute-after) run the
// correct algorithm and only change what reaches the wire. Each such node
// has one SendFault record: the node shifts its broadcast time by `shift`
// and hands the pulse to emit_pulse(), which sends it the faulty way.
// FixedPeriodRogue and CrashSink replace the algorithm altogether.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "metrics/recorder.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace gtrix {

class CkptWriter;
class CkptCursor;

/// One send-behaviour fault, as data. World owns the records in grid order
/// and a faulty node points to its own.
struct SendFault {
  FaultKind kind = FaultKind::kStaticOffset;
  NetNodeId self = 0;
  double shift = 0.0;  ///< added to the broadcast time (local units)
  double alpha = 0.0;  ///< kJitter: extra delays are drawn from [0, 2 alpha]
  /// kSplit: the extra delay of every out-edge (0, alpha or 2 alpha).
  std::vector<std::pair<EdgeId, double>> split_plan;
  Rng rng{0};              ///< kJitter: the node's own stream
  std::int64_t after = 0;  ///< kMuteAfter: pulses sent before silence
  std::int64_t sent = 0;   ///< kMuteAfter: pulses sent so far

  /// Jitter and mute-after records change as the run goes on; their
  /// (rng, sent) pairs are the checkpoint "faults" section.
  bool has_state() const noexcept {
    return kind == FaultKind::kJitter || kind == FaultKind::kMuteAfter;
  }
};

/// Builds the record of grid node `g` (its network id), whose out-edges
/// must already be wired. A jitter node draws its stream as
/// fault_rng.split("jitter"), so records must be built in grid order.
SendFault make_send_fault(const FaultSpec& spec, GridNodeId g, const Grid& grid,
                          const Network& net, Rng& fault_rng);

/// Sends the pulse a faulty node broadcasts, the way its fault dictates.
void emit_pulse(SendFault& fault, Network& net, const Pulse& pulse);

/// A node whose control logic is dead but whose oscillator still runs: it
/// ignores every input and broadcasts at a fixed period. Its wave stamps
/// advance monotonically but bear no relation to real waves.
class FixedPeriodRogue final : public PulseSink, public TimerTarget {
 public:
  /// Emits at `first_at`, `first_at + period`, ... up to `max_pulses` pulses
  /// (the cap keeps the event queue finite).
  FixedPeriodRogue(Simulator& sim, Network& net, NetNodeId self, double period,
                   double first_at, std::int64_t max_pulses, Recorder* recorder);

  void start();

  void on_pulse(NetNodeId /*from*/, EdgeId /*edge*/, const Pulse& /*pulse*/,
                SimTime /*now*/) override {
    // Ignores all inputs.
  }

  void on_timer(const Event& event) override;

  /// Checkpoint hooks (src/ckpt/nodes_ckpt.cpp): wave label + emit counter
  /// (the pending tick event lives in the queue snapshot).
  void checkpoint_save(CkptWriter& w) const;
  void checkpoint_restore(CkptCursor& r);

 private:
  enum TimerKind : std::uint32_t { kTick = 1 };

  void tick(SimTime now);

  Simulator& sim_;
  Network& net_;
  NetNodeId self_;
  double period_;
  double first_at_;
  std::int64_t max_pulses_;
  Recorder* recorder_;
  Sigma sigma_ = 0;
  std::uint64_t emitted_ = 0;
};

/// Silently absorbs all pulses (crash fault). Useful where a null sink is
/// not convenient (keeps counters).
class CrashSink final : public PulseSink {
 public:
  void on_pulse(NetNodeId /*from*/, EdgeId /*edge*/, const Pulse& /*pulse*/,
                SimTime /*now*/) override {
    ++absorbed_;
  }

  /// Checkpoint hooks (src/ckpt/nodes_ckpt.cpp): the absorbed counter.
  void checkpoint_save(CkptWriter& w) const;
  void checkpoint_restore(CkptCursor& r);

 private:
  std::uint64_t absorbed_ = 0;
};

}  // namespace gtrix
