// The Gradient TRIX pulse-forwarding node: the paper's core contribution.
//
// Implements, per configuration:
//  * Algorithm 1 (simplified; §3.1) -- waits for all three reception times,
//    valid only when all predecessors are correct and sending,
//  * Algorithm 3 (full; Appendix B) -- tolerates a silent or misbehaving
//    predecessor via the timeout condition
//        H_min < inf  and  H(t) >= min{ H_max + kappa/2 + theta kappa,
//                                       2 H_own - H_min + 2 kappa },
//  * Algorithm 4 (self-stabilizing; Appendix C) -- adds guards on every
//    waiting statement.
// The Appendix C watchdog that clears half-filled state is armed in every
// mode: it has no effect after stabilization (Observation C.4) but lets deep
// layers cold-start under Appendix-A line input, where early iterations
// would otherwise group pulses of different waves.
//
// In each iteration the node timestamps its predecessors' pulses with its
// hardware clock, computes the correction C_{v,l} (see core/correction.hpp)
// and broadcasts at local time H_own + Lambda - d - C_{v,l}.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "clock/hardware_clock.hpp"
#include "core/correction.hpp"
#include "core/node_state.hpp"
#include "core/params.hpp"
#include "fault/behaviors.hpp"
#include "metrics/recorder.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace gtrix {

class GradientTrixNode final : public PulseSink, public TimerTarget {
 public:
  /// `preds` lists the network ids of the predecessors, own copy first --
  /// exactly Grid::predecessors mapped to network ids. The node keeps the
  /// span and a pointer to `settings`, so both must outlive the node (World
  /// passes the Grid's span and its own settings). `simplified` selects
  /// Algorithm 1 instead of Algorithm 3 (requires fault-free predecessors).
  /// `fault` is null for a correct node; a faulty one shifts its broadcast
  /// and sends through fault/behaviors.hpp's emit_pulse. The clock is
  /// owned. Hot per-iteration state and the pending-message queue live in
  /// `soa` (a NodeArena's gradient lanes, see core/node_state.hpp).
  GradientTrixNode(Simulator& sim, Network& net, NetNodeId self, HardwareClock clock,
                   std::span<const NetNodeId> preds, const AlgorithmSettings& settings,
                   bool simplified, SendFault* fault, Recorder* recorder, GradientSoa& soa);

  GradientTrixNode(const GradientTrixNode&) = delete;
  GradientTrixNode& operator=(const GradientTrixNode&) = delete;

  void on_pulse(NetNodeId from, EdgeId edge, const Pulse& pulse, SimTime now) override;

  /// Typed-event dispatch for the node's three timers (until / broadcast /
  /// watchdog). Each is tracked by a cancellable TimerHandle; firing or
  /// cancelling invalidates the handle, so no generation bookkeeping is
  /// needed at this level.
  void on_timer(const Event& event) override;

  /// Randomizes all mutable state (phase, reception times, flags, timers)
  /// to model a transient fault / arbitrary initial state (Theorem 1.6).
  void corrupt_state(Rng& rng);

  struct Counters {
    std::uint64_t iterations = 0;         ///< completed (broadcast) iterations
    std::uint64_t late_broadcasts = 0;    ///< broadcast target already passed
    std::uint64_t guard_aborts = 0;       ///< Alg 4 wait-guard trips (no broadcast)
    std::uint64_t watchdog_resets = 0;    ///< Alg 4 partial-state clears
    std::uint64_t duplicate_drops = 0;    ///< repeated pulse within an iteration
    std::uint64_t pending_overflow = 0;   ///< pending queue cap exceeded
    std::uint64_t timeout_branches = 0;   ///< Alg 3 first branch taken
    std::uint64_t late_absorbed = 0;      ///< current-wave pulses consumed mid-wait
  };
  const Counters& counters() const noexcept { return counters_; }

  const HardwareClock& clock() const noexcept { return clock_; }
  NetNodeId id() const noexcept { return self_; }

  /// Checkpoint hooks (src/ckpt/nodes_ckpt.cpp): the arena registers
  /// (phase, reception times, slot lanes, timer handles -- handles stay
  /// valid because the queue snapshot preserves slot generations), the
  /// arena's pending-message queue, the staged iteration record and the
  /// counters.
  void checkpoint_save(CkptWriter& w) const;
  void checkpoint_restore(CkptCursor& r);

 private:
  enum class Phase { kCollect, kWaitBroadcast };

  /// Timer kinds. kUntilTimer / kBroadcastTimer carry the local-time
  /// threshold in payload.f so the fire path compares the exact floating-
  /// point value that defined the deadline.
  enum TimerKind : std::uint32_t { kUntilTimer = 1, kBroadcastTimer = 2, kWatchdogTimer = 3 };

  static constexpr std::size_t kMaxSlots = IterationRecord::kMaxSlots;
  static constexpr std::size_t kPendingCap = 16;

  int slot_of(NetNodeId from) const;
  void process_message(NetNodeId from, LocalTime h, Sigma sigma, SimTime now);
  void update_until(SimTime now, LocalTime now_local);
  void arm_until_timer(LocalTime threshold);
  void arm_watchdog();
  void exit_collect(SimTime now, LocalTime now_local);
  void finish_iteration_without_pulse(SimTime now);
  void schedule_broadcast(SimTime now, LocalTime target, IterationRecord record);
  void do_broadcast(SimTime now, LocalTime fire_local);
  void reset_iteration_state();
  void drain_pending(SimTime now);
  Sigma estimate_sigma() const;
  std::pair<LocalTime, LocalTime> thresholds() const;  ///< (thr1, thr2); inf if unset

  // Hot-state accessors into the SoA arena (Algorithm 3 registers). The
  // arena index and slot-lane base are resolved once at construction.
  Phase phase() const { return static_cast<Phase>(soa_->phase[i_]); }
  void set_phase(Phase p) { soa_->phase[i_] = static_cast<std::uint8_t>(p); }
  LocalTime& h_own() { return soa_->h_own[i_]; }
  LocalTime h_own() const { return soa_->h_own[i_]; }
  LocalTime& h_min() { return soa_->h_min[i_]; }
  LocalTime h_min() const { return soa_->h_min[i_]; }
  LocalTime& h_max() { return soa_->h_max[i_]; }
  LocalTime h_max() const { return soa_->h_max[i_]; }
  Sigma& last_sigma() { return soa_->last_sigma[i_]; }
  Sigma last_sigma() const { return soa_->last_sigma[i_]; }
  TimerHandle& until_timer() { return soa_->until_timer[i_]; }
  TimerHandle& broadcast_timer() { return soa_->broadcast_timer[i_]; }
  TimerHandle& watchdog_timer() { return soa_->watchdog_timer[i_]; }
  std::uint8_t& r(std::size_t slot) { return soa_->slot_r[slot_base_ + slot]; }
  std::uint8_t r(std::size_t slot) const { return soa_->slot_r[slot_base_ + slot]; }
  std::uint8_t& seen(std::size_t slot) { return soa_->slot_seen[slot_base_ + slot]; }
  std::uint8_t seen(std::size_t slot) const { return soa_->slot_seen[slot_base_ + slot]; }
  Sigma& slot_sigma(std::size_t slot) { return soa_->slot_sigma[slot_base_ + slot]; }
  Sigma slot_sigma(std::size_t slot) const { return soa_->slot_sigma[slot_base_ + slot]; }
  PendingQueues& pending() { return soa_->pending; }

  Simulator& sim_;
  Network& net_;
  NetNodeId self_;
  bool simplified_;  // Algorithm 1 instead of Algorithm 3
  HardwareClock clock_;
  std::span<const NetNodeId> preds_;  // slot order; [0] is the own copy
  const AlgorithmSettings* settings_;  // shared by every node of the World
  SendFault* fault_;                   // null for a correct node
  Recorder* recorder_;                 // non-owning; may be null

  // SoA residency: the arena's gradient lanes. Timer handles and the
  // pending queue live there too; handles go stale automatically when a
  // timer fires, so a reset is always safe.
  GradientSoa* soa_;
  std::uint32_t i_;          // arena index
  std::uint32_t slot_base_;  // first entry of this node's slot lanes

  // Cold per-node state: touched once per iteration (or less), kept out of
  // the hot lanes on purpose.
  IterationRecord staged_record_{};  // filled at exit_collect, recorded at fire
  Counters counters_;
};

}  // namespace gtrix
