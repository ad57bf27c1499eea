#include "fault/behaviors.hpp"

#include "support/check.hpp"

namespace gtrix {

SendFault make_send_fault(const FaultSpec& spec, GridNodeId g, const Grid& grid,
                          const Network& net, Rng& fault_rng) {
  SendFault f{.kind = spec.kind, .self = g};
  switch (spec.kind) {
    case FaultKind::kStaticOffset:
      f.shift = spec.offset;
      break;
    case FaultKind::kSplit: {
      // Send early to lower-column successors, late to higher-column ones.
      // The node fires alpha early; per-edge extras of 0 / alpha / 2 alpha
      // realize -alpha / 0 / +alpha.
      f.shift = -spec.alpha;
      const std::uint32_t own_col = grid.base().column(grid.base_of(g));
      for (const EdgeId e : net.out_edges(g)) {
        const std::uint32_t to_col = grid.base().column(grid.base_of(net.edge_to(e)));
        double extra = spec.alpha;  // same column: on time
        if (to_col < own_col) extra = 0.0;
        if (to_col > own_col) extra = 2.0 * spec.alpha;
        f.split_plan.emplace_back(e, extra);
      }
      break;
    }
    case FaultKind::kJitter:
      f.shift = -spec.alpha;
      f.alpha = spec.alpha;
      f.rng = fault_rng.split("jitter");
      break;
    case FaultKind::kMuteAfter:
      f.after = spec.after;
      break;
    case FaultKind::kCrash:
    case FaultKind::kFixedPeriod:
      GTRIX_CHECK_MSG(false, "crash and fixed-period nodes do not run the algorithm");
  }
  return f;
}

void emit_pulse(SendFault& fault, Network& net, const Pulse& pulse) {
  switch (fault.kind) {
    case FaultKind::kSplit:
      for (const auto& [edge, extra] : fault.split_plan) {
        if (extra <= 0.0) {
          net.send(edge, pulse);
        } else {
          net.send_after(edge, pulse, extra);
        }
      }
      return;
    case FaultKind::kJitter:
      for (const EdgeId e : net.out_edges(fault.self)) {
        net.send_after(e, pulse, fault.rng.uniform(0.0, 2.0 * fault.alpha));
      }
      return;
    case FaultKind::kMuteAfter:
      if (fault.sent >= fault.after) return;  // silent from now on
      ++fault.sent;
      net.broadcast(fault.self, pulse);
      return;
    case FaultKind::kStaticOffset:  // only the timing differs
    case FaultKind::kCrash:
    case FaultKind::kFixedPeriod:
      net.broadcast(fault.self, pulse);
      return;
  }
}

FixedPeriodRogue::FixedPeriodRogue(Simulator& sim, Network& net, NetNodeId self,
                                   double period, double first_at,
                                   std::int64_t max_pulses, Recorder* recorder)
    : sim_(sim), net_(net), self_(self), period_(period), first_at_(first_at),
      max_pulses_(max_pulses), recorder_(recorder) {
  GTRIX_CHECK_MSG(period_ > 0.0, "rogue period must be positive");
}

void FixedPeriodRogue::start() {
  sim_.at(first_at_, this, kTick);
}

void FixedPeriodRogue::on_timer(const Event& event) { tick(event.time); }

void FixedPeriodRogue::tick(SimTime now) {
  ++sigma_;
  ++emitted_;
  if (recorder_ != nullptr) recorder_->record_pulse(self_, sigma_, now);
  net_.broadcast(self_, Pulse{sigma_});
  if (static_cast<std::int64_t>(emitted_) < max_pulses_) {
    sim_.at(now + period_, this, kTick);
  }
}

}  // namespace gtrix
