// Node-level unit tests: a single GradientTrixNode driven by hand-crafted
// message schedules through a real (tiny) network. These pin down the
// pseudocode semantics directly -- until-loop exit times, branch selection,
// correction values, absorption of late current-wave messages, the
// watchdog, duplicate handling and the send-behaviour faults --
// independent of the full grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <vector>

#include "core/gradient_node.hpp"
#include "core/node_state.hpp"
#include "fault/behaviors.hpp"
#include "graph/grid.hpp"
#include "metrics/recorder.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace gtrix {
namespace {

/// One node under test with three predecessors (own + two neighbours),
/// rate-1 clock with zero offset (local time == real time), so expected
/// pulse times can be computed by hand.
struct NodeHarness {
  Simulator sim;
  Network net{sim};
  Recorder recorder;
  NodeArena arena;
  NetNodeId own_pred, nbr_a, nbr_b, self;
  std::array<NetNodeId, 3> preds{};  // the node keeps a span into this
  std::optional<GradientTrixNode> node;
  Params params = Params::with(1000.0, 10.0, 1.0005);
  AlgorithmSettings settings;  // the node keeps a pointer to it

  explicit NodeHarness(AlgorithmSettings base = {}, bool simplified = false) {
    own_pred = net.add_node(nullptr);
    nbr_a = net.add_node(nullptr);
    nbr_b = net.add_node(nullptr);
    self = net.add_node(nullptr);
    recorder.register_node(self, {});
    settings = base;
    settings.params = params;
    settings.skew_bound_hint = params.thm11_bound(15);
    preds = {own_pred, nbr_a, nbr_b};
    node.emplace(sim, net, self, HardwareClock(1.0, 0.0), preds, settings, simplified, nullptr,
                 &recorder, arena.gradient);
    net.set_sink(self, &*node);
  }

  /// Delivers a pulse from `from` arriving exactly at absolute time `t`.
  void arrive(NetNodeId from, double t, Sigma stamp = 1) {
    net.inject(from, self, Pulse{stamp}, t);
  }

  /// Runs to completion and returns the node's recorded pulse times.
  const std::vector<IterationRecord>& run() {
    sim.run_all();
    return recorder.iterations(self);
  }

  double kappa() const { return params.kappa(); }
  double lambda_minus_d() const { return params.lambda - params.d; }
};

TEST(NodeUnit, BalancedArrivalsPulseAtOwnPlusLambdaMinusD) {
  NodeHarness h;
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.own_pred, 1002.0);
  h.arrive(h.nbr_b, 1004.0);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_FALSE(its[0].timeout_branch);
  EXPECT_FALSE(its[0].late);
  // Delta = min_s max(own-max+4sk, own-min-4sk) - k/2 = max(-2, 2) - k/2 < 0
  // -> C = min(own - min + 3k/2, 0) = min(2 + 31.5, 0) = 0.
  EXPECT_DOUBLE_EQ(its[0].correction, 0.0);
  EXPECT_DOUBLE_EQ(its[0].pulse_time, 1002.0 + h.lambda_minus_d());
}

TEST(NodeUnit, UntilWaitsSymmetricWindowForLastNeighbour) {
  // Neighbour A early, own next; neighbour B arrives before the until
  // deadline 2 H_own - H_min + 2k and is included in the correction.
  NodeHarness h;
  const double k = h.kappa();
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.own_pred, 1010.0);
  // Deadline: 2*1010 - 1000 + 2k = 1020 + 2k. Arrive before it:
  h.arrive(h.nbr_b, 1015.0);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_FALSE(its[0].max_missing);
  EXPECT_DOUBLE_EQ(its[0].h_max, 1015.0);
  (void)k;
}

TEST(NodeUnit, MissingLastNeighbourCollapsesToNegativeBranch) {
  // Neighbour B never arrives: at the deadline the H_own - H_max term is
  // -infinity and C = min(H_own - H_min + 3k/2, 0) (Lemma B.2's reading).
  NodeHarness h;
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.own_pred, 1010.0);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_TRUE(its[0].max_missing);
  EXPECT_FALSE(its[0].timeout_branch);
  // own - min + 3k/2 = 10 + 31.5 > 0 -> C = 0; pulse at own + (Lambda - d).
  EXPECT_DOUBLE_EQ(its[0].correction, 0.0);
  EXPECT_DOUBLE_EQ(its[0].pulse_time, 1010.0 + h.lambda_minus_d());
}

TEST(NodeUnit, MissingLastNeighbourWithVeryEarlyOwnTiesToMin) {
  // Own far earlier than the only neighbour: C = own - min + 3k/2 < 0,
  // i.e. the node waits and effectively pulses off H_min - 3k/2.
  NodeHarness h;
  const double k = h.kappa();
  h.arrive(h.own_pred, 1000.0);
  h.arrive(h.nbr_a, 1000.0 + 5.0 * k);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_TRUE(its[0].max_missing);
  EXPECT_DOUBLE_EQ(its[0].correction, -5.0 * k + 1.5 * k);
  EXPECT_DOUBLE_EQ(its[0].pulse_time, 1000.0 + 5.0 * k - 1.5 * k + h.lambda_minus_d());
}

TEST(NodeUnit, MissingOwnTakesTimeoutBranch) {
  // Own copy silent: until expires at H_max + k/2 + theta k; pulse at
  // H_max + 3k/2 + Lambda - d (Algorithm 3 first branch).
  NodeHarness h;
  const double k = h.kappa();
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.nbr_b, 1006.0);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_TRUE(its[0].timeout_branch);
  EXPECT_TRUE(its[0].own_missing);
  EXPECT_DOUBLE_EQ(its[0].pulse_time, 1006.0 + 1.5 * k + h.lambda_minus_d());
}

TEST(NodeUnit, LateOwnMessageIsAbsorbedNotDeferred) {
  // Own arrives after the timeout branch committed but before the pulse:
  // it must be consumed by the current wave (Lemma B.1), not leak into the
  // next iteration.
  NodeHarness h;
  const double k = h.kappa();
  h.arrive(h.nbr_a, 1000.0, 1);
  h.arrive(h.nbr_b, 1006.0, 1);
  // Timeout fires at 1006 + k/2 + theta*k ~= 1037.6; pulse at ~2037.5.
  h.arrive(h.own_pred, 1500.0, 1);  // late own, same wave
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);  // exactly one pulse; no second iteration began
  EXPECT_TRUE(its[0].timeout_branch);
  EXPECT_EQ(h.node->counters().late_absorbed, 1u);
  EXPECT_DOUBLE_EQ(its[0].pulse_time, 1006.0 + 1.5 * k + h.lambda_minus_d());
}

TEST(NodeUnit, OwnLaterThanTimeoutWindowTreatedAsFaulty) {
  // An own copy arriving more than kappa/2 + theta kappa after the last
  // neighbour misses the until deadline: the node commits the timeout
  // branch (it cannot distinguish "very late" from "never"), exactly as
  // the paper's complete algorithm prescribes.
  NodeHarness h;
  const double k = h.kappa();
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.nbr_b, 1001.0);
  h.arrive(h.own_pred, 1000.0 + 10.0 * k);  // way beyond the window
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_TRUE(its[0].timeout_branch);
  EXPECT_DOUBLE_EQ(its[0].pulse_time, 1001.0 + 1.5 * k + h.lambda_minus_d());
}

TEST(NodeUnit, PositiveJumpNeedsWideNeighbourSpread) {
  // Delta > theta kappa with all messages on time requires the neighbours
  // to be far apart (own close to max, min far behind): here
  // A = own-max = k, B = own-min = 9k, Delta = 5k - k/2 > theta k, so the
  // jump-condition clamp yields C = max(A - 3k/2, theta k) = theta k.
  NodeHarness h;
  const double k = h.kappa();
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.nbr_b, 1000.0 + 8.0 * k);
  h.arrive(h.own_pred, 1000.0 + 9.0 * k);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_FALSE(its[0].timeout_branch);
  EXPECT_DOUBLE_EQ(its[0].correction, h.params.theta * k);
}

TEST(NodeUnit, NegativeJumpWhenOwnIsEarly) {
  // Own far ahead: C = own - min + 3k/2 < 0 -> wait.
  NodeHarness h;
  const double k = h.kappa();
  h.arrive(h.own_pred, 1000.0);
  h.arrive(h.nbr_a, 1000.0 + 8.0 * k);
  h.arrive(h.nbr_b, 1000.0 + 9.0 * k);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_DOUBLE_EQ(its[0].correction, -8.0 * k + 1.5 * k);
  EXPECT_DOUBLE_EQ(its[0].pulse_time, 1000.0 + 8.0 * k - 1.5 * k + h.lambda_minus_d());
}

TEST(NodeUnit, DuplicateFromSamePredecessorDropped) {
  NodeHarness h;
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.nbr_a, 1001.0);  // duplicate in the same iteration
  h.arrive(h.own_pred, 1002.0);
  h.arrive(h.nbr_b, 1003.0);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_DOUBLE_EQ(its[0].h_min, 1000.0);
  EXPECT_DOUBLE_EQ(its[0].h_max, 1003.0);
  EXPECT_EQ(h.node->counters().duplicate_drops, 1u);
}

TEST(NodeUnit, MessagesFromStrangersIgnored) {
  NodeHarness h;
  const NetNodeId stranger = h.net.add_node(nullptr);
  h.net.inject(stranger, h.self, Pulse{9}, 900.0);
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.own_pred, 1002.0);
  h.arrive(h.nbr_b, 1004.0);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_DOUBLE_EQ(its[0].h_min, 1000.0);
}

TEST(NodeUnit, SecondWaveQueuedDuringWaitStartsNextIteration) {
  NodeHarness h;
  // Wave 1 complete at ~1004; pulse at ~2002. Wave 2 arrivals land during
  // the wait (same slots again) and must be queued, then processed.
  h.arrive(h.nbr_a, 1000.0, 1);
  h.arrive(h.own_pred, 1002.0, 1);
  h.arrive(h.nbr_b, 1004.0, 1);
  h.arrive(h.nbr_a, 1950.0, 2);  // before pulse at ~2002: queued
  h.arrive(h.own_pred, 2990.0, 2);
  h.arrive(h.nbr_b, 2995.0, 2);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 2u);
  EXPECT_EQ(its[0].sigma, 1);
  EXPECT_EQ(its[1].sigma, 2);
  EXPECT_DOUBLE_EQ(its[1].h_min, 1950.0);  // queued arrival keeps its timestamp
}

TEST(NodeUnit, SigmaMajorityOverridesOwnOutlier) {
  NodeHarness h;
  h.arrive(h.nbr_a, 1000.0, 7);
  h.arrive(h.own_pred, 1002.0, 3);  // faulty own-chain label
  h.arrive(h.nbr_b, 1004.0, 7);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_EQ(its[0].sigma, 7);
}

TEST(NodeUnit, SigmaFallsBackToOwnWithoutMajority) {
  NodeHarness h;
  h.arrive(h.nbr_a, 1000.0, 5);
  h.arrive(h.own_pred, 1002.0, 6);
  h.arrive(h.nbr_b, 1004.0, 7);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_EQ(its[0].sigma, 6);
}

TEST(NodeUnit, SigmaContinuityBeatsByzantineOwnLabel) {
  // Regression: a Byzantine own copy with a drifting label plus one correct
  // neighbour and one missing message gives no majority. The node must
  // prefer continuity (last wave + 1) over the faulty own label, or the
  // whole downstream column stays mislabeled forever while timing is fine.
  NodeHarness h;
  // Wave 1: full majority on label 1 -> node's sequence starts at 1.
  h.arrive(h.nbr_a, 1000.0, 1);
  h.arrive(h.own_pred, 1002.0, 1);
  h.arrive(h.nbr_b, 1004.0, 1);
  // Wave 2: own copy lies (label 1 again), one neighbour silent.
  h.arrive(h.nbr_a, 3000.0, 2);
  h.arrive(h.own_pred, 3002.0, 1);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 2u);
  EXPECT_EQ(its[0].sigma, 1);
  EXPECT_EQ(its[1].sigma, 2);  // continuity wins over the faulty own label
}

TEST(NodeUnit, WatchdogClearsStaleFirstNeighbour) {
  // A lone neighbour message with nothing following within theta(2L+u)
  // local time is spurious and must be forgotten (Appendix C).
  NodeHarness h;
  const double window =
      h.params.theta * (2.0 * h.params.thm11_bound(15) + h.params.u);
  h.arrive(h.nbr_a, 1000.0, 1);
  // Real wave arrives well after the watchdog window:
  const double t2 = 1000.0 + window + 500.0;
  h.arrive(h.nbr_a, t2, 2);
  h.arrive(h.own_pred, t2 + 2.0, 2);
  h.arrive(h.nbr_b, t2 + 4.0, 2);
  const auto& its = h.run();
  EXPECT_EQ(h.node->counters().watchdog_resets, 1u);
  ASSERT_EQ(its.size(), 1u);
  EXPECT_DOUBLE_EQ(its[0].h_min, t2);  // the stale 1000.0 was cleared
  EXPECT_EQ(its[0].sigma, 2);
}

TEST(NodeUnit, SimplifiedModeWaitsForAllThree) {
  NodeHarness h({}, /*simplified=*/true);
  const double k = h.kappa();
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.own_pred, 1000.0 + 6.0 * k);  // would trigger full-mode timeout logic
  h.arrive(h.nbr_b, 1000.0 + 7.0 * k);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_FALSE(its[0].timeout_branch);
  EXPECT_DOUBLE_EQ(its[0].h_max, 1000.0 + 7.0 * k);
}

TEST(NodeUnit, JumpConditionOffUsesRawDelta) {
  AlgorithmSettings settings;
  settings.jump_condition = false;
  NodeHarness h(settings);
  const double k = h.kappa();
  // Same wide-spread scenario as PositiveJumpNeedsWideNeighbourSpread:
  // raw Delta = 5k - k/2, undamped (vs. the clamp at theta k).
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.nbr_b, 1000.0 + 8.0 * k);
  h.arrive(h.own_pred, 1000.0 + 9.0 * k);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  EXPECT_NEAR(its[0].correction, 4.5 * k, 1e-9);
  EXPECT_GT(its[0].correction, h.params.theta * k);
}

TEST(NodeUnit, ExactlyLambdaPeriodOverManyWaves) {
  NodeHarness h;
  const int waves = 10;
  for (int w = 1; w <= waves; ++w) {
    const double base = 1000.0 + (w - 1) * 2000.0;
    h.arrive(h.nbr_a, base, w);
    h.arrive(h.own_pred, base + 2.0, w);
    h.arrive(h.nbr_b, base + 4.0, w);
  }
  const auto& its = h.run();
  ASSERT_EQ(its.size(), static_cast<std::size_t>(waves));
  for (int w = 1; w < waves; ++w) {
    EXPECT_NEAR(its[static_cast<std::size_t>(w)].pulse_time -
                    its[static_cast<std::size_t>(w - 1)].pulse_time,
                2000.0, 1e-9);
  }
}

TEST(NodeUnit, DriftingClockStretchesWait) {
  // With a rate-theta clock, the local wait Lambda - d - C takes
  // (Lambda - d - C)/theta real time.
  NodeHarness h;
  // Re-create the node with a fast clock.
  h.node.emplace(h.sim, h.net, h.self, HardwareClock(h.params.theta, 0.0), h.preds,
                 h.settings, false, nullptr, &h.recorder,
                 h.arena.gradient);  // claims a fresh arena entry
  h.net.set_sink(h.self, &*h.node);
  h.arrive(h.nbr_a, 1000.0);
  h.arrive(h.own_pred, 1002.0);
  h.arrive(h.nbr_b, 1004.0);
  const auto& its = h.run();
  ASSERT_EQ(its.size(), 1u);
  const double wait = h.lambda_minus_d() - its[0].correction;
  EXPECT_NEAR(its[0].pulse_time, 1002.0 + wait / h.params.theta, 1e-9);
}

/// Records the arrival time of every pulse a node receives.
struct ArrivalLog final : PulseSink {
  std::vector<double> times;
  void on_pulse(NetNodeId, EdgeId, const Pulse&, SimTime now) override { times.push_back(now); }
};

/// A faulty gradient node at column 2, layer 1 of a 5-column line grid.
/// Its layer-2 successors sit in columns 1, 2 and 3 behind edges of delay
/// exactly d, so make_send_fault builds its record from real columns, and
/// each successor logs what arrives. Predecessor pulses are injected
/// balanced (own copy at +2, neighbours at 0 and +4), so a correct node
/// would pulse at own + Lambda - d and its pulse would land d later.
struct SendFaultHarness {
  Simulator sim;
  Network net{sim};
  NodeArena arena;
  Grid grid{BaseGraph::line_replicated(5), 3};
  GridNodeId self = grid.id(grid.base().nodes_in_column(2).front(), 1);
  AlgorithmSettings settings;
  SendFault fault;
  std::optional<GradientTrixNode> node;
  std::array<ArrivalLog, 3> by_column;  // successors in columns 1, 2, 3

  explicit SendFaultHarness(const FaultSpec& spec) {
    for (GridNodeId g = 0; g < grid.node_count(); ++g) net.add_node(nullptr);
    settings.params = Params::with(1000.0, 10.0, 1.0005);
    settings.skew_bound_hint = settings.params.thm11_bound(4);
    for (const GridNodeId succ : grid.successors(self)) {
      net.add_edge(self, succ, settings.params.d);
      const std::uint32_t col = grid.base().column(grid.base_of(succ));
      net.set_sink(succ, &by_column.at(col - 1));
    }
    Rng fault_rng(7);
    fault = make_send_fault(spec, self, grid, net, fault_rng);
    node.emplace(sim, net, self, HardwareClock(1.0, 0.0), grid.predecessors(self), settings,
                 false, &fault, nullptr, arena.gradient);
    net.set_sink(self, &*node);
  }

  /// Injects `waves` balanced waves, wave w at 1000 + (w - 1) Lambda, runs
  /// them, and returns when a correct node's wave-1 pulse would land.
  double run(int waves) {
    const auto preds = grid.predecessors(self);
    for (int w = 1; w <= waves; ++w) {
      const double base = 1000.0 + (w - 1) * settings.params.lambda;
      net.inject(preds[1], self, Pulse{w}, base);
      net.inject(preds[0], self, Pulse{w}, base + 2.0);
      net.inject(preds[2], self, Pulse{w}, base + 4.0);
    }
    sim.run_all();
    return 1002.0 + settings.params.lambda;  // own + (Lambda - d) + d
  }
};

TEST(NodeUnit, StaticOffsetFaultShiftsPulse) {
  SendFaultHarness h(FaultSpec::static_offset(123.0));
  const double on_time = h.run(1);
  for (const ArrivalLog& log : h.by_column) {
    ASSERT_EQ(log.times.size(), 1u);
    EXPECT_DOUBLE_EQ(log.times[0], on_time + 123.0);
  }
}

TEST(NodeUnit, SplitFaultSendsEarlyLowOnTimeSameLateHigh) {
  // The node fires alpha early and adds 0, alpha or 2 alpha per edge by the
  // successor's column: lower, same, higher.
  const double alpha = 40.0;
  SendFaultHarness h(FaultSpec::split(alpha));
  const double on_time = h.run(1);
  for (const ArrivalLog& log : h.by_column) ASSERT_EQ(log.times.size(), 1u);
  EXPECT_DOUBLE_EQ(h.by_column[0].times[0], on_time - alpha);
  EXPECT_DOUBLE_EQ(h.by_column[1].times[0], on_time);
  EXPECT_DOUBLE_EQ(h.by_column[2].times[0], on_time + alpha);
}

TEST(NodeUnit, JitterFaultExtrasStayWithinTwoAlpha) {
  // The node fires alpha early and delays each edge by a fresh draw from
  // [0, 2 alpha]: every arrival lies within alpha of on time.
  const double alpha = 30.0;
  const int waves = 8;
  SendFaultHarness h(FaultSpec::jitter(alpha));
  const double on_time = h.run(waves);
  std::vector<double> extras;
  for (const ArrivalLog& log : h.by_column) {
    ASSERT_EQ(log.times.size(), static_cast<std::size_t>(waves));
    for (std::size_t w = 0; w < log.times.size(); ++w) {
      const double wave_on_time = on_time + static_cast<double>(w) * h.settings.params.lambda;
      extras.push_back(log.times[w] - (wave_on_time - alpha));
    }
  }
  for (const double extra : extras) {
    EXPECT_GE(extra, -1e-9);
    EXPECT_LE(extra, 2.0 * alpha + 1e-9);
  }
  const auto [lo, hi] = std::minmax_element(extras.begin(), extras.end());
  EXPECT_GT(*hi - *lo, alpha / 2.0);  // the draws really vary
}

TEST(NodeUnit, MuteAfterFaultFallsSilent) {
  // Correct for `after` pulses, then silent; the node itself keeps running.
  SendFaultHarness h(FaultSpec::mute_after(2));
  const double on_time = h.run(5);
  EXPECT_EQ(h.node->counters().iterations, 5u);
  EXPECT_EQ(h.fault.sent, 2);
  for (const ArrivalLog& log : h.by_column) {
    ASSERT_EQ(log.times.size(), 2u);
    EXPECT_DOUBLE_EQ(log.times[0], on_time);
  }
}

}  // namespace
}  // namespace gtrix
