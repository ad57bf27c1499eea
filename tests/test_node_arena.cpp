// Pending-message queues in the node arena (core/node_state.hpp).
//
// PendingQueues replaced one std::deque per node; these tests pin it to the
// deque semantics it replaced: a differential fuzz of FIFO order, drop-oldest
// overflow, erase-in-place sweeps and clears against std::deque, and one
// flood per node kind that parks more than 16 messages and checks the
// counters and the drain order the deque produced.
#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <stdexcept>
#include <vector>

#include "baseline/lw_grid.hpp"
#include "baseline/trix_node.hpp"
#include "core/gradient_node.hpp"
#include "core/node_state.hpp"
#include "metrics/recorder.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace gtrix {
namespace {

bool same(const PendingMsg& a, const PendingMsg& b) {
  return a.from == b.from && a.h_arrival == b.h_arrival && a.sigma == b.sigma;
}

std::vector<PendingMsg> contents(const PendingQueues& queues, std::uint32_t q) {
  std::vector<PendingMsg> out;
  queues.for_each(q, [&out](const PendingMsg& m) { out.push_back(m); });
  return out;
}

TEST(PendingQueues, MatchesADequePerQueueUnderRandomOperations) {
  constexpr std::uint32_t kQueues = 6;
  PendingQueues queues;
  std::vector<std::deque<PendingMsg>> reference(kQueues);
  for (std::uint32_t q = 0; q < kQueues; ++q) queues.add_queue();
  Rng rng(7);
  std::int64_t stamp = 0;
  for (int step = 0; step < 20000; ++step) {
    const auto q = static_cast<std::uint32_t>(rng.uniform_int(0, kQueues - 1));
    std::deque<PendingMsg>& ref = reference[q];
    const std::int64_t op = rng.uniform_int(0, 9);
    if (op < 5) {
      const PendingMsg msg{static_cast<NetNodeId>(rng.uniform_int(0, 4)),
                           static_cast<double>(step), stamp++};
      if (ref.size() >= 16) {  // a node's drop-oldest overflow
        ASSERT_TRUE(same(queues.pop_front(q), ref.front()));
        ref.pop_front();
      }
      queues.push_back(q, msg);
      ref.push_back(msg);
    } else if (op < 7) {
      if (!ref.empty()) {
        ASSERT_TRUE(same(queues.pop_front(q), ref.front()));
        ref.pop_front();
      }
    } else if (op < 9) {
      // Erase-in-place sweep with random keep / take / stop decisions,
      // replayed on the deque exactly as the Lynch-Welch drain did.
      std::vector<PendingQueues::Sweep> decisions;
      queues.sweep(q, [&](const PendingMsg&) {
        const std::int64_t d = rng.uniform_int(0, 9);
        decisions.push_back(d < 5   ? PendingQueues::Sweep::kKeep
                            : d < 9 ? PendingQueues::Sweep::kTake
                                    : PendingQueues::Sweep::kStop);
        return decisions.back();
      });
      auto it = ref.begin();
      for (const PendingQueues::Sweep d : decisions) {
        if (d == PendingQueues::Sweep::kStop) break;
        it = d == PendingQueues::Sweep::kTake ? ref.erase(it) : it + 1;
      }
    } else {
      queues.clear(q);
      ref.clear();
    }
    ASSERT_EQ(queues.size(q), ref.size());
    const std::vector<PendingMsg> got = contents(queues, q);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i) ASSERT_TRUE(same(got[i], ref[i])) << i;
  }
}

/// Captures every recorded pulse and iteration of the node under test.
class CaptureRecorder final : public Recorder {
 public:
  void record_pulse(RecNodeId, Sigma sigma, SimTime t) override {
    sigmas.push_back(sigma);
    times.push_back(t);
  }
  void record_iteration(RecNodeId, const IterationRecord& record) override {
    iterations.push_back(record);
  }
  std::vector<Sigma> sigmas;
  std::vector<SimTime> times;
  std::vector<IterationRecord> iterations;
};

/// A tiny network: three predecessors (own copy first) feeding one node.
struct Flood {
  Simulator sim;
  Network net{sim};
  NodeArena arena;
  CaptureRecorder recorder;
  Params params = Params::with(1000.0, 10.0, 1.0005);  // Lambda - d = 1000
  AlgorithmSettings settings{.params = params, .skew_bound_hint = params.thm11_bound(15)};
  NetNodeId own = net.add_node();
  NetNodeId a = net.add_node();
  NetNodeId b = net.add_node();
  NetNodeId self = net.add_node();
  std::array<NetNodeId, 3> preds{own, a, b};

  void arrive(NetNodeId from, double t, Sigma stamp) {
    net.inject(from, self, Pulse{stamp}, t);
  }
};

TEST(PendingFlood, GradientNodeDropsTheOldestAndDrainsInArrivalOrder) {
  Flood f;
  GradientTrixNode node(f.sim, f.net, f.self, HardwareClock(1.0, 0.0),
                        {f.preds.begin(), f.preds.end()}, f.settings, false, nullptr,
                        &f.recorder, f.arena.gradient);
  f.net.set_sink(f.self, &node);
  // Wave 1 completes; the node then waits to broadcast at 2002.
  f.arrive(f.a, 1000.0, 1);
  f.arrive(f.own, 1002.0, 1);
  f.arrive(f.b, 1004.0, 1);
  // 20 next-wave repeats from neighbour a while it waits: 16 are kept, the
  // 4 oldest (stamps 2..5) dropped.
  for (int k = 0; k < 20; ++k) f.arrive(f.a, 1100.0 + k, 2 + k);
  // Wave 2's own copy and neighbour b, after the broadcast.
  f.arrive(f.own, 2010.0, 2);
  f.arrive(f.b, 2012.0, 2);
  f.sim.run_all();

  const auto& c = node.counters();
  EXPECT_EQ(c.pending_overflow, 4u);
  EXPECT_EQ(c.duplicate_drops, 15u);  // stamps 7..21, drained after stamp 6
  EXPECT_EQ(c.iterations, 2u);
  ASSERT_EQ(f.recorder.iterations.size(), 2u);
  // The drain handed the oldest kept message (stamp 6, received at 1104)
  // to the next wave first.
  const IterationRecord& wave2 = f.recorder.iterations[1];
  EXPECT_EQ(wave2.slot_sigma[1], 6);
  EXPECT_DOUBLE_EQ(wave2.h_min, 1104.0);
  EXPECT_EQ(wave2.sigma, 2);
  EXPECT_EQ(f.recorder.sigmas, (std::vector<Sigma>{1, 2}));
}

TEST(PendingFlood, TrixNodeDropsTheOldestAndDrainsInArrivalOrder) {
  Flood f;
  TrixNaiveNode node(f.sim, f.net, f.self, HardwareClock(1.0, 0.0),
                     {f.preds.begin(), f.preds.end()}, f.settings, &f.recorder, f.arena.trix);
  f.net.set_sink(f.self, &node);
  f.arrive(f.a, 1000.0, 1);
  // 20 repeats from a before the wave's second copy: 16 kept (stamps 6..21).
  for (int k = 0; k < 20; ++k) f.arrive(f.a, 1001.0 + k, 2 + k);
  f.arrive(f.b, 1030.0, 1);  // second copy: fires at 2030
  // After the fire the drain gives a's oldest kept pulse to the next wave
  // and discards the rest (a's slot is then taken); b completes that wave.
  // With b carrying stamp 6 the fired label is 6 only if a's drained pulse
  // is stamp 6 (otherwise no majority: a's stamp wins).
  f.arrive(f.b, 2100.0, 6);
  f.sim.run_all();

  EXPECT_EQ(node.pulses_forwarded(), 2u);
  EXPECT_EQ(f.recorder.sigmas, (std::vector<Sigma>{1, 6}));
  EXPECT_EQ(f.recorder.times, (std::vector<SimTime>{2030.0, 3100.0}));
}

TEST(PendingFlood, LynchWelchNodeKeepsEveryQueuedPulseAndTakesOnePerWave) {
  Flood f;
  const std::array<NetNodeId, 2> preds{f.a, f.b};
  LynchWelchGridNode node(f.sim, f.net, f.self, HardwareClock(1.0, 0.0),
                          {preds.begin(), preds.end()}, f.settings, &f.recorder, f.arena.lw);
  f.net.set_sink(f.self, &node);
  // a runs 20 waves ahead (more than 16, under the cap of 32): nothing may
  // be dropped, and each fire takes exactly a's earliest queued pulse.
  f.arrive(f.a, 1.0, 0);
  for (int k = 1; k <= 20; ++k) f.arrive(f.a, 1.0 + k, k);
  for (int k = 0; k <= 20; ++k) f.arrive(f.b, 30.0 + 1000.0 * k, k);
  f.sim.run_all();

  EXPECT_EQ(node.pulses_forwarded(), 21u);
  std::vector<Sigma> expected;
  for (Sigma k = 0; k <= 20; ++k) expected.push_back(k);
  EXPECT_EQ(f.recorder.sigmas, expected);  // a's and b's labels agree per wave
}

TEST(PendingFlood, LynchWelchOverflowIsAHardError) {
  Flood f;
  const std::array<NetNodeId, 2> preds{f.a, f.b};
  LynchWelchGridNode node(f.sim, f.net, f.self, HardwareClock(1.0, 0.0),
                          {preds.begin(), preds.end()}, f.settings, &f.recorder, f.arena.lw);
  f.net.set_sink(f.self, &node);
  f.arrive(f.a, 1.0, 0);
  for (int k = 1; k <= 33; ++k) f.arrive(f.a, 1.0 + k, k);  // the 33rd queued overflows
  EXPECT_THROW(f.sim.run_all(), std::logic_error);
}

}  // namespace
}  // namespace gtrix
