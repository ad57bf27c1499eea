// Calendar-queue scheduler tests: the calendar's own semantics (churn,
// FIFO tie-breaks, handle generations), its resize/rebuild behaviour, and
// randomized differential checks that the calendar and the reference heap
// (tests/reference_queue.hpp) execute identical event sequences under heavy
// schedule/cancel churn.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "reference_queue.hpp"
#include "support/rng.hpp"

namespace gtrix {
namespace {

struct EventLog final : TimerTarget {
  std::vector<Event> events;

  void on_timer(const Event& event) override { events.push_back(event); }

  std::vector<std::int64_t> tags() const {
    std::vector<std::int64_t> out;
    for (const Event& e : events) out.push_back(e.payload.i);
    return out;
  }
};

template <typename Q>
constexpr bool kIsCalendar = std::is_same_v<std::remove_cvref_t<Q>, EventQueue>;

TEST(CalendarQueue, DefaultEngineIsCalendar) {
  // A fresh queue is an empty calendar at its minimum size.
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.calendar_buckets(), 8u);
  EXPECT_EQ(q.calendar_linked_count(), 0u);
  EXPECT_EQ(q.calendar_rebuilds(), 0u);
}

TEST(CalendarQueue, RunsInTimeOrder) {
  EventQueue q;
  EventLog log;
  q.schedule(3.0, &log, 0, EventPayload{.i = 3});
  q.schedule(1.0, &log, 0, EventPayload{.i = 1});
  q.schedule(2.0, &log, 0, EventPayload{.i = 2});
  while (q.run_next()) {
  }
  EXPECT_EQ(log.tags(), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(CalendarQueue, TiesBreakInSchedulingOrder) {
  EventQueue q;
  EventLog log;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, &log, 0, EventPayload{.i = i});
  }
  while (q.run_next()) {
  }
  ASSERT_EQ(log.events.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(log.events[static_cast<std::size_t>(i)].payload.i, i);
  }
}

TEST(CalendarQueue, SameTimestampFifoSurvivesCancellationChurn) {
  EventQueue q;
  EventLog log;
  std::vector<TimerHandle> doomed;
  for (int i = 0; i < 20; ++i) {
    const TimerHandle h = q.schedule(5.0, &log, 0, EventPayload{.i = i});
    if (i % 2 == 1) doomed.push_back(h);
  }
  for (TimerHandle h : doomed) EXPECT_TRUE(q.cancel(h));
  while (q.run_next()) {
  }
  std::vector<std::int64_t> expected;
  for (int i = 0; i < 20; i += 2) expected.push_back(i);
  EXPECT_EQ(log.tags(), expected);
}

TEST(CalendarQueue, HandleGenerationsSurviveSlotRecycling) {
  EventQueue q;
  EventLog log;
  const TimerHandle old_handle = q.schedule(1.0, &log, 0, EventPayload{.i = 1});
  q.run_next();
  const TimerHandle new_handle = q.schedule(2.0, &log, 0, EventPayload{.i = 2});
  EXPECT_EQ(new_handle.slot, old_handle.slot);  // recycled
  EXPECT_NE(new_handle.gen, old_handle.gen);
  EXPECT_FALSE(q.cancel(old_handle));
  EXPECT_TRUE(q.pending(new_handle));
  q.run_next();
  EXPECT_EQ(log.tags(), (std::vector<std::int64_t>{1, 2}));
}

TEST(CalendarQueue, SchedulingBehindTheCursorStillFiresInOrder) {
  // Popping advances the scan cursor; an event scheduled at an earlier
  // time afterwards must pull the cursor back instead of waiting for a
  // calendar-year wraparound.
  EventQueue q;
  EventLog log;
  q.schedule(100.0, &log, 0, EventPayload{.i = 100});
  q.schedule(5000.0, &log, 0, EventPayload{.i = 5000});
  EXPECT_TRUE(q.run_next());  // pops t=100, cursor now past t=100
  q.schedule(7.0, &log, 0, EventPayload{.i = 7});
  q.schedule(300.0, &log, 0, EventPayload{.i = 300});
  while (q.run_next()) {
  }
  EXPECT_EQ(log.tags(), (std::vector<std::int64_t>{100, 7, 300, 5000}));
}

TEST(CalendarQueue, SparseFarFutureEventsAreFound) {
  // Events many calendar years apart exercise the global-minimum fallback.
  EventQueue q;
  EventLog log;
  q.schedule(1.0, &log, 0, EventPayload{.i = 1});
  q.schedule(1e9, &log, 0, EventPayload{.i = 2});
  q.schedule(1e15, &log, 0, EventPayload{.i = 3});
  while (q.run_next()) {
  }
  EXPECT_EQ(log.tags(), (std::vector<std::int64_t>{1, 2, 3}));
}

TEST(CalendarQueue, FarFutureEventsAfterATightFitKeepTheirOrder) {
  // A population clustered within 1e-9 fits the width down to its clamp;
  // epochs of events scheduled afterwards far beyond it would overflow the
  // integer range unless the epoch mapping saturates.
  EventQueue q;
  EventLog log;
  for (int i = 0; i < 40; ++i) q.schedule(5.0 + i * 1e-11, &log, 0, EventPayload{.i = 0});
  EXPECT_GT(q.calendar_rebuilds(), 0u);
  q.schedule(2e300, &log, 0, EventPayload{.i = 4});
  q.schedule(1e9, &log, 0, EventPayload{.i = 2});
  q.schedule(-1e300, &log, 0, EventPayload{.i = -1});
  q.schedule(1e300, &log, 0, EventPayload{.i = 3});
  q.schedule(1e9, &log, 0, EventPayload{.i = 2});
  while (q.run_next()) {
  }
  std::vector<std::int64_t> expected{-1};
  expected.insert(expected.end(), 40, 0);
  expected.insert(expected.end(), {2, 2, 3, 4});
  EXPECT_EQ(log.tags(), expected);
}

TEST(CalendarQueue, SlotTableStaysFlatUnderScheduleCancelChurn) {
  EventQueue q;
  EventLog log;
  constexpr int kLive = 8;
  std::vector<TimerHandle> live;
  for (int i = 0; i < kLive; ++i) {
    live.push_back(q.schedule(1e9 + i, &log, 0));
  }
  const std::size_t baseline_capacity = q.slot_capacity();
  for (int round = 0; round < 10000; ++round) {
    EXPECT_TRUE(q.cancel(live[static_cast<std::size_t>(round % kLive)]));
    // cancel() unlinks at once: the chains never hold a cancelled entry.
    EXPECT_EQ(q.calendar_linked_count(), q.pending_count());
    live[static_cast<std::size_t>(round % kLive)] = q.schedule(1e9 + round, &log, 0);
    EXPECT_EQ(q.pending_count(), static_cast<std::size_t>(kLive));
  }
  EXPECT_EQ(q.slot_capacity(), baseline_capacity);
  // The bucket count tracks the tiny live population instead of the 10008
  // events ever scheduled.
  EXPECT_LE(q.calendar_buckets(), 64u);
  while (q.run_next()) {
  }
  EXPECT_EQ(q.scheduled_count(), static_cast<std::uint64_t>(kLive + 10000));
  EXPECT_EQ(q.executed_count(), static_cast<std::uint64_t>(kLive));  // rest were cancelled
}

TEST(CalendarQueue, ResizeGrowsAndShrinksWithThePendingPopulation) {
  EventQueue q;
  EventLog log;
  Rng rng(7);
  std::vector<TimerHandle> handles;
  for (int i = 0; i < 4096; ++i) {
    handles.push_back(q.schedule(rng.uniform(0.0, 1e6), &log, 0));
  }
  const std::size_t grown = q.calendar_buckets();
  EXPECT_GE(grown, 2048u);  // ~1 entry per bucket once grown
  while (q.run_next()) {
  }
  EXPECT_LT(q.calendar_buckets(), grown);  // shrank as the queue drained
}

/// The pending population of a layered-grid run, shaped like a rebuild-time
/// trace of the stabilization benchmark: most events are the next layer's
/// messages, about d = 1000 ahead and spread over u plus the local skew
/// (~23 units), the rest spread over the following d, with runs of
/// same-instant ties. A bucket width fitted to the whole span packs the band
/// into a few dozen long chains; the densest-run width must keep the insert
/// walk short. Cancels hit chain heads (the peeked minimum), chain tails
/// (the latest event) and tie-run heads, middles and tails, and dispatch
/// must match the reference heap exactly.
TEST(CalendarQueue, WaveBandPopulationKeepsChainsShort) {
  constexpr double kD = 1000.0;
  constexpr double kBand = 23.0;
  EventQueue cal;
  ReferenceQueue heap;
  EventLog cal_log;
  EventLog heap_log;

  const auto drive = [](auto& q, EventLog& log) {
    Rng rng(15);
    std::vector<TimerHandle> handle_of;  // by tag
    std::vector<double> time_of;         // by tag
    // (time, tag) is the (time, seq) order: tags follow scheduling order.
    std::set<std::pair<double, std::int64_t>> pending;
    std::vector<std::vector<std::int64_t>> tie_runs;
    const auto add = [&](double t) {
      const auto tag = static_cast<std::int64_t>(handle_of.size());
      handle_of.push_back(q.schedule(t, &log, 0, EventPayload{.i = tag}));
      time_of.push_back(t);
      pending.emplace(t, tag);
      return tag;
    };
    const auto add_tie_run = [&](double t, int length) {
      std::vector<std::int64_t>& run = tie_runs.emplace_back();
      for (int k = 0; k < length; ++k) run.push_back(add(t));
    };
    const auto drop = [&](std::int64_t tag) {
      const auto it = pending.find({time_of[static_cast<std::size_t>(tag)], tag});
      if (it == pending.end()) return;
      EXPECT_TRUE(q.cancel(handle_of[static_cast<std::size_t>(tag)]));
      pending.erase(it);
      if constexpr (kIsCalendar<decltype(q)>) {
        EXPECT_EQ(q.calendar_linked_count(), q.pending_count());
      }
    };

    // The band population at one instant.
    while (pending.size() < 4096) {
      if (rng.bernoulli(0.05)) {
        add_tie_run(kD + rng.uniform(0.0, kBand), static_cast<int>(rng.uniform_int(2, 8)));
      } else if (rng.bernoulli(0.8)) {
        add(kD + rng.uniform(0.0, kBand));
      } else {
        add(kD + kBand + rng.uniform(0.0, kD));
      }
    }
    if constexpr (kIsCalendar<decltype(q)>) {
      EXPECT_LE(static_cast<double>(q.calendar_insert_steps()) /
                    static_cast<double>(q.scheduled_count()),
                4.0);
    }

    // Waves in flight: every pop schedules its successor one delay later,
    // sometimes as a tie run, while cancels hit every chain position.
    for (int op = 0; op < 20000 && !pending.empty(); ++op) {
      const double now = q.next_time();  // locates (peeks) the minimum
      if (op % 7 == 0) {
        drop(pending.begin()->second);  // the peeked entry, a chain head
        continue;
      }
      if (op % 11 == 0) {
        drop(std::prev(pending.end())->second);  // the latest event, a chain tail
        continue;
      }
      if (op % 13 == 0 && !tie_runs.empty()) {
        const std::vector<std::int64_t>& run = tie_runs[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(tie_runs.size()) - 1))];
        const std::size_t at = (op / 13) % 3 == 0   ? 0
                               : (op / 13) % 3 == 1 ? run.size() / 2
                                                    : run.size() - 1;
        drop(run[at]);
        continue;
      }
      ASSERT_TRUE(q.run_next());
      ASSERT_EQ(log.events.back().payload.i, pending.begin()->second);
      ASSERT_EQ(log.events.back().time, now);
      pending.erase(pending.begin());
      const double next = now + kD - rng.uniform(0.0, 10.0);
      if (rng.bernoulli(0.05)) {
        add_tie_run(next, static_cast<int>(rng.uniform_int(2, 8)));
      } else {
        add(next);
      }
    }
    if constexpr (kIsCalendar<decltype(q)>) {
      EXPECT_LE(static_cast<double>(q.calendar_insert_steps()) /
                    static_cast<double>(q.scheduled_count()),
                4.0);
    }
    while (q.run_next()) {
    }
  };

  drive(cal, cal_log);
  drive(heap, heap_log);
  ASSERT_EQ(cal_log.events.size(), heap_log.events.size());
  for (std::size_t i = 0; i < cal_log.events.size(); ++i) {
    ASSERT_EQ(cal_log.events[i].time, heap_log.events[i].time) << "at " << i;
    ASSERT_EQ(cal_log.events[i].payload.i, heap_log.events[i].payload.i) << "at " << i;
  }
}

/// Differential fuzz: a random interleaving of schedule / cancel / pop must
/// dispatch the identical event sequence on the calendar and the reference
/// heap.
TEST(CalendarQueue, MatchesBinaryHeapOnRandomChurn) {
  for (std::uint64_t seed : {1ULL, 42ULL, 1234ULL}) {
    EventQueue cal;
    ReferenceQueue heap;
    EventLog cal_log;
    EventLog heap_log;
    Rng cal_rng(seed);
    Rng heap_rng(seed);

    const auto drive = [](auto& q, EventLog& log, Rng& rng) {
      std::vector<TimerHandle> handles;
      double now = 0.0;
      std::int64_t tag = 0;
      for (int op = 0; op < 20000; ++op) {
        const double dice = rng.uniform(0.0, 1.0);
        if (dice < 0.45) {
          // Mostly near-future events, some far future, frequent exact ties.
          double t = now + (rng.bernoulli(0.2) ? rng.uniform(0.0, 1e5)
                                               : rng.uniform(0.0, 50.0));
          if (rng.bernoulli(0.25)) t = std::floor(t);  // force time collisions
          handles.push_back(q.schedule(t, &log, 0, EventPayload{.i = tag++}));
        } else if (dice < 0.65 && !handles.empty()) {
          q.cancel(handles[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1))]);
        } else if (!q.empty()) {
          now = q.next_time();
          q.run_next();
        }
      }
      while (q.run_next()) {
      }
    };

    drive(cal, cal_log, cal_rng);
    drive(heap, heap_log, heap_rng);
    ASSERT_EQ(cal_log.events.size(), heap_log.events.size());
    for (std::size_t i = 0; i < cal_log.events.size(); ++i) {
      EXPECT_EQ(cal_log.events[i].time, heap_log.events[i].time) << "at " << i;
      EXPECT_EQ(cal_log.events[i].payload.i, heap_log.events[i].payload.i) << "at " << i;
    }
  }
}

/// Directed regression for the behind-cursor-after-rebuild interaction at
/// the scale-grid population regime: a rebuild tripped by mass cancellation
/// refits the bucket width and re-anchors the scan cursor, and an insert
/// landing BEHIND the re-anchored cursor must (a) recompute its epoch under
/// the new width -- calendar_insert stamps slot.epoch after any rebuild,
/// never before -- and (b) pull the cursor back so it fires first. A stale cached
/// epoch would either bury the event in a wrong-year bucket (skipped by the
/// year scan) or fire it out of order; both would break the differential
/// identity below.
TEST(CalendarQueue, BehindCursorInsertAfterPurgeRebuildAt64k) {
  for (const std::uint64_t seed : {7ULL, 99ULL}) {
    EventQueue cal;
    ReferenceQueue heap;
    EventLog cal_log;
    EventLog heap_log;

    const auto drive = [seed](auto& q, EventLog& log) {
      Rng rng(seed);
      std::int64_t tag = 0;
      // Phase 1: >= 64k pending events in a dense window (forces several
      // grow rebuilds; the fitted year spans [1000, 2000)).
      std::vector<TimerHandle> handles;
      handles.reserve(70000);
      for (int i = 0; i < 70000; ++i) {
        handles.push_back(q.schedule(1000.0 + rng.uniform(0.0, 1000.0), &log, 0,
                                     EventPayload{.i = tag++}));
      }
      // Phase 2: advance the cursor into the year.
      double now = 0.0;
      for (int i = 0; i < 2000; ++i) {
        now = q.next_time();
        q.run_next();
      }
      // Phase 3: cancel ~90% of what's pending -- drops the population
      // below an eighth of the bucket count, so a shrink rebuild refits
      // width and cursor while the population is still large.
      for (std::size_t i = 0; i < handles.size(); ++i) {
        if (rng.bernoulli(0.9)) q.cancel(handles[i]);
      }
      // Phase 4: immediately insert behind the cursor (before `now`), at
      // the cursor's own time (tie with pending events), and far ahead
      // (next year), interleaved with pops and further cancels, then drain.
      std::vector<TimerHandle> extra;
      for (int round = 0; round < 200; ++round) {
        extra.push_back(q.schedule(now * rng.uniform(0.0, 0.99), &log, 0,
                                   EventPayload{.i = tag++}));
        extra.push_back(q.schedule(now, &log, 0, EventPayload{.i = tag++}));
        extra.push_back(
            q.schedule(now + rng.uniform(1000.0, 5000.0), &log, 0, EventPayload{.i = tag++}));
        if (round % 3 == 0 && !q.empty()) {
          now = q.next_time();
          q.run_next();
        }
        if (round % 5 == 0 && extra.size() >= 2) {
          q.cancel(extra[extra.size() - 2]);
        }
      }
      while (q.run_next()) {
      }
    };

    drive(cal, cal_log);
    drive(heap, heap_log);
    EXPECT_GT(cal.calendar_rebuilds(), 0u);
    ASSERT_EQ(cal_log.events.size(), heap_log.events.size());
    for (std::size_t i = 0; i < cal_log.events.size(); ++i) {
      ASSERT_EQ(cal_log.events[i].time, heap_log.events[i].time) << "at " << i;
      ASSERT_EQ(cal_log.events[i].payload.i, heap_log.events[i].payload.i) << "at " << i;
    }
  }
}

/// The randomized differential above at the mega-grid population: ramp to
/// >= 64k pending, then churn schedule / cancel-bulk / pop so bulk unlinks
/// and fit-to-population rebuilds interleave with behind-cursor scheduling.
TEST(CalendarQueue, MatchesBinaryHeapUnderPurgeResizeChurnAt64k) {
  for (const std::uint64_t seed : {5ULL, 2024ULL}) {
    EventQueue cal;
    ReferenceQueue heap;
    EventLog cal_log;
    EventLog heap_log;

    const auto drive = [seed](auto& q, EventLog& log) {
      Rng rng(seed);
      std::vector<TimerHandle> handles;
      double now = 0.0;
      std::int64_t tag = 0;
      // Ramp: 65k+ pending.
      for (int i = 0; i < 66000; ++i) {
        handles.push_back(
            q.schedule(rng.uniform(0.0, 3000.0), &log, 0, EventPayload{.i = tag++}));
      }
      for (int op = 0; op < 30000; ++op) {
        const double dice = rng.uniform(0.0, 1.0);
        if (dice < 0.35) {
          double t = now + (rng.bernoulli(0.1) ? rng.uniform(0.0, 1e5)
                                               : rng.uniform(0.0, 100.0));
          if (rng.bernoulli(0.3)) t = std::floor(t);
          handles.push_back(q.schedule(t, &log, 0, EventPayload{.i = tag++}));
        } else if (dice < 0.40 && !handles.empty()) {
          // Bulk cancel: 512 unlinks at a time mid-churn instead of
          // one-at-a-time nibbling.
          for (int k = 0; k < 512; ++k) {
            q.cancel(handles[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1))]);
          }
        } else if (dice < 0.62 && !handles.empty()) {
          q.cancel(handles[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1))]);
        } else if (!q.empty()) {
          now = q.next_time();
          q.run_next();
        }
      }
      while (q.run_next()) {
      }
    };

    drive(cal, cal_log);
    drive(heap, heap_log);
    EXPECT_GT(cal.calendar_rebuilds(), 0u);
    ASSERT_EQ(cal_log.events.size(), heap_log.events.size());
    for (std::size_t i = 0; i < cal_log.events.size(); ++i) {
      ASSERT_EQ(cal_log.events[i].time, heap_log.events[i].time) << "at " << i;
      ASSERT_EQ(cal_log.events[i].payload.i, heap_log.events[i].payload.i) << "at " << i;
    }
  }
}

/// Windowed pops under cancel/resize churn: the sharded driver pops each
/// shard's queue in [gmin, horizon) windows via run_next_strictly_before, so
/// the calendar must agree with the reference heap when window boundaries
/// interleave with behind-cursor inserts and rebuilds. In a
/// -DGTRIX_DEBUG_CHECKS build (the sanitizer CI jobs), every pop, rebuild
/// and behind-cursor insert in this churn additionally runs the chain and
/// epoch-freshness assertions in event_queue.cpp -- slot.epoch must match
/// epoch_of(slot.time) under the CURRENT bucket width -- turning a
/// silently-buried event into a hard failure at the exact operation that
/// staled it.
TEST(CalendarQueue, WindowedPopsMatchBinaryHeapUnderChurn) {
  for (const std::uint64_t seed : {11ULL, 4242ULL}) {
    EventQueue cal;
    ReferenceQueue heap;
    EventLog cal_log;
    EventLog heap_log;

    const auto drive = [seed](auto& q, EventLog& log) {
      Rng rng(seed);
      std::vector<TimerHandle> handles;
      std::int64_t tag = 0;
      for (int i = 0; i < 66000; ++i) {
        handles.push_back(
            q.schedule(rng.uniform(0.0, 3000.0), &log, 0, EventPayload{.i = tag++}));
      }
      double horizon = 0.0;
      SimTime fired = 0.0;
      for (int window = 0; window < 400; ++window) {
        horizon += rng.uniform(1.0, 15.0);
        // Drain the window: events exactly AT the horizon must stay queued.
        while (q.run_next_strictly_before(horizon, fired)) {
          ASSERT_LT(fired, horizon);
        }
        // Cross-window churn: new events behind and ahead of the horizon
        // plus bulk cancels mid-sequence.
        for (int i = 0; i < 40; ++i) {
          handles.push_back(q.schedule(horizon + rng.uniform(0.0, 2000.0), &log, 0,
                                       EventPayload{.i = tag++}));
        }
        if (window % 7 == 0 && !handles.empty()) {
          for (int k = 0; k < 512; ++k) {
            q.cancel(handles[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1))]);
          }
        }
      }
      while (q.run_next()) {
      }
    };

    drive(cal, cal_log);
    drive(heap, heap_log);
    EXPECT_GT(cal.calendar_rebuilds(), 0u);
    ASSERT_EQ(cal_log.events.size(), heap_log.events.size());
    for (std::size_t i = 0; i < cal_log.events.size(); ++i) {
      ASSERT_EQ(cal_log.events[i].time, heap_log.events[i].time) << "at " << i;
      ASSERT_EQ(cal_log.events[i].payload.i, heap_log.events[i].payload.i) << "at " << i;
    }
  }
}

/// run_next_due respects the deadline and reports fire times (the single-
/// locate simulator loop depends on both).
TEST(CalendarQueue, RunNextDueStopsAtDeadline) {
  EventQueue q;
  EventLog log;
  q.schedule(1.0, &log, 0, EventPayload{.i = 1});
  q.schedule(2.0, &log, 0, EventPayload{.i = 2});
  q.schedule(3.0, &log, 0, EventPayload{.i = 3});
  SimTime fired = -1.0;
  EXPECT_TRUE(q.run_next_due(2.0, fired));
  EXPECT_DOUBLE_EQ(fired, 1.0);
  EXPECT_TRUE(q.run_next_due(2.0, fired));
  EXPECT_DOUBLE_EQ(fired, 2.0);
  EXPECT_FALSE(q.run_next_due(2.0, fired));  // t=3 is past the deadline
  EXPECT_EQ(q.pending_count(), 1u);
  EXPECT_TRUE(q.run_next_due(5.0, fired));
  EXPECT_DOUBLE_EQ(fired, 3.0);
}

}  // namespace
}  // namespace gtrix
