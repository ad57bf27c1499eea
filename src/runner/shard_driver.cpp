#include "runner/shard_driver.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace gtrix {

namespace {

/// What the barrier completion decided the workers should do next.
enum class WindowKind : std::uint8_t {
  kRunBefore,  ///< run events strictly below `horizon`
  kRunUntil,   ///< final window: run events <= `horizon` (the deadline)
  kDrain,      ///< no cross-shard edges: run each shard to completion
  kStop,
};

struct WindowPlan {
  WindowKind kind = WindowKind::kStop;
  SimTime horizon = 0.0;
};

const char* window_span_name(WindowKind kind) {
  switch (kind) {
    case WindowKind::kRunBefore: return "window";
    case WindowKind::kRunUntil: return "window-final";
    case WindowKind::kDrain: return "drain";
    case WindowKind::kStop: break;
  }
  return "stop";
}

}  // namespace

void ShardDriver::run(SimTime deadline) {
  const std::size_t shards = sims_.size();
  GTRIX_CHECK_MSG(shards >= 2, "ShardDriver requires at least two shards");
  const SimTime lookahead = net_.cross_shard_lookahead();
  GTRIX_CHECK_MSG(lookahead > 0.0, "cross-shard lookahead must be positive");

  WindowPlan plan;
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto record_error = [&]() {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!first_error) first_error = std::current_exception();
    failed.store(true, std::memory_order_release);
  };

  Telemetry::Replay* replay_stats =
      obs_.telemetry != nullptr ? &obs_.telemetry->replay() : nullptr;
  TraceCollector* trace = obs_.trace;
  const bool timed = replay_stats != nullptr || trace != nullptr;
  using Clock = std::chrono::steady_clock;

  // Hand-off of sealed trace batches from the barrier completion to the
  // calling thread, which replays them into the Recorder while the workers
  // run the next window. At most one batch is in flight.
  std::mutex handoff_mutex;
  std::condition_variable handoff_cv;
  bool batch_sealed = false;  // a sealed batch awaits replay
  bool finished = false;      // the completion planned kStop: no more batches

  // Seals every shard's sorted window buffer and hands the batch to the
  // calling thread (windows that recorded nothing post no batch).
  const auto seal_batch = [&]() {
    bool recorded = false;
    for (ShardRecorder* shard : shard_recorders_) {
      shard->seal();
      recorded = recorded || !shard->sealed().empty();
    }
    if (!recorded) return;
    {
      std::lock_guard<std::mutex> lock(handoff_mutex);
      batch_sealed = true;
    }
    handoff_cv.notify_all();
  };

  const auto plan_next = [&]() -> WindowPlan {
    // Hand the window's cross-shard sends over to the receivers: only here,
    // with every worker parked at the barrier, is it safe to move them out
    // of the send-side cells (workers drain the published buffer while the
    // NEXT window's sends are already appending).
    net_.publish_mailboxes();
    SimTime gmin = net_.earliest_mailbox_time();
    for (Simulator* sim : sims_) gmin = std::min(gmin, sim->next_event_time());
    if (gmin > deadline || gmin == kTimeInfinity) return WindowPlan{WindowKind::kStop, 0.0};
    const SimTime horizon = gmin + lookahead;  // infinite if no cross edges
    if (horizon == kTimeInfinity && deadline == kTimeInfinity) {
      return WindowPlan{WindowKind::kDrain, 0.0};
    }
    if (horizon > deadline) {
      // Final window, inclusive: anything sent in it arrives after the
      // deadline (gmin + L > deadline) and stays parked.
      return WindowPlan{WindowKind::kRunUntil, deadline};
    }
    return WindowPlan{WindowKind::kRunBefore, horizon};
  };

  // Serial section between windows: runs on exactly one thread while every
  // worker waits at the barrier, so it may touch all shards' state.
  auto completion = [&]() noexcept {
    try {
      {
        // The sealed slots are free once the previous batch is replayed;
        // waiting here also keeps batches in window order.
        std::unique_lock<std::mutex> lock(handoff_mutex);
        if (batch_sealed) {
          const Clock::time_point t_wait =
              replay_stats != nullptr ? Clock::now() : Clock::time_point{};
          handoff_cv.wait(lock, [&] { return !batch_sealed; });
          if (replay_stats != nullptr) {
            replay_stats->stall_seconds +=
                std::chrono::duration<double>(Clock::now() - t_wait).count();
          }
        }
      }
      if (failed.load(std::memory_order_acquire)) {
        plan = WindowPlan{WindowKind::kStop, 0.0};
      } else {
        seal_batch();
        plan = plan_next();
      }
    } catch (...) {
      // Surface the error instead of terminating (the completion must be
      // noexcept); the plan stops every worker.
      record_error();
      plan = WindowPlan{WindowKind::kStop, 0.0};
    }
    if (plan.kind == WindowKind::kStop) {
      {
        std::lock_guard<std::mutex> lock(handoff_mutex);
        finished = true;
      }
      handoff_cv.notify_all();
    }
  };

  std::barrier barrier(static_cast<std::ptrdiff_t>(shards), completion);

  auto worker = [&](std::size_t shard) {
    Simulator& sim = *sims_[shard];
    Telemetry::Lane* lane =
        obs_.telemetry != nullptr ? &obs_.telemetry->lane(static_cast<std::uint32_t>(shard))
                                  : nullptr;
    // Timing is one branch + at most three clock reads per WINDOW (windows
    // are milliseconds of work); with no observers attached the loop below
    // is the untimed pre-telemetry loop.
    while (true) {
      Clock::time_point t_arrive{};
      if (timed) t_arrive = Clock::now();
      barrier.arrive_and_wait();
      if (plan.kind == WindowKind::kStop) return;
      Clock::time_point t_start{};
      std::uint64_t executed_before = 0;
      const WindowKind kind = plan.kind;
      if (timed) {
        t_start = Clock::now();
        executed_before = sim.executed_events();
      }
      try {
        net_.drain_mailbox(static_cast<std::uint32_t>(shard));
        switch (plan.kind) {
          case WindowKind::kRunBefore:
            sim.run_before(plan.horizon);
            break;
          case WindowKind::kRunUntil:
            sim.run_until(plan.horizon);
            break;
          case WindowKind::kDrain:
            sim.run_all();
            break;
          case WindowKind::kStop:
            break;
        }
        // Sort this shard's trace buffer here, in parallel, so the replay
        // only merges pre-sorted runs.
        shard_recorders_[shard]->sort_window();
      } catch (...) {
        // Keep arriving at the barrier so the other workers don't deadlock;
        // the completion sees `failed` and stops everyone.
        record_error();
      }
      if (timed) {
        const Clock::time_point t_end = Clock::now();
        const std::uint64_t executed = sim.executed_events() - executed_before;
        if (lane != nullptr) {
          ++lane->windows;
          lane->window_events.add(executed);
          lane->barrier_wait_seconds +=
              std::chrono::duration<double>(t_start - t_arrive).count();
          lane->busy_seconds += std::chrono::duration<double>(t_end - t_start).count();
        }
        if (trace != nullptr) {
          const std::uint32_t tid = static_cast<std::uint32_t>(shard);
          trace->add_complete(obs_.trace_pid, tid, "barrier", trace->us_at(t_arrive),
                              trace->us_at(t_start) - trace->us_at(t_arrive));
          trace->add_complete(obs_.trace_pid, tid, window_span_name(kind),
                              trace->us_at(t_start),
                              trace->us_at(t_end) - trace->us_at(t_start),
                              static_cast<std::int64_t>(executed));
        }
      }
    }
  };

  // The replay lane sits after the shard lanes: merge spans overlap the
  // windows, so they cannot share a shard's track.
  const auto replay_tid = static_cast<std::uint32_t>(shards);
  if (trace != nullptr) {
    for (std::size_t shard = 0; shard < shards; ++shard) {
      trace->set_thread_name(obs_.trace_pid, static_cast<std::uint32_t>(shard),
                             "shard " + std::to_string(shard));
    }
    trace->set_thread_name(obs_.trace_pid, replay_tid, "replay");
  }

  // Replays one sealed batch on the calling thread and releases it. After a
  // failure the batch is only released: the run stops at the next
  // completion, so the Recorder's contents no longer matter.
  const auto replay = [&]() {
    const Clock::time_point t_start = timed ? Clock::now() : Clock::time_point{};
    try {
      if (!failed.load(std::memory_order_acquire)) {
        merge_shard_records(recorder_, shard_recorders_);
      }
    } catch (...) {
      record_error();
    }
    for (ShardRecorder* shard : shard_recorders_) shard->release_sealed();
    if (timed) {
      const Clock::time_point t_end = Clock::now();
      if (replay_stats != nullptr) {
        replay_stats->busy_seconds += std::chrono::duration<double>(t_end - t_start).count();
      }
      if (trace != nullptr) {
        trace->add_complete(obs_.trace_pid, replay_tid, "merge", trace->us_at(t_start),
                            trace->us_at(t_end) - trace->us_at(t_start));
      }
    }
  };

  {
    std::vector<std::jthread> threads;
    threads.reserve(shards);
    for (std::size_t shard = 0; shard < shards; ++shard) {
      threads.emplace_back(worker, shard);
    }
    // Replay batches until the completion that stopped the run; its batch
    // (the last window's records) is drained before the join.
    std::unique_lock<std::mutex> lock(handoff_mutex);
    while (true) {
      handoff_cv.wait(lock, [&] { return batch_sealed || finished; });
      if (!batch_sealed) break;
      lock.unlock();
      replay();
      lock.lock();
      batch_sealed = false;
      handoff_cv.notify_all();
    }
  }  // jthreads join here

  if (first_error) std::rethrow_exception(first_error);
  if (deadline != kTimeInfinity) {
    // run_until semantics: every shard's clock ends at the deadline even if
    // its events ran dry earlier, so follow-up scheduling is relative to it.
    for (Simulator* sim : sims_) sim->advance_to(deadline);
  }
}

}  // namespace gtrix
