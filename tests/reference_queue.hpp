// The differential oracle for the calendar-queue scheduler: a plain binary
// heap ordered by (time, seq), with lazy cancellation (a cancelled entry is
// dropped when it reaches the top). It offers the EventQueue calls the
// differential tests drive, so one generic driver runs both queues and the
// dispatched sequences must match event for event.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/event_queue.hpp"

namespace gtrix {

class ReferenceQueue {
 public:
  TimerHandle schedule(SimTime t, TimerTarget* target, std::uint32_t kind,
                       EventPayload payload = {}) {
    // Handles are never recycled: the id is the schedule order.
    const auto id = static_cast<std::uint32_t>(live_.size());
    live_.push_back(1);
    heap_.push(Entry{t, id, target, kind, payload});
    ++pending_;
    return TimerHandle{id, 0};
  }

  bool cancel(TimerHandle handle) {
    if (handle.slot >= live_.size() || live_[handle.slot] == 0) return false;
    live_[handle.slot] = 0;
    --pending_;
    return true;
  }

  bool empty() const { return pending_ == 0; }
  std::size_t pending_count() const { return pending_; }

  SimTime next_time() {
    skim();
    return heap_.top().time;
  }

  bool run_next() {
    if (empty()) return false;
    dispatch();
    return true;
  }

  bool run_next_strictly_before(SimTime horizon, SimTime& fired) {
    if (empty() || next_time() >= horizon) return false;
    fired = dispatch();
    return true;
  }

 private:
  struct Entry {
    SimTime time;
    std::uint32_t seq;
    TimerTarget* target;
    std::uint32_t kind;
    EventPayload payload;
    // priority_queue is a max-heap; invert for the (time, seq) minimum.
    bool operator<(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  void skim() {
    while (live_[heap_.top().seq] == 0) heap_.pop();
  }

  SimTime dispatch() {
    skim();
    const Entry e = heap_.top();
    heap_.pop();
    live_[e.seq] = 0;
    --pending_;
    e.target->on_timer(Event{e.time, e.kind, e.payload});
    return e.time;
  }

  std::priority_queue<Entry> heap_;
  std::vector<std::uint8_t> live_;  ///< by seq: scheduled and neither fired nor cancelled
  std::size_t pending_ = 0;
};

}  // namespace gtrix
