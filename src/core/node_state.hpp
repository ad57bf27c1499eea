// Struct-of-arrays storage for per-node simulation state.
//
// The event hot path touches a handful of registers per node per event: the
// iteration phase, the three reception times H_own / H_min / H_max, the
// per-predecessor seen flags and wave labels, and the armed timer handles.
// When each node object owns that state inline, consecutive events -- which
// visit *different* nodes in time order -- chase pointers into heap-scattered
// objects where the hot scalars share cache lines with cold configuration
// (Params, counters, the recorder pointer).
//
// NodeArena instead packs each register into one dense lane (one vector per
// field, indexed by an arena slot the node claims at construction), so a
// wave of events sweeping the grid walks a few contiguous arrays. World
// owns one arena per experiment (one per shard when sharded); unit tests
// construct their nodes on a local arena the same way.
//
// Per-predecessor lanes are bump-allocated: a node with k predecessors
// claims k consecutive entries of the slot lanes and remembers its base
// offset. Pending-message queues live here too, as PendingQueues: one
// pooled free-listed entry per parked message, so a node with nothing
// pending costs nine bytes (a std::deque allocates ~600 even when empty).
// Only fixed-size cold state (the staged iteration record, counters,
// configuration) stays on the node objects -- see docs/performance.md for
// the split rationale.
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/recorder.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "support/check.hpp"

namespace gtrix {

/// A pulse a node parked for a later iteration: the sender, the local
/// reception time and the wave label it carried.
struct PendingMsg {
  NetNodeId from;
  LocalTime h_arrival;
  Sigma sigma;
};

/// FIFO pending-message queues for every node of one kind, indexed by the
/// node's arena index. Messages are entries of one shared pool, linked into
/// their node's queue and recycled through a free list: a node's next-wave
/// pulse is parked only while the node still waits to broadcast, so the
/// pool stays as large as the largest simultaneous backlog, not nodes x cap.
/// The owning node enforces its cap (at most 255 messages per queue).
class PendingQueues {
 public:
  void add_queue() {
    head_.push_back(kNil);
    tail_.push_back(kNil);
    size_.push_back(0);
  }

  std::uint32_t size(std::uint32_t q) const { return size_[q]; }
  bool empty(std::uint32_t q) const { return size_[q] == 0; }

  void push_back(std::uint32_t q, const PendingMsg& msg) {
    std::uint32_t e = free_;
    if (e == kNil) {
      e = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
    } else {
      free_ = pool_[e].next;
    }
    GTRIX_DEBUG_CHECK(size_[q] < 255);
    pool_[e] = Entry{msg.h_arrival, msg.sigma, msg.from, kNil};
    if (size_[q] == 0) {
      head_[q] = e;
    } else {
      pool_[tail_[q]].next = e;
    }
    tail_[q] = e;
    ++size_[q];
  }

  PendingMsg pop_front(std::uint32_t q) {
    const std::uint32_t e = head_[q];
    const PendingMsg msg = message(e);
    head_[q] = pool_[e].next;
    if (--size_[q] == 0) tail_[q] = kNil;
    release(e);
    return msg;
  }

  void clear(std::uint32_t q) {
    while (!empty(q)) (void)pop_front(q);
  }

  /// Calls fn(msg) for every message of queue q, front to back.
  template <class Fn>
  void for_each(std::uint32_t q, Fn&& fn) const {
    for (std::uint32_t e = head_[q]; e != kNil; e = pool_[e].next) fn(message(e));
  }

  enum class Sweep { kKeep, kTake, kStop };

  /// Walks queue q front to back. visit(msg) returns kKeep to leave the
  /// message queued in place, kTake to unlink it, or kStop to end the walk;
  /// the remaining messages keep their order (erase in place).
  /// visit must not touch queue q itself.
  template <class Visit>
  void sweep(std::uint32_t q, Visit&& visit) {
    std::uint32_t prev = kNil;
    std::uint32_t e = head_[q];
    while (e != kNil) {
      const Sweep action = visit(message(e));
      if (action == Sweep::kStop) return;
      const std::uint32_t next = pool_[e].next;
      if (action == Sweep::kTake) {
        if (prev == kNil) {
          head_[q] = next;
        } else {
          pool_[prev].next = next;
        }
        if (tail_[q] == e) tail_[q] = prev;
        --size_[q];
        release(e);
      } else {
        prev = e;
      }
      e = next;
    }
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Entry {
    LocalTime h_arrival;
    Sigma sigma;
    NetNodeId from;
    std::uint32_t next;  ///< next entry of the same queue (or of the free list)
  };

  PendingMsg message(std::uint32_t e) const {
    return PendingMsg{pool_[e].from, pool_[e].h_arrival, pool_[e].sigma};
  }

  void release(std::uint32_t e) {
    pool_[e].next = free_;
    free_ = e;
  }

  std::vector<std::uint32_t> head_;  ///< per queue: first entry, kNil if empty
  std::vector<std::uint32_t> tail_;  ///< per queue: last entry, kNil if empty
  std::vector<std::uint8_t> size_;
  std::vector<Entry> pool_;
  std::uint32_t free_ = kNil;
};

/// Lanes for GradientTrixNode (Algorithms 1/3/4 registers).
class GradientSoa {
 public:
  /// Claims one node entry with `slots` per-predecessor lane entries;
  /// returns the node's arena index. State starts as a fresh iteration.
  std::uint32_t add_node(std::uint32_t slots) {
    const auto index = static_cast<std::uint32_t>(phase.size());
    phase.push_back(0);
    h_own.push_back(kLocalInfinity);
    h_min.push_back(kLocalInfinity);
    h_max.push_back(kLocalInfinity);
    last_sigma.push_back(0);
    until_timer.emplace_back();
    broadcast_timer.emplace_back();
    watchdog_timer.emplace_back();
    slot_base.push_back(static_cast<std::uint32_t>(slot_r.size()));
    slot_r.insert(slot_r.end(), slots, 0);
    slot_seen.insert(slot_seen.end(), slots, 0);
    slot_sigma.insert(slot_sigma.end(), slots, 0);
    pending.add_queue();
    return index;
  }

  // Scalar lanes, indexed by arena index.
  std::vector<std::uint8_t> phase;  ///< GradientTrixNode::Phase
  std::vector<LocalTime> h_own;
  std::vector<LocalTime> h_min;
  std::vector<LocalTime> h_max;
  std::vector<Sigma> last_sigma;
  std::vector<TimerHandle> until_timer;
  std::vector<TimerHandle> broadcast_timer;
  std::vector<TimerHandle> watchdog_timer;

  // Per-predecessor lanes, indexed by slot_base[node] + slot.
  std::vector<std::uint32_t> slot_base;
  std::vector<std::uint8_t> slot_r;     ///< neighbour-received flags
  std::vector<std::uint8_t> slot_seen;  ///< any reception this iteration
  std::vector<Sigma> slot_sigma;        ///< wave label each slot carried

  PendingQueues pending;  ///< next-wave pulses parked during kWaitBroadcast
};

/// Lanes for Layer0LineNode (Algorithm 2's single register + timer).
class Layer0Soa {
 public:
  std::uint32_t add_node() {
    const auto index = static_cast<std::uint32_t>(stored_h.size());
    stored_h.push_back(kLocalInfinity);
    out_sigma.push_back(0);
    broadcast_timer.emplace_back();
    return index;
  }

  std::vector<LocalTime> stored_h;
  std::vector<Sigma> out_sigma;
  std::vector<TimerHandle> broadcast_timer;
};

/// Lanes for the naive-TRIX baseline node.
class TrixSoa {
 public:
  std::uint32_t add_node(std::uint32_t slots) {
    const auto index = static_cast<std::uint32_t>(armed.size());
    armed.push_back(0);
    seen_count.push_back(0);
    fire_timer.emplace_back();
    slot_base.push_back(static_cast<std::uint32_t>(slot_seen.size()));
    slot_seen.insert(slot_seen.end(), slots, 0);
    slot_sigma.insert(slot_sigma.end(), slots, 0);
    pending.add_queue();
    return index;
  }

  std::vector<std::uint8_t> armed;
  std::vector<std::uint32_t> seen_count;
  std::vector<TimerHandle> fire_timer;

  std::vector<std::uint32_t> slot_base;
  std::vector<std::uint8_t> slot_seen;
  std::vector<Sigma> slot_sigma;

  PendingQueues pending;
};

/// Lanes for the Lynch-Welch grid baseline node.
class LwSoa {
 public:
  std::uint32_t add_node(std::uint32_t slots) {
    const auto index = static_cast<std::uint32_t>(seen_count.size());
    seen_count.push_back(0);
    fire_timer.emplace_back();
    slot_base.push_back(static_cast<std::uint32_t>(slot_seen.size()));
    slot_seen.insert(slot_seen.end(), slots, 0);
    slot_arrival.insert(slot_arrival.end(), slots, 0.0);
    slot_sigma.insert(slot_sigma.end(), slots, 0);
    pending.add_queue();
    return index;
  }

  std::vector<std::uint32_t> seen_count;
  std::vector<TimerHandle> fire_timer;

  std::vector<std::uint32_t> slot_base;
  std::vector<std::uint8_t> slot_seen;
  std::vector<LocalTime> slot_arrival;
  std::vector<Sigma> slot_sigma;

  PendingQueues pending;

  /// Shared trimmed-midpoint sort scratch (simulations are single-threaded
  /// within one World, so one buffer serves every node).
  std::vector<LocalTime> fire_scratch;
};

/// One arena per experiment, owned by World and shared by every node the
/// providers construct (NodeContext::arena).
struct NodeArena {
  GradientSoa gradient;
  Layer0Soa layer0;
  TrixSoa trix;
  LwSoa lw;
};

}  // namespace gtrix
