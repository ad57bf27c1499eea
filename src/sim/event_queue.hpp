// Deterministic discrete-event scheduler with typed POD events.
//
// Design (see docs/performance.md, "Calendar-queue scheduler"):
//  * An event is plain data -- {time, target, kind, payload} -- not a
//    heap-allocated closure. Dispatch goes through the small TimerTarget
//    interface: the engine calls target->on_timer(event) at fire time.
//  * Event state lives in recycled slots. A freelist returns a slot the
//    moment its event fires or is cancelled, so memory is O(pending events),
//    not O(events ever executed). A cancelled event is unlinked from its
//    bucket chain at once (O(1), the chains are doubly linked).
//  * Every slot carries a generation counter, bumped whenever the slot is
//    freed. A TimerHandle is {slot, generation}; a handle whose generation
//    no longer matches is stale, so cancelling an already-fired, already-
//    cancelled, or recycled event is a safe no-op.
//  * Events are ordered by (time, sequence number); the sequence number is
//    assigned at schedule time, so two events scheduled for the same instant
//    fire in scheduling order. Entire simulations are bit-reproducible.
//
// The priority structure is a calendar queue (Brown 1988): an array of
// time buckets, each the head of an intrusive chain of slots, with the
// bucket width fitted to the densest run of pending events (the wave band d
// ahead of the cursor). The simulation's bounded-delay event horizon (every
// event is scheduled at most ~Lambda + d past the cursor) keeps schedule and
// pop O(1) chain operations instead of O(log n) heap sifts on pointer-cold
// array levels. tests/reference_queue.hpp keeps a plain (time, seq) heap as
// the differential oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace gtrix {

class CkptWriter;
class CkptCursor;
class CkptTargetMap;

inline constexpr std::uint32_t kInvalidEventSlot = 0xffffffffU;

/// POD payload carried by every event, interpreted by the target according
/// to the event kind. The fields are deliberately generic so one layout
/// serves message delivery (a=from, b=edge, c=to, i=stamp), local-time
/// timers (f=threshold) and index-carrying ticks (i=pulse index) alike.
struct EventPayload {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::int64_t i = 0;
  double f = 0.0;
};

/// The typed event handed to TimerTarget::on_timer. `time` is the absolute
/// simulation time the event was scheduled for (== fire time).
struct Event {
  SimTime time = 0.0;
  std::uint32_t kind = 0;
  EventPayload payload{};
};

/// Dispatch interface. Anything that schedules events implements this and
/// demultiplexes on Event::kind (each class defines its own kind enum).
/// Targets are non-owning: the engine never deletes them, so no virtual
/// destructor is needed (and kept protected to prevent misuse).
class TimerTarget {
 public:
  virtual void on_timer(const Event& event) = 0;

 protected:
  ~TimerTarget() = default;
};

/// First-class cancellable reference to a scheduled event. Default-
/// constructed handles are invalid; handles become stale (cancel() and
/// pending() return false) once the event fires or is cancelled.
struct TimerHandle {
  std::uint32_t slot = kInvalidEventSlot;
  std::uint32_t gen = 0;

  constexpr explicit operator bool() const noexcept { return slot != kInvalidEventSlot; }
  constexpr void reset() noexcept {
    slot = kInvalidEventSlot;
    gen = 0;
  }
};

class EventQueue {
 public:
  EventQueue();

  /// Schedules an event for `target` at absolute time `t`. Returns a handle
  /// usable with cancel() / pending() until the event fires.
  TimerHandle schedule(SimTime t, TimerTarget* target, std::uint32_t kind,
                       EventPayload payload = {});

  /// Cancels a previously scheduled event and frees its slot immediately.
  /// Stale handles (already fired / cancelled / recycled) return false.
  bool cancel(TimerHandle handle);

  /// True while the referenced event is scheduled and not yet fired.
  bool pending(TimerHandle handle) const noexcept;

  bool empty() const noexcept { return live_ == 0; }

  /// Time of the next (non-cancelled) event; undefined if empty().
  SimTime next_time() const;

  /// Pops and dispatches the next event; returns false if the queue was
  /// empty. The event's slot is recycled before dispatch, so the handler may
  /// immediately reschedule without growing the slot table.
  bool run_next();

  /// run_next() gated on the event being due: pops and dispatches only if
  /// the next event's time is <= deadline. `fired` is set to the event time
  /// BEFORE dispatch, so a driver passing its clock cursor exposes the
  /// correct now() to the handler. One minimum-location per event, instead
  /// of the next_time() + run_next() pair (the simulator's main loop).
  bool run_next_due(SimTime deadline, SimTime& fired);

  /// run_next_due with an exclusive bound: dispatches only events strictly
  /// before `horizon`. The sharded engine's window loop (runner/
  /// shard_driver.cpp) runs each shard up to but not including the window
  /// horizon, which is the earliest time a cross-shard message can land.
  bool run_next_strictly_before(SimTime horizon, SimTime& fired);

  std::uint64_t executed_count() const noexcept { return executed_; }
  std::uint64_t scheduled_count() const noexcept { return scheduled_; }
  /// Successful cancel() calls. Engine-invariant: cancellations are issued
  /// by node code, which behaves identically under every shard layout
  /// (telemetry's JSONL block relies on this).
  std::uint64_t cancelled_count() const noexcept { return cancelled_; }
  std::size_t pending_count() const noexcept { return live_; }

  /// High-water mark of simultaneously pending events: the slot table never
  /// exceeds the peak pending count (churn tests assert this stays flat).
  std::size_t slot_capacity() const noexcept { return slots_.size(); }

  /// Calendar internals exposed read-only for tests: bucket count, current
  /// bucket width, rebuild count, the chain entries every schedule() so far
  /// walked past to find its place (0 for an append at the chain tail), and
  /// the number of entries linked into the chains.
  std::size_t calendar_buckets() const noexcept { return buckets_.size(); }
  double calendar_width() const noexcept { return width_; }
  std::uint64_t calendar_rebuilds() const noexcept { return rebuilds_; }
  std::uint64_t calendar_insert_steps() const noexcept { return insert_steps_; }
  std::size_t calendar_linked_count() const noexcept;

  /// Checkpoint hooks (src/ckpt/state_ckpt.cpp). The snapshot preserves the
  /// exact slot table -- indices, generations, freelist order and the
  /// per-entry sequence numbers -- so outstanding TimerHandles stay valid
  /// across a restore and the (time, seq) total order continues
  /// unperturbed. The calendar itself is refit on restore (its width and
  /// bucket layout are engine-shaped, not part of the
  /// simulated behaviour). Targets round-trip through `targets` ids.
  void checkpoint_save(CkptWriter& w, const CkptTargetMap& targets) const;
  void checkpoint_restore(CkptCursor& r, const CkptTargetMap& targets);

 private:
  /// A slot sits on one list through `next`: its calendar bucket chain
  /// while its event is pending, the freelist once it is free.
  struct Slot {
    // Chain-walk fields first, so the neighbour an insert walk or an unlink
    // visits is one 32-byte block.
    SimTime time = 0.0;
    std::uint64_t seq = 0;  ///< schedule order; breaks same-time ties FIFO
    long long epoch = 0;    ///< epoch_of(time), cached at insert
    /// A chain is sorted ascending by (time, seq); the head's prev is the
    /// chain tail, the tail's next is invalid.
    std::uint32_t prev = kInvalidEventSlot;
    std::uint32_t next = kInvalidEventSlot;
    std::uint32_t gen = 0;  ///< bumped on every free; stale handles mismatch
    std::uint32_t kind = 0;
    TimerTarget* target = nullptr;  ///< null exactly while the slot is free
    EventPayload payload{};

    bool live() const noexcept { return target != nullptr; }
  };

  /// Lexicographic (time, seq) order -- the total event order.
  bool fires_before(std::uint32_t a, std::uint32_t b) const noexcept {
    const Slot& sa = slots_[a];
    const Slot& sb = slots_[b];
    if (sa.time != sb.time) return sa.time < sb.time;
    return sa.seq < sb.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  /// Locates the next event; requires live_ > 0.
  SimTime peek_time() const;
  /// Pops the event peek_time() located and dispatches it.
  void dispatch_min(SimTime& fired);

  /// Epoch = which width_-sized time window a timestamp falls in. Exact
  /// integer bookkeeping (no accumulated float boundaries): a slot lives in
  /// the chain of bucket epoch mod nbuckets and belongs to the cursor's
  /// window iff its epoch equals the scan epoch.
  ///
  /// EPOCH FRESHNESS INVARIANT: a slot's cached epoch is only meaningful
  /// under the width_ in force when it was linked, so
  ///  (a) calendar_insert stamps slot.epoch AFTER its possible grow-rebuild,
  ///      never before (a rebuild refits width_, and an epoch computed under
  ///      the old width would bucket the event into a year the scan never
  ///      visits or visits too early), and
  ///  (b) calendar_rebuild re-stamps every linked slot's epoch under the new
  ///      width as it redistributes them.
  /// Together with the cursor rule -- an insert with epoch < cur_epoch_
  /// pulls the cursor back to it -- this keeps behind-cursor inserts
  /// immediately after a rebuild correct: the insert is bucketed and
  /// cursored under the post-rebuild width, so the year scan meets it first.
  /// tests/test_calendar_queue.cpp pins this with a directed rebuild ->
  /// behind-cursor-insert regression and a resize differential fuzz against
  /// the reference heap at the >= 64k-pending scale-grid population.
  long long epoch_of(SimTime t) const noexcept;
  std::size_t bucket_of_epoch(long long epoch) const noexcept;
  /// Stamps slot `index`'s epoch, links it and moves the cursor / peek.
  void calendar_insert(std::uint32_t index);
  /// Links slot `index` into the chain its epoch maps to, walking back from
  /// the tail to its (time, seq) place.
  void calendar_link(std::uint32_t index);
  /// Unlinks slot `index` from its bucket chain.
  void calendar_unlink(std::uint32_t index);
  /// Locates the (time, seq)-minimum event, caching its slot in peek_.
  /// Returns false when the calendar is empty.
  bool calendar_find_min() const;
  /// Full scan fallback for sparse calendars: min over every chain head.
  bool calendar_global_min() const;
  /// Rebuilds with a bucket count / width fitted to the linked population.
  void calendar_rebuild(std::size_t min_buckets);
  /// The second half of a rebuild: relinks exactly the slots listed in
  /// rebuild_scratch_ (a checkpoint restore lists them directly).
  void calendar_refit(std::size_t min_buckets);
  /// Shrinks the calendar once the population undershoots it 8x.
  void calendar_maybe_shrink();
  /// GTRIX_DEBUG_CHECKS walk of the chains: each is sorted ascending by
  /// (time, seq) with consistent prev/next and head/tail links; every linked
  /// slot is live, carries the epoch epoch_of(time) under the current width,
  /// sits in the chain its epoch maps to and is not behind the cursor; and
  /// the linked count equals live_. O(pending), so only the debug-assertion
  /// builds call it.
  void calendar_verify_epochs() const;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kInvalidEventSlot;
  std::uint64_t next_seq_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t live_ = 0;

  std::vector<std::uint32_t> buckets_;  ///< chain head slot per bucket
  double width_ = 1.0;
  double inv_width_ = 1.0;        ///< 1 / width_; epochs use the multiply form
  std::size_t bucket_mask_ = 0;   ///< buckets_.size() - 1 (power of two)
  /// Scan cursor: no linked slot has an epoch below this (inserts behind the
  /// cursor pull it back), so the year scan meets the global minimum first.
  /// mutable: locating the minimum from const peeks advances it.
  mutable long long cur_epoch_ = 0;
  /// Slot of the located minimum, or kInvalidEventSlot when not located.
  mutable std::uint32_t peek_ = kInvalidEventSlot;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t insert_steps_ = 0;
  struct RebuildKey {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  std::vector<RebuildKey> rebuild_scratch_;  ///< reused across rebuilds
};

}  // namespace gtrix
