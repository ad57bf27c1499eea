#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <tuple>

#include "support/check.hpp"

namespace gtrix {

namespace {

constexpr std::size_t kMinBuckets = 8;

}  // namespace

EventQueue::EventQueue()
    : buckets_(kMinBuckets, kInvalidEventSlot), bucket_mask_(kMinBuckets - 1) {}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kInvalidEventSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next;
    return index;
  }
  GTRIX_CHECK_MSG(slots_.size() < kInvalidEventSlot, "event slot table overflow");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.target = nullptr;
  ++slot.gen;  // invalidates every outstanding handle
  slot.next = free_head_;
  free_head_ = index;
}

TimerHandle EventQueue::schedule(SimTime t, TimerTarget* target, std::uint32_t kind,
                                 EventPayload payload) {
  GTRIX_CHECK_MSG(target != nullptr, "event target must not be null");
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.payload = payload;
  slot.target = target;
  slot.time = t;
  slot.seq = next_seq_++;
  slot.kind = kind;
  calendar_insert(index);
  ++scheduled_;
  ++live_;
  return TimerHandle{index, slot.gen};
}

bool EventQueue::cancel(TimerHandle handle) {
  if (!pending(handle)) return false;
  if (peek_ == handle.slot) peek_ = kInvalidEventSlot;
  calendar_unlink(handle.slot);
  release_slot(handle.slot);
  --live_;
  ++cancelled_;
  calendar_maybe_shrink();
  return true;
}

bool EventQueue::pending(TimerHandle handle) const noexcept {
  if (handle.slot == kInvalidEventSlot || handle.slot >= slots_.size()) return false;
  const Slot& slot = slots_[handle.slot];
  return slot.live() && slot.gen == handle.gen;
}

SimTime EventQueue::next_time() const {
  GTRIX_CHECK_MSG(live_ > 0, "next_time on empty queue");
  return peek_time();
}

SimTime EventQueue::peek_time() const {
  GTRIX_CHECK(calendar_find_min());
  return slots_[peek_].time;
}

bool EventQueue::run_next() {
  SimTime fired;
  return run_next_due(kTimeInfinity, fired);
}

bool EventQueue::run_next_due(SimTime deadline, SimTime& fired) {
  if (live_ == 0 || peek_time() > deadline) return false;
  dispatch_min(fired);
  return true;
}

bool EventQueue::run_next_strictly_before(SimTime horizon, SimTime& fired) {
  if (live_ == 0 || peek_time() >= horizon) return false;
  dispatch_min(fired);
  return true;
}

void EventQueue::dispatch_min(SimTime& fired) {
  const std::uint32_t slot_index = peek_;
  GTRIX_DEBUG_CHECK_MSG(slots_[slot_index].epoch == epoch_of(slots_[slot_index].time),
                        "popping a calendar entry whose epoch predates the current width");
  calendar_unlink(slot_index);
  peek_ = kInvalidEventSlot;
  Slot& slot = slots_[slot_index];
  const Event event{slot.time, slot.kind, slot.payload};
  TimerTarget* target = slot.target;
  // Recycle before dispatch: the handler may reschedule into this very slot,
  // and the fired handle is stale from the handler's point of view.
  release_slot(slot_index);
  --live_;
  ++executed_;
  calendar_maybe_shrink();
  fired = event.time;
  target->on_timer(event);
}

// --- calendar ----------------------------------------------------------------
//
// Invariants:
//  * a live slot with time t is linked into the chain of bucket
//    epoch_of(t) mod nbuckets; nothing else is linked;
//  * every chain is sorted ASCENDING by (time, seq) and doubly linked, with
//    the head's prev pointing at the tail: the bucket's earliest event is
//    its head (O(1) pop) and its latest the tail (O(1) append);
//  * no linked slot has an epoch below cur_epoch_ (inserts behind the
//    cursor pull it back), so the year scan starting at cur_epoch_ always
//    meets the global (time, seq) minimum first;
//  * equal times map to equal buckets, so FIFO among ties falls out of the
//    (time, seq) sort order.

long long EventQueue::epoch_of(SimTime t) const noexcept {
  // Multiply by the precomputed inverse: cheaper than dividing, and any
  // rounding difference vs t / width_ is harmless -- the mapping only has
  // to be one deterministic monotone function used consistently. The clamp
  // keeps it monotone (and the cast defined) for a time far beyond the
  // population the width was fitted to; saturated times share a bucket,
  // whose chain still orders them.
  constexpr double kMaxEpoch = 0x1p62;
  return static_cast<long long>(std::floor(std::clamp(t * inv_width_, -kMaxEpoch, kMaxEpoch)));
}

std::size_t EventQueue::bucket_of_epoch(long long epoch) const noexcept {
  // Bucket count is a power of two; masking the two's-complement epoch
  // equals the positive modulo for negatives as well.
  return static_cast<std::size_t>(static_cast<unsigned long long>(epoch) & bucket_mask_);
}

std::size_t EventQueue::calendar_linked_count() const noexcept {
  std::size_t n = 0;
  for (const std::uint32_t head : buckets_) {
    for (std::uint32_t i = head; i != kInvalidEventSlot; i = slots_[i].next) ++n;
  }
  return n;
}

void EventQueue::calendar_insert(std::uint32_t index) {
  if (live_ > buckets_.size() * 2) {
    calendar_rebuild(buckets_.size() * 2);
  }
  Slot& slot = slots_[index];
  slot.epoch = epoch_of(slot.time);  // rebuild above may have changed width
  calendar_link(index);
  if (slot.epoch < cur_epoch_) {
    // Scheduled behind the scan cursor (a queue used directly before any
    // pop, or after the cursor chased a sparse far-future tail). Pull the
    // cursor back; by the cursor invariant no other linked slot sits at an
    // epoch this low, so the new event is the minimum.
    cur_epoch_ = slot.epoch;
    peek_ = index;
#ifdef GTRIX_DEBUG_CHECKS
    // The behind-cursor insert is exactly the spot the EPOCH FRESHNESS
    // INVARIANT (header) protects: after a rebuild refit width_, a
    // pre-rebuild epoch would bucket this event into a year the scan never
    // meets. Walk the whole calendar while the debug build has the chance
    // (counting the just-linked event, which schedule() adds to live_ next).
    ++live_;
    calendar_verify_epochs();
    --live_;
#endif
  } else if (peek_ != kInvalidEventSlot && fires_before(index, peek_)) {
    peek_ = index;
  }
}

void EventQueue::calendar_link(std::uint32_t index) {
  Slot& slot = slots_[index];
  std::uint32_t& head = buckets_[bucket_of_epoch(slot.epoch)];
  if (head == kInvalidEventSlot) {
    head = index;
    slot.prev = index;
    slot.next = kInvalidEventSlot;
    return;
  }
  // Walk back from the tail to the last entry that fires before the new
  // one. Events mostly arrive in time order and same-instant ties in seq
  // order, so the walk usually stops at the tail itself.
  const std::uint32_t tail = slots_[head].prev;
  std::uint32_t at = tail;
  while (!fires_before(at, index)) {
    ++insert_steps_;
    if (at == head) {
      // Fires before every entry: the new head.
      slot.prev = tail;
      slot.next = head;
      slots_[head].prev = index;
      head = index;
      return;
    }
    at = slots_[at].prev;
  }
  const std::uint32_t after = slots_[at].next;
  slot.prev = at;
  slot.next = after;
  slots_[at].next = index;
  slots_[after == kInvalidEventSlot ? head : after].prev = index;  // head: new tail
}

void EventQueue::calendar_unlink(std::uint32_t index) {
  const Slot& slot = slots_[index];
  std::uint32_t& head = buckets_[bucket_of_epoch(slot.epoch)];
  const std::uint32_t prev = slot.prev;
  const std::uint32_t next = slot.next;
  if (index == head) {
    head = next;
    if (next != kInvalidEventSlot) slots_[next].prev = prev;  // keeps the tail
  } else {
    slots_[prev].next = next;
    slots_[next == kInvalidEventSlot ? head : next].prev = prev;
  }
}

bool EventQueue::calendar_find_min() const {
  if (peek_ != kInvalidEventSlot) return true;
  if (live_ == 0) return false;
  for (std::size_t lap = 0; lap < buckets_.size(); ++lap) {
    const long long epoch = cur_epoch_ + static_cast<long long>(lap);
    const std::uint32_t head = buckets_[bucket_of_epoch(epoch)];
    // The head is the chain's earliest event; it belongs to this year iff
    // its epoch is the scan epoch.
    if (head != kInvalidEventSlot && slots_[head].epoch == epoch) {
      GTRIX_DEBUG_CHECK_MSG(epoch == epoch_of(slots_[head].time),
                            "calendar entry epoch stamped under a stale width");
      cur_epoch_ = epoch;
      peek_ = head;
      return true;
    }
  }
  // A full lap found nothing inside its year window: the population is
  // sparse relative to the calendar span. Fall back to a direct global
  // minimum scan and re-anchor the cursor there.
  return calendar_global_min();
}

bool EventQueue::calendar_global_min() const {
  std::uint32_t best = kInvalidEventSlot;
  for (const std::uint32_t head : buckets_) {
    if (head != kInvalidEventSlot && (best == kInvalidEventSlot || fires_before(head, best))) {
      best = head;
    }
  }
  if (best == kInvalidEventSlot) return false;
  cur_epoch_ = slots_[best].epoch;
  peek_ = best;
  return true;
}

void EventQueue::calendar_maybe_shrink() {
  if (buckets_.size() > kMinBuckets && live_ * 8 < buckets_.size()) {
    calendar_rebuild(kMinBuckets);
  }
}

void EventQueue::calendar_rebuild(std::size_t min_buckets) {
  // Collect the linked population in (time, seq) order and fit the calendar
  // to it: bucket count ~ the next power of two above the population (about
  // one event per bucket) and width ~ twice the mean gap inside the densest
  // quarter of it. Pending events crowd into the wave band d ahead of the
  // cursor, so a width fitted to the whole span would pack the band into a
  // few long chains; fitting it to the band keeps those chains short.
  rebuild_scratch_.clear();
  for (const std::uint32_t head : buckets_) {
    for (std::uint32_t i = head; i != kInvalidEventSlot; i = slots_[i].next) {
      rebuild_scratch_.push_back(RebuildKey{slots_[i].time, slots_[i].seq, i});
    }
  }
  calendar_refit(min_buckets);
}

void EventQueue::calendar_refit(std::size_t min_buckets) {
  ++rebuilds_;
  std::vector<RebuildKey>& keys = rebuild_scratch_;
  std::sort(keys.begin(), keys.end(), [](const RebuildKey& a, const RebuildKey& b) {
    return std::tie(a.time, a.seq) < std::tie(b.time, b.seq);
  });
  const std::size_t n = keys.size();
  buckets_.assign(std::max(min_buckets, std::bit_ceil(n)), kInvalidEventSlot);
  bucket_mask_ = buckets_.size() - 1;

  double width = 1.0;
  if (n >= 2 && keys.back().time > keys.front().time) {
    // Densest run of ceil(n/4) consecutive events.
    const std::size_t run = (n + 3) / 4;
    double span = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i + run <= n; ++i) {
      span = std::min(span, keys[i + run - 1].time - keys[i].time);
    }
    width = span > 0.0 ? 2.0 * span / static_cast<double>(run)
                       : 2.0 * (keys.back().time - keys.front().time) / static_cast<double>(n);
    // Keep floor(t / width) well inside the integer range even for large
    // absolute times with tightly clustered events.
    width = std::max(width, (std::abs(keys.back().time) + 1.0) * 1e-12);
  }
  width_ = width;
  inv_width_ = 1.0 / width_;

  // Linking in ascending (time, seq) order appends every event at its
  // chain's tail.
  for (const RebuildKey& key : keys) {
    slots_[key.slot].epoch = epoch_of(key.time);
    calendar_link(key.slot);
  }
  // Re-anchor the cursor at the earliest event (or at zero when empty).
  peek_ = kInvalidEventSlot;
  cur_epoch_ = n == 0 ? 0 : slots_[keys.front().slot].epoch;
#ifdef GTRIX_DEBUG_CHECKS
  calendar_verify_epochs();
#endif
}

void EventQueue::calendar_verify_epochs() const {
  std::size_t linked = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::uint32_t head = buckets_[b];
    if (head == kInvalidEventSlot) continue;
    std::uint32_t last = kInvalidEventSlot;
    for (std::uint32_t i = head; i != kInvalidEventSlot; i = slots_[i].next) {
      GTRIX_CHECK_MSG(i < slots_.size(), "calendar chain link out of range");
      GTRIX_CHECK_MSG(++linked <= live_, "calendar chains hold more entries than are live");
      const Slot& slot = slots_[i];
      GTRIX_CHECK_MSG(slot.live(), "calendar chain links a freed slot");
      GTRIX_CHECK_MSG(i == head || slot.prev == last,
                      "calendar chain prev link disagrees with its next link");
      GTRIX_CHECK_MSG(last == kInvalidEventSlot || fires_before(last, i),
                      "calendar chain not sorted ascending by (time, seq)");
      GTRIX_CHECK_MSG(slot.epoch == epoch_of(slot.time),
                      "live calendar entry carries an epoch from an older width");
      GTRIX_CHECK_MSG(bucket_of_epoch(slot.epoch) == b,
                      "live calendar entry sits in a bucket its epoch does not map to");
      GTRIX_CHECK_MSG(slot.epoch >= cur_epoch_,
                      "live calendar entry hides behind the scan cursor");
      last = i;
    }
    GTRIX_CHECK_MSG(slots_[head].prev == last, "calendar chain head does not point at its tail");
  }
  GTRIX_CHECK_MSG(linked == live_, "calendar chains and live count disagree");
}

}  // namespace gtrix
