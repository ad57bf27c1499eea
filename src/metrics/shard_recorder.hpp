// Per-shard trace buffering for the sharded engine.
//
// Nodes record pulses and iterations through the Recorder interface, but the
// real Recorder is single-threaded mutable state (global sigma extrema, the
// streaming accumulators' floating-point sums). In a sharded run each node
// therefore records into its shard's ShardRecorder -- a plain append-only
// buffer, touched only by that shard's worker thread while a window runs.
// At each window barrier the completion seals every buffer (an O(1) swap
// into the sealed slot) and the thread that called ShardDriver::run replays
// the sealed batch into the true Recorder in (time, node) order via
// merge_shard_records(), overlapped with the workers' next window. Batches
// are replayed one at a time in window order, so the Recorder sees exactly
// the call sequence a serial merge at the barrier would produce.
//
// Why that order reproduces the serial engine byte-for-byte: every node
// lives in exactly one shard, so a stable sort by (time, node) preserves
// each node's own generation order, and two different nodes never record at
// the same timestamp in practice (pulse times carry per-node layer-0 jitter
// and clock-rate noise). The differential tests in tests/test_sharded.cpp
// are the referee for that claim on every builtin scenario.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "metrics/recorder.hpp"
#include "sim/simulator.hpp"
#include "support/check.hpp"

namespace gtrix {

class ShardRecorder final : public Recorder {
 public:
  /// `sim` is the owning shard's simulator; entries are stamped with its
  /// now() at record time, which is the event time being executed.
  /// `keep_iterations` says whether the sink retains iteration records
  /// (every recording mode but streaming); when it does not, they are
  /// dropped here instead of buffered.
  ShardRecorder(const Simulator* sim, bool keep_iterations)
      : sim_(sim), keep_iterations_(keep_iterations) {}

  /// One buffered record: a pulse, or an iteration whose record waits in
  /// the side buffer (iteration()).
  struct Entry {
    SimTime when = 0.0;  ///< shard-local now() at record time: the merge key
    RecNodeId node = 0;
    bool is_pulse = false;
    Sigma sigma = 0;     ///< the pulse's wave, or the iteration's side-buffer index
    SimTime t = 0.0;     ///< the pulse's time
  };
  static_assert(sizeof(Entry) <= 32, "shard trace entries stay small");

  void record_pulse(RecNodeId node, Sigma sigma, SimTime t) override {
    buffer_.push_back(Entry{sim_->now(), node, true, sigma, t});
  }

  void record_iteration(RecNodeId node, const IterationRecord& record) override {
    if (!keep_iterations_) return;
    buffer_.push_back(
        Entry{sim_->now(), node, false, static_cast<Sigma>(iterations_.size()), 0.0});
    iterations_.push_back(record);
  }

  /// Moves the window's records (already sort_window()ed) into the sealed
  /// slot and leaves the live buffers empty for the next window: an O(1)
  /// swap with the slot the previous replay released. Called by the barrier
  /// completion, with every worker parked.
  void seal() noexcept {
    GTRIX_DEBUG_CHECK(sealed_.empty() && sealed_iterations_.empty());
    buffer_.swap(sealed_);
    iterations_.swap(sealed_iterations_);
  }

  /// The sealed batch, read by the replay while the worker fills the live
  /// buffers with the next window.
  const std::vector<Entry>& sealed() const noexcept { return sealed_; }
  const IterationRecord& sealed_iteration(const Entry& entry) const {
    return sealed_iterations_[static_cast<std::size_t>(entry.sigma)];
  }
  /// Empties the sealed slot after its replay (capacity is kept).
  void release_sealed() noexcept {
    sealed_.clear();
    sealed_iterations_.clear();
  }

  /// Puts the buffer into (when, node) order, stably (each node's own
  /// generation order survives). Called by the OWNING WORKER at the end of
  /// its window so the sort cost runs in parallel across shards; the replay
  /// then only has to merge already-sorted runs. Events execute in time
  /// order, so the buffer is globally sorted by `when` already; only maximal
  /// equal-`when` segments (batched deliveries) can be out of node order,
  /// and those are short, so this is one linear scan plus tiny per-segment
  /// sorts.
  void sort_window() {
    auto node_less = [](const Entry& a, const Entry& b) { return a.node < b.node; };
    auto it = buffer_.begin();
    while (it != buffer_.end()) {
      auto end = it + 1;
      while (end != buffer_.end() && end->when == it->when) ++end;
      if (!std::is_sorted(it, end, node_less)) std::stable_sort(it, end, node_less);
      it = end;
    }
  }

 private:
  const Simulator* sim_;
  bool keep_iterations_;
  std::vector<Entry> buffer_;  ///< live: the running window's records
  std::vector<IterationRecord> iterations_;
  std::vector<Entry> sealed_;  ///< the previous window's, awaiting replay
  std::vector<IterationRecord> sealed_iterations_;
};

/// Replays every shard's sealed batch into `sink` in global (time, node)
/// order; the caller releases the sealed slots afterwards. Runs on the
/// thread that called ShardDriver::run, concurrently with the workers' next
/// window (which only touch the live buffers). Requires each batch to be in
/// (when, node) order (sort_window()); the merge itself is a copy-free
/// k-way pick.
void merge_shard_records(Recorder& sink, std::span<ShardRecorder* const> shards);

}  // namespace gtrix
