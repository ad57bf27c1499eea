#include "metrics/shard_recorder.hpp"

#include <cstddef>

namespace gtrix {

void merge_shard_records(Recorder& sink, std::span<ShardRecorder* const> shards) {
  // Copy-free k-way merge over batches the workers already sorted in
  // parallel (ShardRecorder::sort_window). Ties on (when, node) cannot span
  // buffers -- a node lives in exactly one shard -- so picking the smallest
  // head, lowest shard first, is a stable total order.
  static thread_local std::vector<std::size_t> heads;
  heads.assign(shards.size(), 0);
  while (true) {
    const ShardRecorder::Entry* best = nullptr;
    std::size_t best_shard = 0;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const std::vector<ShardRecorder::Entry>& buffer = shards[s]->sealed();
      if (heads[s] >= buffer.size()) continue;
      const ShardRecorder::Entry& head = buffer[heads[s]];
      if (best == nullptr || head.when < best->when ||
          (head.when == best->when && head.node < best->node)) {
        best = &head;
        best_shard = s;
      }
    }
    if (best == nullptr) break;
    ++heads[best_shard];
    if (best->is_pulse) {
      sink.record_pulse(best->node, best->sigma, best->t);
    } else {
      sink.record_iteration(best->node, shards[best_shard]->sealed_iteration(*best));
    }
  }
}

}  // namespace gtrix
