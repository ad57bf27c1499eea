// Heap budget per node of the stabilization shape: an 8-ring torus x 24
// columns x 32 layers with every node corrupted at wave 8, recorded in
// corruption-anchored streaming mode -- the shape of perfbench's
// `stabilization` workload on the serial engine.
//
// The child process builds and runs one cell in per-wave slices and reports
// the peak heap in use (glibc mallinfo2: arena bytes plus mmapped blocks)
// above what it used before the World, divided by the node count. The run
// happens in a forked child so no earlier test's allocations skew the
// figure. A per-node heap object or an accumulator kept alive past the
// corruption anchor shows up here as hundreds of bytes per node.
#include <gtest/gtest.h>

#include <algorithm>

#if defined(__GLIBC__)
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "runner/campaign.hpp"
#include "runner/experiment.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

namespace gtrix {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Committed ceiling on the peak heap growth per node. The flat layout
/// (arena pending queues, CSR adjacency, inline clocks, streaming lanes
/// released at the anchor) peaks near 3050 B/node on x86-64 libstdc++;
/// the per-node deques and live lanes it replaced peaked near 5000.
constexpr double kHeapBytesPerNodeCeiling = 3500.0;

#if defined(__GLIBC__)
double heap_in_use() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd);
}

double peak_heap_bytes_per_node() {
  Json doc = builtin_scenario_doc("scale-stabilization");
  Json config = doc.at("config");
  config.set("columns", 24);
  doc.set("config", std::move(config));
  const ScenarioCell cell = Scenario::from_json(doc).cells().front();
  const CorruptPlan& corrupt = cell.corrupt;
  const double lambda = cell.config.params.lambda;

  const double before = heap_in_use();
  double peak = before;
  {
    World world(cell.config);
    const double nodes = world.grid().node_count();
    world.set_corruption_anchor(corrupt.wave);
    Rng rng(cell.config.seed ^ 0xFEED);  // run_cell's derivation
    double t = lambda;
    for (; t < corrupt.wave * lambda; t += lambda) {
      world.run_until(t);
      peak = std::max(peak, heap_in_use());
    }
    world.run_until(corrupt.wave * lambda);
    world.corrupt_fraction(corrupt.fraction, rng);
    while (!world.idle()) {
      world.run_until(t);
      t += lambda;
      peak = std::max(peak, heap_in_use());
    }
    (void)measure_cell(world, cell.config, corrupt);
    peak = std::max(peak, heap_in_use());
    return (peak - before) / nodes;
  }
}
#endif

TEST(MemoryBudget, StabilizationShapeStaysUnderTheCommittedHeapCeiling) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocators do not report glibc heap figures";
#if defined(__GLIBC__)
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(fds[0]);
    double per_node = -1.0;
    try {
      per_node = peak_heap_bytes_per_node();
    } catch (...) {
    }
    (void)!write(fds[1], &per_node, sizeof per_node);
    _exit(0);
  }
  close(fds[1]);
  double per_node = -1.0;
  const ssize_t got = read(fds[0], &per_node, sizeof per_node);
  close(fds[0]);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_EQ(got, static_cast<ssize_t>(sizeof per_node));
  ASSERT_GT(per_node, 0.0) << "the child's run threw";
  RecordProperty("heap_bytes_per_node", static_cast<int>(per_node));
  EXPECT_LT(per_node, kHeapBytesPerNodeCeiling);
#else
  GTEST_SKIP() << "needs glibc's mallinfo2";
#endif
}

}  // namespace
}  // namespace gtrix
