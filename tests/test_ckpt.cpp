// Checkpoint subsystem harness (src/ckpt/, runner/ckpt_runner.hpp): a world
// snapshotted mid-run and restored into a freshly constructed world must
// continue bit-identically -- same skew digest, same counters -- at every
// (scheduler, shard count) combination, including mid-run corruption and
// streaming recording. Plus the hard-failure contract: truncated, corrupt,
// version-bumped and config-mismatched checkpoints throw CkptError with a
// message naming the file, never a silent partial restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "runner/campaign.hpp"
#include "runner/ckpt_runner.hpp"
#include "runner/experiment.hpp"
#include "runner/perf.hpp"
#include "runner/result_io.hpp"
#include "scenario/spec.hpp"

namespace gtrix {
namespace {

ExperimentConfig tiny_config() {
  return config_from_json(Json::parse(R"({"columns": 6, "layers": 6, "pulses": 10})"));
}

ExperimentConfig streaming_config() {
  return config_from_json(
      Json::parse(R"({"columns": 6, "layers": 6, "pulses": 10, "recording": "streaming"})"));
}

ExperimentConfig corrupt_config() {
  return config_from_json(Json::parse(
      R"({"columns": 6, "layers": 6, "pulses": 40, "self_stabilizing": true})"));
}

ExperimentConfig corrupt_streaming_config() {
  return config_from_json(
      Json::parse(R"({"columns": 6, "layers": 6, "pulses": 40, "self_stabilizing": true,
                      "recording": {"kind": "streaming", "window": 16}})"));
}

CorruptPlan corrupt_plan() {
  CorruptPlan plan;
  plan.enabled = true;
  plan.wave = 10.0;
  plan.fraction = 1.0;
  return plan;
}

// A fresh scratch directory per call, under the system temp dir.
std::filesystem::path scratch_dir(const std::string& tag) {
  static int counter = 0;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("gtrix_ckpt_test_" + tag + "_" + std::to_string(++counter));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string counters_digest(const ExperimentResult& r) {
  const ExperimentCounters& c = r.counters;
  return std::to_string(c.iterations) + "/" + std::to_string(c.late_broadcasts) + "/" +
         std::to_string(c.guard_aborts) + "/" + std::to_string(c.watchdog_resets) + "/" +
         std::to_string(c.timeout_branches) + "/" + std::to_string(c.duplicate_drops) + "/" +
         std::to_string(c.events_executed) + "/" + std::to_string(c.messages_sent) + "/" +
         std::to_string(c.messages_delivered) + "/" + std::to_string(c.delivery_events);
}

// Runs the cell uninterrupted and via save-at-t -> restore-into-fresh-world
// -> continue, and requires identical skew and counters.
void expect_roundtrip_identical(const ExperimentConfig& config, EngineOptions engine,
                                double save_t, const std::string& what) {
  ExperimentResult baseline;
  {
    World world(config, engine);
    world.run_to_completion();
    EXPECT_TRUE(world.idle()) << what;
    baseline = measure_cell(world, config, {});
  }
  std::vector<std::uint8_t> image;
  {
    World world(config, engine);
    world.run_until(save_t);
    image = world.checkpoint_save("");
  }
  World resumed(config, engine);
  {
    CkptFile file = CkptFile::parse(image, "mem.ckpt");
    resumed.checkpoint_restore(file);
  }
  resumed.run_to_completion();
  const ExperimentResult result = measure_cell(resumed, config, {});
  EXPECT_EQ(skew_digest(result), skew_digest(baseline)) << what;
  EXPECT_EQ(counters_digest(result), counters_digest(baseline)) << what;
}

TEST(Ckpt, RestoreContinuesBitIdenticallyAcrossShardsAndSchedulers) {
  const ExperimentConfig config = tiny_config();
  const double mid = 4.5 * config.params.lambda;
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    EngineOptions engine;
    engine.shards = shards;
    expect_roundtrip_identical(config, engine, mid, std::to_string(shards) + " shards");
  }
}

TEST(Ckpt, RestoreContinuesBitIdenticallyUnderStreamingRecording) {
  const ExperimentConfig config = streaming_config();
  const double mid = 5.0 * config.params.lambda;
  for (const std::uint32_t shards : {1u, 2u}) {
    EngineOptions engine;
    engine.shards = shards;
    expect_roundtrip_identical(config, engine, mid,
                               "streaming/" + std::to_string(shards) + " shards");
  }
}

TEST(Ckpt, SendFaultStateRestoresMidRun) {
  // Two jitter nodes and a mute-after node: layer l pulses wave k near
  // (k + l) Lambda, so at 8.5 Lambda the jitter streams are part-way
  // through and the mute-after node (layer 4) has not yet sent its sixth
  // and last pulse; the faults section carries live (rng, sent) pairs.
  const ExperimentConfig config = config_from_json(Json::parse(R"({
      "columns": 8, "layers": 8, "pulses": 16,
      "faults": [
        {"base": 3, "layer": 2, "kind": "jitter", "alpha": 30.0},
        {"base": 5, "layer": 4, "kind": "mute-after", "after": 6},
        {"base": 6, "layer": 6, "kind": "jitter", "alpha": 20.0}
      ]})"));
  const double mid = 8.5 * config.params.lambda;
  for (const std::uint32_t shards : {1u, 2u}) {
    EngineOptions engine;
    engine.shards = shards;
    expect_roundtrip_identical(config, engine, mid,
                               "send faults/" + std::to_string(shards) + " shards");
  }
}

TEST(Ckpt, RestoreAtEveryBoundaryMatchesUninterruptedRun) {
  // Simulated kill-at-boundary: run the checkpointed runner to completion
  // once per boundary count, each time taking the snapshot left by an
  // earlier prefix and resuming it in a fresh runner invocation. Resumed
  // results must match the plain run_cell result exactly.
  const ExperimentConfig config = tiny_config();
  const double every = 2.0 * config.params.lambda;
  const std::string baseline = skew_digest(run_cell(config, {}));

  for (const std::uint32_t shards : {1u, 2u}) {
    EngineOptions engine;
    engine.shards = shards;

    // Uninterrupted checkpointed run: chunked execution changes nothing.
    const auto dir = scratch_dir("chunked");
    CheckpointOptions opts;
    opts.dir = dir.string();
    opts.every = every;
    const ExperimentResult chunked =
        run_cell_checkpointed(config, {}, opts, 0, "base", engine);
    EXPECT_EQ(skew_digest(chunked), baseline) << shards << " shards";
    EXPECT_GT(chunked.engine_stats.checkpoints_written, 0u);
    EXPECT_GT(chunked.engine_stats.checkpoint_bytes, 0u);
    ASSERT_TRUE(std::filesystem::exists(dir / "cell-00000-base.ckpt"));
    ASSERT_TRUE(std::filesystem::exists(dir / "cell-00000-base.done.json"));

    // Kill-after-last-snapshot: drop the done marker, keep the snapshot;
    // resume must restore (not restart) and land on the same bytes.
    std::filesystem::remove(dir / "cell-00000-base.done.json");
    opts.resume = true;
    const ExperimentResult resumed =
        run_cell_checkpointed(config, {}, opts, 0, "base", engine);
    EXPECT_EQ(skew_digest(resumed), baseline) << shards << " shards resumed";
    EXPECT_EQ(resumed.engine_stats.checkpoints_restored, 1u);

    // Completed cell: resume short-circuits to the done file, zero re-run.
    const ExperimentResult reloaded =
        run_cell_checkpointed(config, {}, opts, 0, "base", engine);
    EXPECT_EQ(skew_digest(reloaded), baseline) << shards << " shards reloaded";
    EXPECT_EQ(reloaded.engine_stats.cells_resumed_done, 1u);
    EXPECT_EQ(counters_digest(reloaded), counters_digest(resumed));
    std::filesystem::remove_all(dir);
  }
}

TEST(Ckpt, CorruptCellResumesIdenticallyAcrossThePhaseBoundary) {
  const ExperimentConfig config = corrupt_config();
  const CorruptPlan plan = corrupt_plan();
  const std::string baseline = skew_digest(run_cell(config, plan));

  // `every` chosen so snapshots land both before wave 10 (phase 0) and
  // after (phase 1); the kill-and-resume covers whichever is newest.
  for (const double every : {3.0 * config.params.lambda, 14.0 * config.params.lambda}) {
    const auto dir = scratch_dir("corrupt");
    CheckpointOptions opts;
    opts.dir = dir.string();
    opts.every = every;
    const ExperimentResult chunked = run_cell_checkpointed(config, plan, opts, 3, "c", {});
    EXPECT_EQ(skew_digest(chunked), baseline) << "every=" << every;

    std::filesystem::remove(dir / "cell-00003-c.done.json");
    opts.resume = true;
    const ExperimentResult resumed = run_cell_checkpointed(config, plan, opts, 3, "c", {});
    EXPECT_EQ(skew_digest(resumed), baseline) << "every=" << every << " resumed";
    EXPECT_EQ(counters_digest(resumed), counters_digest(chunked)) << "every=" << every;
    std::filesystem::remove_all(dir);
  }
}

TEST(Ckpt, CorruptStreamingCellResumesIdenticallyMidCorruptionAndMidRecovery) {
  // Corruption-anchored retention must survive a snapshot/restore: kills
  // landing mid-corruption (look-back box partially filled) and
  // mid-recovery (realignment tail still accumulating) have to resume to
  // the same realigned skew bytes as the uninterrupted streaming run --
  // which itself must match full recording on the same cell.
  const ExperimentConfig config = corrupt_streaming_config();
  const CorruptPlan plan = corrupt_plan();
  const std::string baseline = skew_digest(run_cell(config, plan));
  EXPECT_EQ(skew_digest(run_cell(corrupt_config(), plan)), baseline)
      << "streaming corrupt cell diverged from full recording";

  // every=3 lambda: the newest snapshot before the kill sits at wave 12 --
  // inside the corruption box, labels not yet realigned. every=11 lambda:
  // the newest snapshot sits at wave 11, one wave into recovery.
  for (const double every : {3.0 * config.params.lambda, 11.0 * config.params.lambda}) {
    for (const std::uint32_t shards : {1u, 2u}) {
      EngineOptions engine;
      engine.shards = shards;
      const auto dir = scratch_dir("corrupt_stream");
      CheckpointOptions opts;
      opts.dir = dir.string();
      opts.every = every;
      const std::string tag = "every=" + std::to_string(every) + " shards=" + std::to_string(shards);
      const ExperimentResult chunked =
          run_cell_checkpointed(config, plan, opts, 7, "cs", engine);
      EXPECT_EQ(skew_digest(chunked), baseline) << tag;

      std::filesystem::remove(dir / "cell-00007-cs.done.json");
      opts.resume = true;
      const ExperimentResult resumed =
          run_cell_checkpointed(config, plan, opts, 7, "cs", engine);
      EXPECT_EQ(skew_digest(resumed), baseline) << tag << " resumed";
      EXPECT_EQ(resumed.engine_stats.checkpoints_restored, 1u) << tag;
      EXPECT_EQ(counters_digest(resumed), counters_digest(chunked)) << tag;
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(Ckpt, PostAnchorSnapshotRestoresReleasedStreamingLanes) {
  // The corruption anchor's first suppressed pulse releases the streaming
  // accumulator's per-node lanes. A snapshot taken after that carries them
  // empty; restoring it into a fresh World (whose lanes start allocated)
  // must release them again and finish to the same campaign JSONL bytes as
  // the uninterrupted run.
  const ExperimentConfig config = corrupt_streaming_config();
  const CorruptPlan plan = corrupt_plan();
  const double save_t = 12.0 * config.params.lambda;  // two waves past the anchor
  const auto run_corrupt = [&](World& world, double until) {
    world.set_corruption_anchor(plan.wave);
    Rng rng(config.seed ^ 0xFEED);  // run_cell's derivation
    world.run_until(plan.wave * config.params.lambda);
    world.corrupt_fraction(plan.fraction, rng);
    world.run_until(until);
  };
  const auto jsonl = [&](const ExperimentResult& result) {
    CampaignResult campaign;
    campaign.scenario = "post-anchor";
    campaign.cells.push_back(CampaignCell{"base", config, plan, result});
    return campaign_jsonl(campaign);
  };

  for (const std::uint32_t shards : {1u, 2u}) {
    EngineOptions engine;
    engine.shards = shards;
    const std::string tag = std::to_string(shards) + " shards";
    std::string baseline;
    std::vector<std::uint8_t> image;
    std::uint64_t saved_bytes = 0;
    {
      World world(config, engine);
      run_corrupt(world, save_t);
      ASSERT_TRUE(world.streaming()->lanes_released()) << tag;
      saved_bytes = world.streaming()->memory_bytes();
      image = world.checkpoint_save("");
      world.run_to_completion();
      baseline = jsonl(measure_cell(world, config, plan));
    }
    World resumed(config, engine);
    resumed.set_corruption_anchor(plan.wave);
    EXPECT_FALSE(resumed.streaming()->lanes_released()) << tag;
    resumed.checkpoint_restore(CkptFile::parse(image, "post-anchor.ckpt"));
    EXPECT_TRUE(resumed.streaming()->lanes_released()) << tag;
    EXPECT_EQ(resumed.streaming()->memory_bytes(), saved_bytes) << tag;
    resumed.run_to_completion();
    EXPECT_EQ(jsonl(measure_cell(resumed, config, plan)), baseline) << tag;
  }
}

TEST(Ckpt, HardFailuresNameTheFileAndTheCause) {
  const ExperimentConfig config = tiny_config();
  World world(config, {});
  world.run_until(2.0 * config.params.lambda);
  const std::vector<std::uint8_t> image = world.checkpoint_save("");

  const auto expect_throw_with = [](const std::vector<std::uint8_t>& bytes,
                                    const std::string& needle) {
    try {
      CkptFile::parse(bytes, "x.ckpt");
      FAIL() << "expected CkptError containing '" << needle << "'";
    } catch (const CkptError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("x.ckpt"), std::string::npos) << e.what();
    }
  };

  std::vector<std::uint8_t> bad_magic = image;
  bad_magic[0] ^= 0xFF;
  expect_throw_with(bad_magic, "bad magic");

  std::vector<std::uint8_t> bad_version = image;
  bad_version[8] = 0x2A;  // u32 version lives right after the 8-byte magic
  expect_throw_with(bad_version, "version 42 is not supported");

  // Version 3 (streaming-skew lanes always saved whole) is rejected by the
  // same version check.
  ASSERT_EQ(kCkptFormatVersion, 4u);
  std::vector<std::uint8_t> v3 = image;
  v3[8] = 0x03;
  expect_throw_with(v3, "checkpoint format version 3 is not supported (this build reads "
                        "version 4)");

  std::vector<std::uint8_t> truncated(image.begin(), image.begin() + image.size() / 2);
  expect_throw_with(truncated, "checkpoint");

  std::vector<std::uint8_t> flipped = image;
  flipped[image.size() / 2] ^= 0x01;
  expect_throw_with(flipped, "CRC mismatch");

  // Config mismatch: the restore target was built under different params.
  ExperimentConfig other = tiny_config();
  other.seed += 1;
  World target(other, {});
  CkptFile file = CkptFile::parse(image, "x.ckpt");
  try {
    target.checkpoint_restore(file);
    FAIL() << "expected config-mismatch CkptError";
  } catch (const CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("different experiment config"), std::string::npos)
        << e.what();
  }

  // Engine mismatch: same config, different shard layout.
  EngineOptions sharded;
  sharded.shards = 2;
  World sharded_target(config, sharded);
  CkptFile file2 = CkptFile::parse(image, "x.ckpt");
  try {
    sharded_target.checkpoint_restore(file2);
    FAIL() << "expected engine-mismatch CkptError";
  } catch (const CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("engine fingerprint"), std::string::npos) << e.what();
  }
}

TEST(Ckpt, CursorCountRejectsCountsPastTheRemainingBytes) {
  std::vector<std::uint8_t> bytes(8 + 16, 0);
  bytes[0] = 2;  // u64 count 2, then 16 bytes of elements
  CkptCursor fits(bytes.data(), bytes.data() + bytes.size(), "s");
  EXPECT_EQ(fits.count(8), 2u);
  CkptCursor too_wide(bytes.data(), bytes.data() + bytes.size(), "s");
  EXPECT_THROW((void)too_wide.count(9), CkptError);
  // 2^64 - 1 elements: the multiplication would overflow; the check must not.
  for (int i = 0; i < 8; ++i) bytes[i] = 0xFF;
  CkptCursor huge(bytes.data(), bytes.data() + bytes.size(), "s");
  EXPECT_THROW((void)huge.count(8), CkptError);
}

TEST(Ckpt, PatchedRecorderCountWithValidCrcIsRejected) {
  // The CRC only detects accidents: a count patched on purpose (CRC
  // recomputed) must still fail as CkptError before it sizes anything.
  const ExperimentConfig config = tiny_config();
  std::vector<std::uint8_t> image;
  {
    World world(config, {});
    world.run_until(2.0 * config.params.lambda);
    image = world.checkpoint_save("");
  }
  // Section framing: u32 name length | name | u64 body length | body.
  const std::vector<std::uint8_t> frame = {8, 0, 0, 0, 'r', 'e', 'c', 'o', 'r', 'd', 'e', 'r'};
  const auto at = std::search(image.begin(), image.end(), frame.begin(), frame.end());
  ASSERT_NE(at, image.end());
  // Recorder body: min/max sigma, pulses, pinned, node count, then the first
  // node's first_sigma and its pulse-time count.
  const std::size_t ntimes_at = static_cast<std::size_t>(at - image.begin()) + frame.size() + 8 +
                                6 * 8;
  for (std::size_t i = 0; i < 8; ++i) image[ntimes_at + i] = i == 6 ? 0x40 : 0;  // 2^54
  const std::uint32_t crc = ckpt_crc32(image.data(), image.size() - 4);
  for (std::size_t i = 0; i < 4; ++i) image[image.size() - 4 + i] = (crc >> (8 * i)) & 0xFF;

  World target(config, {});
  CkptFile file = CkptFile::parse(image, "patched.ckpt");
  try {
    target.checkpoint_restore(file);
    FAIL() << "expected CkptError";
  } catch (const CkptError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'recorder' declares 18014398509481984 elements"), std::string::npos)
        << what;
  }
}

TEST(Ckpt, ReleasedStreamingLanesWithoutASuppressedPulseAreRejected) {
  // Released lanes are legal only after a suppressed pulse; a section that
  // claims otherwise (CRC recomputed) must fail before the next pulse would
  // index the empty lanes.
  const ExperimentConfig config = corrupt_streaming_config();
  const CorruptPlan plan = corrupt_plan();
  std::vector<std::uint8_t> image;
  {
    World world(config, {});
    world.set_corruption_anchor(plan.wave);
    Rng rng(config.seed ^ 0xFEED);
    world.run_until(plan.wave * config.params.lambda);
    world.corrupt_fraction(plan.fraction, rng);
    world.run_until(12.0 * config.params.lambda);
    ASSERT_TRUE(world.streaming()->lanes_released());
    image = world.checkpoint_save("");
  }
  const std::vector<std::uint8_t> frame = {9,   0,   0,   0,   's', 't', 'r',
                                           'e', 'a', 'm', 'i', 'n', 'g'};
  const auto at = std::search(image.begin(), image.end(), frame.begin(), frame.end());
  ASSERT_NE(at, image.end());
  // Streaming body: six empty per-node lanes (a count each), the intra /
  // inter / spread layer vectors, the empty layer ring, then pairs_checked,
  // window_overflows, out_of_order and the suppressed count.
  const std::size_t layers = config.layers;
  const std::size_t suppressed_at = static_cast<std::size_t>(at - image.begin()) +
                                    frame.size() + 8 + 6 * 8 + (8 + 8 * layers) +
                                    (8 + 8 * (layers - 1)) + (8 + 8 * layers) + 8 + 3 * 8;
  for (std::size_t i = 0; i < 8; ++i) image[suppressed_at + i] = 0;
  const std::uint32_t crc = ckpt_crc32(image.data(), image.size() - 4);
  for (std::size_t i = 0; i < 4; ++i) image[image.size() - 4 + i] = (crc >> (8 * i)) & 0xFF;

  World target(config, {});
  target.set_corruption_anchor(plan.wave);
  try {
    target.checkpoint_restore(CkptFile::parse(image, "patched.ckpt"));
    FAIL() << "expected CkptError";
  } catch (const CkptError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lanes are released but no pulse was suppressed"), std::string::npos)
        << what;
  }
}

TEST(Ckpt, ResultJsonRoundTripIsBitExact) {
  EngineOptions engine;
  engine.telemetry = true;
  engine.shards = 2;
  const ExperimentResult result = run_cell(corrupt_config(), corrupt_plan(), engine);
  // Through TEXT, not just Json values: the done file lives on disk, so the
  // dump/parse leg is part of the contract (shortest-round-trip doubles).
  const Json reparsed = Json::parse(result_to_json(result).dump());
  const ExperimentResult back = result_from_json(reparsed, "done.json");
  EXPECT_EQ(skew_digest(back), skew_digest(result));
  EXPECT_EQ(counters_digest(back), counters_digest(result));
  EXPECT_EQ(back.thm11_bound, result.thm11_bound);
  EXPECT_EQ(back.global_bound, result.global_bound);
  EXPECT_EQ(back.diameter, result.diameter);
  EXPECT_EQ(back.skew.inter_by_layer, result.skew.inter_by_layer);
  EXPECT_EQ(back.skew.spread_by_layer, result.skew.spread_by_layer);
  if (kObsCompiled) {
    EXPECT_EQ(back.engine_stats.enabled, result.engine_stats.enabled);
    EXPECT_EQ(back.engine_stats.get(ObsCounter::kEventsExecuted),
              result.engine_stats.get(ObsCounter::kEventsExecuted));
    EXPECT_EQ(back.engine_stats.shards.size(), result.engine_stats.shards.size());
    EXPECT_EQ(back.engine_stats.window_events.total(),
              result.engine_stats.window_events.total());
  }

  try {
    result_from_json(Json::parse(R"({"format": "nope"})"), "bad.json");
    FAIL() << "expected CkptError on foreign document";
  } catch (const CkptError& e) {
    EXPECT_NE(std::string(e.what()).find("bad.json"), std::string::npos) << e.what();
  }
}

TEST(Ckpt, CampaignWithCheckpointDirMatchesPlainCampaign) {
  const Scenario scenario = Scenario::from_json(Json::parse(R"({
    "name": "ckpt-tiny",
    "config": {"columns": 6, "layers": 6, "pulses": 10},
    "sweep": {"seed": [1, 2]}
  })"));
  const std::string plain =
      campaign_jsonl(run_campaign(scenario, CampaignOptions{.threads = 1}));

  const auto dir = scratch_dir("campaign");
  CampaignOptions options;
  options.threads = 2;
  options.checkpoint.dir = dir.string();
  options.checkpoint.every = 2.0 * 2000.0;  // two nominal waves of sim time
  const std::string checkpointed = campaign_jsonl(run_campaign(scenario, options));
  EXPECT_EQ(checkpointed, plain);

  // Resume over a fully completed campaign reloads every cell from its done
  // file and still reproduces the bytes.
  options.checkpoint.resume = true;
  const CampaignResult resumed = run_campaign(scenario, options);
  EXPECT_EQ(campaign_jsonl(resumed), plain);
  std::filesystem::remove_all(dir);
}

TEST(Ckpt, AtomicWriteReplacesDurablyAndLeavesNoTemp) {
  // Regression coverage for the write path behind every snapshot: the
  // documented contract is tmp + fsync + rename (the fsync was missing until
  // the static-analysis sweep caught the doc/code mismatch). The durability
  // half is not observable from a unit test, but the atomicity half is:
  // content round-trips, an overwrite replaces the old bytes, and no .tmp
  // file survives either the success or the failure path.
  const auto dir = scratch_dir("atomic-write");
  const std::string path = (dir / "snap.ckpt").string();

  const std::vector<std::uint8_t> first = {0x01, 0x02, 0x03};
  ckpt_write_file_atomic(path, first);
  EXPECT_EQ(ckpt_read_file(path), first);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const std::vector<std::uint8_t> second = {0xFF, 0xEE, 0xDD, 0xCC};
  ckpt_write_file_atomic(path, second);
  EXPECT_EQ(ckpt_read_file(path), second);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  ckpt_write_file_atomic(path, {});  // empty snapshots are legal
  EXPECT_TRUE(ckpt_read_file(path).empty());

  const std::string bad = (dir / "missing-subdir" / "snap.ckpt").string();
  EXPECT_THROW(ckpt_write_file_atomic(bad, second), CkptError);
  EXPECT_FALSE(std::filesystem::exists(bad + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(Ckpt, CellKeyIsStableAndSanitized) {
  EXPECT_EQ(cell_key(0, "base"), "cell-00000-base");
  EXPECT_EQ(cell_key(12, "layers=6/seed=100"), "cell-00012-layers_6_seed_100");
  const std::string long_label(200, 'a');
  EXPECT_LE(cell_key(3, long_label).size(), std::string("cell-00003-").size() + 80);
}

}  // namespace
}  // namespace gtrix
