// perfbench driver: runs one pass of a benchmark workload through the
// simulator's public API and prints one JSON line of measurements.
//
// Everything is measured from outside the library: perfbench_driver times its own
// calls into public functions (World::World, World::run_*,
// World::corrupt_fraction, measure_cell, campaign_jsonl, campaign_summary,
// ...) and reads public counters afterwards. run.py starts one driver
// process per pass, so ru_maxrss is the peak of a process that ran exactly
// one workload pass.
//
// Modes (--mode):
//   pass      untraced timed pass: the product path of run_cell, phase by
//             phase (build, run, measure_cell, JSONL + summary I/O)
//   traced    the same pass with telemetry on, per-wave run_until slices
//             (pending-queue sampling), measure_cell split into its public
//             sub-calls, and a span per call written once at exit
//   campaign  the workload through run_campaign (threads=1): the reference
//             JSONL the phased pass must reproduce byte for byte
//   host      host fingerprint and build guard only
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "obs/rss.hpp"
#include "runner/campaign.hpp"
#include "runner/perf.hpp"
#include "scenario/registry.hpp"

namespace {

using namespace gtrix;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Build guard and host fingerprint.

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerMacro = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitizerMacro = true;
#else
constexpr bool kSanitizerMacro = false;
#endif
#else
constexpr bool kSanitizerMacro = false;
#endif

#ifdef GTRIX_DEBUG_CHECKS
constexpr bool kDebugChecks = true;
#else
constexpr bool kDebugChecks = false;
#endif

/// Empty when this binary may be benchmarked; otherwise the reason not.
std::string build_refusal() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  if (type != "Release") return "CMAKE_BUILD_TYPE is '" + type + "', not Release";
  if (kSanitizerMacro || flags.find("-fsanitize") != std::string::npos) {
    return "sanitizer build (" + flags + ")";
  }
  if (kDebugChecks) return "GTRIX_DEBUG_CHECKS invariant assertions are compiled in";
#ifndef NDEBUG
  return "NDEBUG is not defined (assertions are live)";
#else
  return "";
#endif
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    const std::string s = brand;  // stops at the first NUL
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

double cache_kb(int name) {
  const long v = sysconf(name);
  return v > 0 ? static_cast<double>(v) / 1024.0 : 0.0;
}

Json host_json() {
  Json j = Json::object();
  j.set("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  j.set("cpu_model", cpu_model());
  j.set("l2_kb", cache_kb(_SC_LEVEL2_CACHE_SIZE));
  j.set("l3_kb", cache_kb(_SC_LEVEL3_CACHE_SIZE));
#if defined(__clang__)
  j.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  j.set("compiler", std::string("gcc ") + __VERSION__);
#else
  j.set("compiler", std::string(__VERSION__));
#endif
  j.set("build_type", std::string(PERFBENCH_BUILD_TYPE));
  j.set("gtrix_obs", kObsCompiled);
  j.set("debug_checks", kDebugChecks);
  j.set("sanitizer", kSanitizerMacro);
  j.set("refusal", build_refusal());
  return j;
}

// ---------------------------------------------------------------------------
// Workloads. Each is a list of scenario documents plus an engine shard count;
// the workload seed is added to every cell's config.seed by shifting the
// documents' seeds (config.seed and any "seed" sweep axis), so run_campaign
// and the phased pass expand exactly the same cells.

struct Workload {
  std::vector<Json> docs;
  std::uint32_t shards = 1;
};

Workload make_workload(const std::string& name) {
  Workload w;
  if (name == "paper-suite") {
    for (const char* s : {"quickstart-grid", "table1-comparison", "thm11-logd",
                          "thm12-worstcase-faults", "thm13-random-faults",
                          "fig5-jump-ablation", "thm16-stabilization", "torus-smoke"}) {
      w.docs.push_back(builtin_scenario_doc(s));
    }
  } else if (name == "mega-grid") {
    // scale-grid's 512x512 shape (the working set must stay above L3),
    // shortened through pulses only.
    Json doc = builtin_scenario_doc("scale-grid");
    Json config = doc.at("config");
    config.set("pulses", 8);
    doc.set("config", std::move(config));
    doc.set("name", "mega-grid");
    w.docs.push_back(std::move(doc));
  } else if (name == "stabilization") {
    // scale-stabilization cut down in columns (400 -> 24), 2 engine shards.
    Json doc = builtin_scenario_doc("scale-stabilization");
    Json config = doc.at("config");
    config.set("columns", 24);
    doc.set("config", std::move(config));
    doc.set("name", "stabilization");
    w.docs.push_back(std::move(doc));
    w.shards = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (paper-suite | mega-grid | stabilization)");
  }
  return w;
}

Json shift_seeds(Json doc, std::int64_t offset) {
  Json config = doc.contains("config") ? doc.at("config") : Json::object();
  const Json* seed = config.find("seed");
  config.set("seed", (seed != nullptr ? seed->as_int() : std::int64_t{1}) + offset);
  doc.set("config", std::move(config));
  if (const Json* sweep = doc.find("sweep"); sweep != nullptr && sweep->contains("seed")) {
    Json axes = *sweep;
    Json axis = axes.at("seed");
    if (axis.is_array()) {
      Json shifted = Json::array();
      for (const Json& v : axis.as_array()) shifted.push_back(v.as_int() + offset);
      axis = std::move(shifted);
    } else {
      axis.set("from", axis.at("from").as_int() + offset);
    }
    axes.set("seed", std::move(axis));
    doc.set("sweep", std::move(axes));
  }
  return doc;
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and cell id. In untraced passes only the
// per-layer totals are kept (two clock reads per call, a handful of calls
// per cell); traced passes also keep every span in memory for the trace file.

// Parents (kRun, kMeasure, kIo) and their children have distinct layers, so
// every layer total is a sum of disjoint intervals.
enum Layer : int { kBuild, kRun, kSlice, kCorrupt, kMeasure, kRealign, kSkew,
                   kRecovery, kIo, kIoPart, kExpand, kTeardown, kLayerCount };

class Spans {
 public:
  Spans(bool keep, Clock::time_point origin) : keep_(keep), origin_(origin) {}

  template <class F>
  void time(Layer layer, const char* name, int cell, F&& body) {
    const Clock::time_point t0 = Clock::now();
    int self = -1;
    if (keep_) {
      self = static_cast<int>(spans_.size());
      spans_.push_back({name, us(t0), 0.0, stack_.empty() ? -1 : stack_.back(), cell});
      stack_.push_back(self);
    }
    struct Close {  // closes the span on exceptions too
      Spans& s;
      Layer layer;
      int self;
      Clock::time_point t0;
      ~Close() {
        const Clock::time_point t1 = Clock::now();
        s.total_[layer] += std::chrono::duration<double>(t1 - t0).count();
        if (self >= 0) {
          s.spans_[self].end_us = s.us(t1);
          s.stack_.pop_back();
        }
      }
    } close{*this, layer, self, t0};
    body();
  }

  double total(Layer layer) const { return total_[layer]; }

  /// Chrome trace-event JSON ("X" complete events; parent and cell in args).
  void write(const std::string& path) const {
    Json events = Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Json e = Json::object();
      e.set("name", s.name);
      e.set("ph", "X");
      e.set("pid", 1);
      e.set("tid", 1);
      e.set("ts", s.start_us);
      e.set("dur", s.end_us - s.start_us);
      Json args = Json::object();
      args.set("id", static_cast<std::int64_t>(i));
      args.set("parent", s.parent);
      args.set("cell", s.cell);
      e.set("args", std::move(args));
      events.push_back(std::move(e));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    std::ofstream(path) << doc.dump() << '\n';
  }

 private:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;
    int cell;
  };
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool keep_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  double total_[kLayerCount] = {};
};

// ---------------------------------------------------------------------------
// One pass.

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 1469598103934665603ull) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t logical_events(const ExperimentCounters& c) {
  return c.events_executed - c.delivery_events + c.messages_delivered;
}

/// measure_cell's steps issued one public call at a time, so the traced
/// pass can charge realignment, skew and the recovery scan separately. The
/// traced-vs-untraced JSONL identity check proves it reproduces
/// measure_cell byte for byte.
ExperimentResult measure_split(World& world, const ExperimentConfig& config,
                               const CorruptPlan& corrupt, Spans& spans, int cell) {
  ExperimentResult result;
  result.counters = world.counters();
  result.diameter = world.grid().base().diameter();
  result.thm11_bound = config.params.thm11_bound(result.diameter);
  result.global_bound = config.params.global_skew_bound(result.diameter);
  if (!corrupt.enabled) {
    spans.time(kSkew, "World::skew", cell, [&] { result.skew = world.skew(); });
    result.engine_stats = world.engine_stats();
    return result;
  }
  spans.time(kRealign, "World::realign_labels", cell,
             [&] { result.realign = world.realign_labels(); });
  const auto [lo, hi] = default_window(world.recorder(), config.warmup);
  const Sigma recovered =
      static_cast<Sigma>(corrupt.wave) + static_cast<Sigma>(config.layers) + 6;
  if (recovered > hi) throw std::runtime_error("no post-recovery measurement window");
  spans.time(kSkew, "World::skew_window", cell,
             [&] { result.skew = world.skew_window(std::max(lo, recovered), hi); });
  spans.time(kRecovery, "local_skew_by_sigma", cell, [&] {
    const Sigma scan_lo = static_cast<Sigma>(corrupt.wave);
    const Sigma scan_hi = std::min(hi, recovered + 2);
    world.require_retained(scan_lo, scan_hi + 1, "recovery");
    RecoveryReport& rec = result.recovery;
    rec.enabled = true;
    rec.corrupt_wave = scan_lo;
    rec.scan_hi = scan_hi;
    rec.threshold = result.thm11_bound;
    rec.local_by_wave = local_skew_by_sigma(world.trace(), scan_lo, scan_hi);
    Sigma last_violation = scan_lo - 1;
    for (std::size_t i = 0; i < rec.local_by_wave.size(); ++i) {
      const double v = rec.local_by_wave[i];
      if (!std::isnan(v) && v > rec.threshold) last_violation = scan_lo + static_cast<Sigma>(i);
    }
    rec.recovered = last_violation < scan_hi;
    rec.recovered_wave = last_violation + 1;
  });
  result.engine_stats = world.engine_stats();
  return result;
}

/// Per-layer counters summed (or maxed) over a pass's cells.
struct LayerCounters {
  std::uint64_t scheduled = 0, cancels = 0, rebuilds = 0, purged = 0;
  std::uint64_t delivered = 0, delivery_events = 0, envelopes_drained = 0;
  std::uint64_t pulses_recorded = 0, pinned_pulses = 0, stream_bytes_max = 0;
  std::uint64_t shard_windows = 0;
  double shard_busy_s = 0.0, shard_wait_s = 0.0;
  std::uint64_t pending_max = 0;
  double build_mb_max = 0.0;
  ExperimentCounters core;
};

Json run_pass(const std::string& workload_name, std::int64_t offset, bool traced,
              std::uint32_t shards_override, const std::string& out_dir) {
  const Clock::time_point started = Clock::now();
  Spans spans(traced, started);
  const Workload workload = make_workload(workload_name);
  EngineOptions engine;
  engine.shards = shards_override != 0 ? shards_override : workload.shards;
  engine.telemetry = traced;

  std::vector<std::string> digests;
  std::uint64_t failed = 0, logical = 0, io_bytes = 0;
  std::uint32_t nodes_max = 0;
  double rss_before_mb = -1.0;
  LayerCounters lc;
  std::string jsonl_all;  // engine_stats-free JSONL of every scenario, for hashing
  std::vector<CampaignResult> traced_campaigns;  // hashed after the wall clock stops
  int cell_id = 0;

  for (const Json& base_doc : workload.docs) {
    CampaignResult campaign;
    std::vector<ScenarioCell> cells;
    spans.time(kExpand, "Scenario::cells", -1, [&] {
      const Scenario scenario = Scenario::from_json(shift_seeds(base_doc, offset));
      campaign.scenario = scenario.name();
      cells = scenario.cells();
    });
    campaign.threads_used = 1;
    campaign.shards_used = engine.shards;
    const Clock::time_point scenario_start = Clock::now();
    for (ScenarioCell& cell : cells) {
      const int id = cell_id++;
      CampaignCell out;
      out.label = cell.label;
      out.config = cell.config;
      out.corrupt = cell.corrupt;
      try {
        if (rss_before_mb < 0.0) rss_before_mb = current_rss_mb();
        std::unique_ptr<World> world;
        const double rss0 = traced ? current_rss_mb() : 0.0;
        spans.time(kBuild, "World::World", id,
                   [&] { world = std::make_unique<World>(cell.config, engine); });
        if (traced) lc.build_mb_max = std::max(lc.build_mb_max, current_rss_mb() - rss0);
        nodes_max = std::max(nodes_max, world->grid().node_count());
        const CorruptPlan& corrupt = cell.corrupt;
        const double lambda = cell.config.params.lambda;
        // Traced passes run per-wave run_until slices and sample the pending
        // queue between them (shard 0's queue: the full queue when serial).
        // Slicing stops well past the last pulse; run_to_completion then
        // drains whatever is left (a no-op when the queue is already idle).
        const double slice_end = static_cast<double>(cell.config.pulses + 64) * lambda;
        double next_slice = lambda;
        const auto run_slices_to = [&](double deadline) {
          while (!world->idle() && next_slice < deadline && next_slice <= slice_end) {
            spans.time(kSlice, "World::run_until", id, [&] { world->run_until(next_slice); });
            lc.pending_max = std::max<std::uint64_t>(lc.pending_max,
                                                      world->simulator().pending_events());
            next_slice += lambda;
          }
          if (std::isfinite(deadline)) {
            spans.time(kSlice, "World::run_until", id, [&] { world->run_until(deadline); });
            while (next_slice <= deadline) next_slice += lambda;
          } else {
            spans.time(kSlice, "World::run_to_completion", id,
                       [&] { world->run_to_completion(); });
          }
        };
        spans.time(kRun, "run", id, [&] {
          if (corrupt.enabled) {
            world->set_corruption_anchor(corrupt.wave);
            Rng rng(cell.config.seed ^ 0xFEED);  // run_cell's derivation
            if (traced) {
              run_slices_to(corrupt.wave * lambda);
            } else {
              world->run_until(corrupt.wave * lambda);
            }
            spans.time(kCorrupt, "World::corrupt_fraction", id,
                       [&] { world->corrupt_fraction(corrupt.fraction, rng); });
          }
          if (traced) {
            run_slices_to(std::numeric_limits<double>::infinity());
          } else {
            world->run_to_completion();
          }
        });
        spans.time(kMeasure, "measure_cell", id, [&] {
          out.result = traced ? measure_split(*world, cell.config, corrupt, spans, id)
                              : measure_cell(*world, cell.config, corrupt);
        });
        if (traced) {
          const EngineStats& es = out.result.engine_stats;
          lc.scheduled += es.get(ObsCounter::kEventsScheduled);
          lc.cancels += es.get(ObsCounter::kTimerCancels);
          lc.rebuilds += es.get(ObsCounter::kCalendarRebuilds);
          lc.purged += es.get(ObsCounter::kEventsPurged);
          lc.envelopes_drained += es.get(ObsCounter::kEnvelopesDrained);
          lc.pulses_recorded += es.get(ObsCounter::kPulsesRecorded);
          lc.pinned_pulses += es.get(ObsCounter::kCorruptPinnedPulses);
          lc.shard_windows += es.get(ObsCounter::kShardWindows);
          for (const EngineShardStats& s : es.shards) {
            lc.shard_busy_s += s.busy_seconds;
            lc.shard_wait_s += s.barrier_wait_seconds;
          }
          if (world->streaming() != nullptr) {
            lc.stream_bytes_max = std::max(lc.stream_bytes_max, world->streaming()->memory_bytes());
          }
        }
        spans.time(kTeardown, "World::~World", id, [&] { world.reset(); });
        const ExperimentCounters& c = out.result.counters;
        logical += logical_events(c);
        lc.delivered += c.messages_delivered;
        lc.delivery_events += c.delivery_events;
        lc.core.iterations += c.iterations;
        lc.core.timeout_branches += c.timeout_branches;
        lc.core.watchdog_resets += c.watchdog_resets;
        lc.core.duplicate_drops += c.duplicate_drops;
        lc.core.late_broadcasts += c.late_broadcasts;
        lc.core.guard_aborts += c.guard_aborts;
        digests.push_back(skew_digest(out.result));
      } catch (const std::exception& e) {
        ++failed;
        digests.push_back(std::string("error: ") + e.what());
      }
      campaign.cells.push_back(std::move(out));
    }
    campaign.wall_seconds =
        std::chrono::duration<double>(Clock::now() - scenario_start).count();
    spans.time(kIo, "io", -1, [&] {
      std::string jsonl;
      std::string summary;
      spans.time(kIoPart, "campaign_jsonl", -1, [&] { jsonl = campaign_jsonl(campaign); });
      spans.time(kIoPart, "campaign_summary", -1,
                 [&] { summary = campaign_summary(campaign).dump(2) + "\n"; });
      spans.time(kIoPart, "write", -1, [&] {
        const std::string stem = out_dir + "/" + campaign.scenario;
        std::ofstream(stem + ".jsonl", std::ios::binary) << jsonl;
        std::ofstream(stem + ".summary.json", std::ios::binary) << summary;
      });
      io_bytes += jsonl.size() + summary.size();
      if (!traced) jsonl_all += jsonl;
    });
    if (traced) traced_campaigns.push_back(std::move(campaign));
  }
  const double wall_s = std::chrono::duration<double>(Clock::now() - started).count();
  for (CampaignResult& campaign : traced_campaigns) {  // without the telemetry block
    for (CampaignCell& cell : campaign.cells) cell.result.engine_stats = EngineStats{};
    jsonl_all += campaign_jsonl(campaign);
  }

  Json j = Json::object();
  j.set("workload", workload_name);
  j.set("seed_offset", offset);
  j.set("traced", traced);
  j.set("shards", engine.shards);
  j.set("cells", static_cast<std::int64_t>(digests.size()));
  j.set("failed", failed);
  j.set("wall_s", wall_s);
  j.set("setup_s", spans.total(kBuild));
  j.set("run_s", spans.total(kRun));
  j.set("measure_s", spans.total(kMeasure));
  j.set("logical_events", logical);
  j.set("messages_delivered", lc.delivered);
  j.set("nodes_max", nodes_max);
  j.set("rss_before_mb", rss_before_mb);
  j.set("peak_rss_mb", peak_rss_mb());
  j.set("jsonl_hash", hex(fnv1a(jsonl_all)));
  Json d = Json::array();
  for (const std::string& s : digests) d.push_back(s);
  j.set("digests", std::move(d));
  if (traced) {
    Json l = Json::object();
    l.set("runner.build_s", spans.total(kBuild));
    l.set("runner.build_mb", lc.build_mb_max);
    l.set("runner.run_s", spans.total(kRun));
    l.set("runner.io_s", spans.total(kIo));
    l.set("runner.io_bytes", io_bytes);
    l.set("runner.teardown_s", spans.total(kTeardown));
    l.set("runner.expand_s", spans.total(kExpand));
    l.set("runner.corrupt_s", spans.total(kCorrupt));
    l.set("metrics.measure_s", spans.total(kMeasure));
    l.set("metrics.realign_s", spans.total(kRealign));
    l.set("metrics.skew_s", spans.total(kSkew));
    l.set("metrics.recovery_s", spans.total(kRecovery));
    l.set("sim.events_scheduled", lc.scheduled);
    l.set("sim.events_cancelled", lc.cancels);
    l.set("sim.events_purged", lc.purged);
    l.set("sim.calendar_rebuilds", lc.rebuilds);
    l.set("sim.pending_max", lc.pending_max);
    l.set("sim.logical_events", logical);
    l.set("net.messages_delivered", lc.delivered);
    l.set("net.delivery_events", lc.delivery_events);
    l.set("net.envelopes_drained", lc.envelopes_drained);
    l.set("core.iterations", lc.core.iterations);
    l.set("core.timeout_branches", lc.core.timeout_branches);
    l.set("core.watchdog_resets", lc.core.watchdog_resets);
    l.set("core.duplicate_drops", lc.core.duplicate_drops);
    l.set("core.late_broadcasts", lc.core.late_broadcasts);
    l.set("core.guard_aborts", lc.core.guard_aborts);
    l.set("metrics.pulses_recorded", lc.pulses_recorded);
    l.set("metrics.pinned_pulses", lc.pinned_pulses);
    l.set("metrics.stream_bytes", lc.stream_bytes_max);
    l.set("shard.busy_s", lc.shard_busy_s);
    l.set("shard.barrier_wait_s", lc.shard_wait_s);
    l.set("shard.windows", lc.shard_windows);
    j.set("layers", std::move(l));
    spans.write(out_dir + "/spans.trace.json");
  }
  return j;
}

/// The workload through the product entry point, for the JSONL identity check.
Json run_campaign_mode(const std::string& workload_name, std::int64_t offset) {
  const Workload workload = make_workload(workload_name);
  CampaignOptions options;
  options.threads = 1;
  options.shards = workload.shards;
  std::string jsonl_all;
  std::vector<std::string> digests;
  Json totals = Json::object();
  for (const Json& doc : workload.docs) {
    const CampaignResult r = run_campaign(Scenario::from_json(shift_seeds(doc, offset)), options);
    jsonl_all += campaign_jsonl(r);
    std::uint64_t logical = 0, delivered = 0;
    for (const CampaignCell& cell : r.cells) {
      digests.push_back(skew_digest(cell.result));
      logical += logical_events(cell.result.counters);
      delivered += cell.result.counters.messages_delivered;
    }
    Json t = Json::object();
    t.set("logical_events", logical);
    t.set("messages_delivered", delivered);
    totals.set(r.scenario, std::move(t));
  }
  Json j = Json::object();
  j.set("workload", workload_name);
  j.set("seed_offset", offset);
  j.set("jsonl_hash", hex(fnv1a(jsonl_all)));
  Json d = Json::array();
  for (const std::string& s : digests) d.push_back(s);
  j.set("digests", std::move(d));
  j.set("scenarios", std::move(totals));
  return j;
}

std::string flag(int argc, char** argv, const std::string& name, const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == "--" + name) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = flag(argc, argv, "mode", "pass");
    if (mode == "host") {
      std::cout << host_json().dump() << '\n';
      return 0;
    }
    if (const std::string refusal = build_refusal(); !refusal.empty()) {
      std::cerr << "perfbench_driver: refusing to benchmark: " << refusal << '\n';
      return 3;
    }
    const std::string workload = flag(argc, argv, "workload", "");
    const std::int64_t offset = std::stoll(flag(argc, argv, "seed-offset", "0"));
    const std::string out_dir = flag(argc, argv, "out", ".");
    const auto shards = static_cast<std::uint32_t>(std::stoul(flag(argc, argv, "shards", "0")));
    Json result;
    if (mode == "pass" || mode == "traced") {
      std::filesystem::create_directories(out_dir);
      result = run_pass(workload, offset, mode == "traced", shards, out_dir);
    } else if (mode == "campaign") {
      result = run_campaign_mode(workload, offset);
    } else {
      throw std::invalid_argument("unknown --mode '" + mode + "'");
    }
    std::cout << result.dump() << '\n';
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 2;
  }
}
