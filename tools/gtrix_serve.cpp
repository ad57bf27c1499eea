// gtrix_serve: long-running campaign job-queue service (docs/checkpointing.md).
//
//   gtrix_serve --spool=SPOOL                 poll SPOOL/jobs/ forever
//   gtrix_serve --spool=SPOOL --once          drain the queue, then exit
//   gtrix_serve --spool=SPOOL --stdin         accept jobs as JSON lines
//
// Jobs are scenario documents dropped into SPOOL/jobs/<name>.json (or
// submitted over stdin as {"name": ..., "scenario": {...}}). Results land in
// SPOOL/results/ -- <name>.jsonl plus <name>.summary.json, the summary being
// the completion marker. Cells checkpoint into SPOOL/state/<name>/ while
// running, so the server can be SIGKILLed at any instant and restarted:
// completed jobs are never re-run (their bytes stay untouched), interrupted
// jobs resume from their newest snapshots and reproduce the exact output an
// uninterrupted run would have written.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "obs/telemetry.hpp"
#include "runner/serve.hpp"
#include "support/flags.hpp"

namespace gtrix {
namespace {

Usage make_usage(const std::string& program) {
  Usage usage(program, "Serve Gradient TRIX campaign jobs from a spool directory.");
  usage.flag("--spool=DIR",
             "spool root: jobs/ queue, state/ checkpoints, results/ outputs "
             "(created if missing)");
  usage.flag("--threads=N", "sweep worker threads per job (default 0 = all cores)");
  usage.flag("--shards=N", "engine shards per cell (default 0 = scenario default)");
  usage.flag("--checkpoint-every=T",
             "simulated time between per-cell snapshots (default 4000 = two "
             "nominal waves)");
  usage.flag("--telemetry", "harvest engine telemetry per job (docs/observability.md)");
  usage.flag("--progress=SECONDS",
             "live heartbeat on stderr every SECONDS (bare --progress = 2)");
  usage.flag("--once", "process every queued job, then exit instead of polling");
  usage.flag("--poll-seconds=S", "queue re-scan cadence when idle (default 1)");
  usage.flag("--stdin",
             "accept jobs as JSON lines on stdin ({\"name\": ..., \"scenario\": "
             "{...}}); each is spooled atomically, then run; EOF drains and exits");
  usage.flag("--help", "show this help");
  return usage;
}

int run(int argc, char** argv) {
  const Flags flags(argc, argv, {"help", "telemetry", "once", "stdin", "progress"});
  const Usage usage = make_usage(flags.program());
  const std::vector<std::string> known = usage.flag_names();
  for (const std::string& name : flags.names()) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "error: unknown flag --%s (see --help)\n", name.c_str());
      return 2;
    }
  }
  if (flags.get_bool("help", false)) {
    std::fputs(usage.str().c_str(), stdout);
    return 0;
  }
  if (!flags.positional().empty()) {
    std::fprintf(stderr, "error: unexpected argument '%s' (jobs are spooled, not given "
                 "on the command line; see --help)\n",
                 flags.positional().front().c_str());
    return 2;
  }

  ServeOptions options;
  options.spool = flags.get_string("spool", "");
  if (options.spool.empty() || options.spool == "true") {
    std::fputs("error: --spool requires a directory (--spool=DIR)\n", stderr);
    return 2;
  }
  const std::int64_t threads = flags.get_int("threads", 0);
  if (threads < 0 || threads > 1024) {
    std::fprintf(stderr, "error: --threads must be in [0, 1024], got %lld\n",
                 static_cast<long long>(threads));
    return 2;
  }
  options.threads = static_cast<unsigned>(threads);
  const std::int64_t shards = flags.get_int("shards", 0);
  if (shards < 0 || shards > 4096) {
    std::fprintf(stderr, "error: --shards must be in [0, 4096], got %lld\n",
                 static_cast<long long>(shards));
    return 2;
  }
  options.shards = static_cast<std::uint32_t>(shards);
  if (flags.has("checkpoint-every")) {
    options.checkpoint_every = flags.get_double("checkpoint-every", 0.0);
    if (!(options.checkpoint_every > 0.0)) {
      std::fputs("error: --checkpoint-every needs a positive simulated-time interval\n",
                 stderr);
      return 2;
    }
  }
  options.telemetry = flags.get_bool("telemetry", false);
  if (!kObsCompiled && options.telemetry) {
    std::fputs("error: this binary was built with GTRIX_OBS=OFF; rebuild with "
               "telemetry compiled in to use --telemetry\n",
               stderr);
    return 2;
  }
  if (flags.has("progress")) {
    const std::string raw = flags.get_string("progress", "");
    options.progress_seconds = raw == "true" ? 2.0 : flags.get_double("progress", 2.0);
    if (!(options.progress_seconds > 0.0)) {
      std::fputs("error: --progress needs a positive interval in seconds\n", stderr);
      return 2;
    }
  }
  options.once = flags.get_bool("once", false);
  if (flags.has("poll-seconds")) {
    options.poll_seconds = flags.get_double("poll-seconds", 1.0);
    if (!(options.poll_seconds > 0.0)) {
      std::fputs("error: --poll-seconds needs a positive interval\n", stderr);
      return 2;
    }
  }
  const bool use_stdin = flags.get_bool("stdin", false);

  const ServeReport report =
      run_serve(options, use_stdin ? &std::cin : nullptr, std::cout);
  // Failed jobs are recorded and reported, not fatal to the SERVICE -- but a
  // drain that saw failures still exits nonzero so CI notices.
  return report.failed > 0 ? 1 : 0;
}

}  // namespace
}  // namespace gtrix

int main(int argc, char** argv) {
  try {
    return gtrix::run(argc, argv);
  } catch (const gtrix::CkptError& e) {
    std::fprintf(stderr, "gtrix_serve: %s\n", e.what());
    return 2;
  } catch (const gtrix::FlagError& e) {
    // A malformed flag value ("--threads=abc") is a usage error like an
    // out-of-range one.
    std::fprintf(stderr, "gtrix_serve: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gtrix_serve: %s\n", e.what());
    return 1;
  }
}
