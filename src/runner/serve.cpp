#include "runner/serve.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <istream>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/codec.hpp"
#include "runner/campaign.hpp"
#include "scenario/spec.hpp"
#include "support/json.hpp"

namespace gtrix {

namespace {

namespace fs = std::filesystem;

void write_text_atomic(const fs::path& path, const std::string& text) {
  ckpt_write_file_atomic(path.string(), std::vector<std::uint8_t>(text.begin(), text.end()));
}

bool valid_job_name(const std::string& name) {
  if (name.empty() || name.size() > 128 || name.front() == '.') return false;
  for (const char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '.' || ch == '_' || ch == '-';
    if (!ok) return false;
  }
  return true;
}

class ServeLoop {
 public:
  ServeLoop(const ServeOptions& options, std::ostream& events)
      : options_(options), events_(events), root_(options.spool) {
    fs::create_directories(root_ / "jobs");
    fs::create_directories(root_ / "state");
    fs::create_directories(root_ / "results");
  }

  void emit(const char* event, Json fields) {
    fields.set("event", event);
    events_ << fields.dump() << "\n";
    events_.flush();
  }

  /// One pass over jobs/, sorted by name; processes everything not yet
  /// complete. Returns the number of jobs actually executed this pass.
  std::size_t drain() {
    std::vector<fs::path> queued;
    for (const auto& entry : fs::directory_iterator(root_ / "jobs")) {
      if (entry.path().extension() == ".json") queued.push_back(entry.path());
    }
    std::sort(queued.begin(), queued.end());
    std::size_t executed = 0;
    for (const fs::path& job : queued) executed += process(job) ? 1 : 0;
    return executed;
  }

  /// Materializes one stdin-protocol line as a spooled job file. The file
  /// lands atomically BEFORE processing, so a crash between accept and run
  /// leaves a queued job, never a lost one.
  void submit(const std::string& line) {
    std::string name;
    try {
      const Json doc = Json::parse(line);
      name = doc.at("name").as_string();
      if (!valid_job_name(name)) {
        throw std::runtime_error("invalid job name '" + name +
                                 "' (use [A-Za-z0-9._-], not starting with '.')");
      }
      write_text_atomic(root_ / "jobs" / (name + ".json"),
                        doc.at("scenario").dump(2) + "\n");
    } catch (const std::exception& e) {
      ++report_.failed;
      Json j = Json::object();
      j.set("job", name);
      j.set("error", std::string(e.what()));
      emit("job_rejected", std::move(j));
    }
  }

  const ServeReport& report() const { return report_; }

 private:
  bool process(const fs::path& job_path) {
    const std::string name = job_path.stem().string();
    const fs::path summary_path = root_ / "results" / (name + ".summary.json");
    const fs::path error_path = root_ / "results" / (name + ".error.json");
    if (fs::exists(summary_path)) {
      if (announced_.insert(name).second) {
        ++report_.skipped;
        Json j = Json::object();
        j.set("job", name);
        j.set("reason", "already complete");
        emit("job_skipped", std::move(j));
      }
      return false;
    }
    if (fs::exists(error_path)) {
      // A job that failed once fails the same way again (jobs are
      // deterministic); the marker stops a restart loop from burning CPU on
      // it forever. Deleting the marker re-queues the job.
      if (announced_.insert(name).second) {
        ++report_.skipped;
        Json j = Json::object();
        j.set("job", name);
        j.set("reason", "failed earlier (delete the error file to retry)");
        emit("job_skipped", std::move(j));
      }
      return false;
    }

    announced_.insert(name);
    {
      Json j = Json::object();
      j.set("job", name);
      emit("job_start", std::move(j));
    }
    try {
      const Scenario scenario = Scenario::from_file(job_path.string());
      CampaignOptions campaign;
      campaign.threads = options_.threads;
      campaign.shards = options_.shards;
      campaign.telemetry = options_.telemetry;
      campaign.progress_seconds = options_.progress_seconds;
      campaign.checkpoint.dir = (root_ / "state" / name).string();
      campaign.checkpoint.every = options_.checkpoint_every;
      // Always resume: state/<name>/ only holds artifacts if an earlier
      // attempt (this process or a killed predecessor) made progress, and
      // reusing them is exactly the crash-restart contract.
      campaign.checkpoint.resume = true;
      const CampaignResult result = run_campaign(scenario, campaign);

      write_text_atomic(root_ / "results" / (name + ".jsonl"), campaign_jsonl(result));
      const Json summary = campaign_summary(result);
      // Summary last: its existence is the completion marker, so it must
      // only appear once the JSONL is already in place.
      write_text_atomic(summary_path, summary.dump(2) + "\n");

      ++report_.completed;
      Json j = Json::object();
      j.set("job", name);
      j.set("scenario", result.scenario);
      j.set("cells", static_cast<std::int64_t>(result.cells.size()));
      j.set("wall_seconds", result.wall_seconds);
      emit("job_done", std::move(j));
      return true;
    } catch (const std::exception& e) {
      ++report_.failed;
      Json marker = Json::object();
      marker.set("job", name);
      marker.set("error", std::string(e.what()));
      write_text_atomic(error_path, marker.dump(2) + "\n");
      Json j = Json::object();
      j.set("job", name);
      j.set("error", std::string(e.what()));
      emit("job_failed", std::move(j));
      return true;
    }
  }

  const ServeOptions& options_;
  std::ostream& events_;
  fs::path root_;
  std::set<std::string> announced_;
  ServeReport report_;
};

}  // namespace

ServeReport run_serve(const ServeOptions& options, std::istream* jobs_in,
                      std::ostream& events) {
  ServeLoop loop(options, events);
  {
    Json j = Json::object();
    j.set("spool", options.spool);
    j.set("threads", options.threads);
    j.set("shards", options.shards);
    j.set("checkpoint_every", options.checkpoint_every);
    j.set("mode", jobs_in != nullptr ? "stdin" : (options.once ? "once" : "poll"));
    loop.emit("serve_start", std::move(j));
  }

  while (true) {
    loop.drain();
    if (jobs_in != nullptr) {
      std::string line;
      if (!std::getline(*jobs_in, line)) break;  // EOF: drain happened above
      if (!line.empty()) loop.submit(line);
      continue;
    }
    if (options.once) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(options.poll_seconds));
  }

  {
    Json j = Json::object();
    j.set("completed", static_cast<std::int64_t>(loop.report().completed));
    j.set("skipped", static_cast<std::int64_t>(loop.report().skipped));
    j.set("failed", static_cast<std::int64_t>(loop.report().failed));
    loop.emit("serve_idle", std::move(j));
  }
  return loop.report();
}

}  // namespace gtrix
