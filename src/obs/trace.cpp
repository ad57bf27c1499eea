#include "obs/trace.hpp"

#include <thread>
#include <utility>

namespace gtrix {

void TraceCollector::add_complete(std::uint32_t pid, std::uint32_t tid, std::string name,
                                  double ts_us, double dur_us, std::int64_t arg_events) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{pid, tid, std::move(name), ts_us, dur_us, arg_events});
}

void TraceCollector::set_process_name(std::uint32_t pid, std::string name) {
  set_name(false, pid, 0, std::move(name));
}

void TraceCollector::set_thread_name(std::uint32_t pid, std::uint32_t tid,
                                     std::string name) {
  set_name(true, pid, tid, std::move(name));
}

void TraceCollector::set_name(bool is_thread, std::uint32_t pid, std::uint32_t tid,
                              std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Name& n : names_) {
    if (n.is_thread == is_thread && n.pid == pid && n.tid == tid) {
      n.name = std::move(name);
      return;
    }
  }
  names_.push_back(Name{is_thread, pid, tid, std::move(name)});
}

std::uint32_t TraceCollector::tid_for_current_thread() {
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [id, tid] : thread_tids_) {
    if (id == self) return tid;
  }
  const std::uint32_t tid = static_cast<std::uint32_t>(thread_tids_.size());
  thread_tids_.emplace_back(self, tid);
  return tid;
}

std::size_t TraceCollector::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size() + names_.size();
}

Json TraceCollector::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json events = Json::array();
  // Metadata first: viewers apply process/thread names to subsequent rows.
  for (const Name& n : names_) {
    Json m = Json::object();
    m.set("name", n.is_thread ? "thread_name" : "process_name");
    m.set("ph", "M");
    m.set("pid", n.pid);
    if (n.is_thread) m.set("tid", n.tid);
    Json args = Json::object();
    args.set("name", n.name);
    m.set("args", std::move(args));
    events.push_back(std::move(m));
  }
  for (const Span& s : spans_) {
    Json e = Json::object();
    e.set("name", s.name);
    e.set("cat", "sim");
    e.set("ph", "X");
    e.set("ts", s.ts_us);
    e.set("dur", s.dur_us);
    e.set("pid", s.pid);
    e.set("tid", s.tid);
    if (s.arg_events >= 0) {
      Json args = Json::object();
      args.set("events", s.arg_events);
      e.set("args", std::move(args));
    }
    events.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

}  // namespace gtrix
