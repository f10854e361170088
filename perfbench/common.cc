#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

CpuPin::CpuPin(int index) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  int cpu = -1;
  for (int seen = 0, want = index % CPU_COUNT(&saved_); seen <= want;) {
    if (CPU_ISSET(++cpu, &saved_)) ++seen;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

bool ScoresWellFormed(const std::vector<double>& scores, int num_edges) {
  if (static_cast<int>(scores.size()) != num_edges) return false;
  for (double s : scores) {
    if (!std::isfinite(s)) return false;
  }
  return true;
}

namespace {

// The module a span's time is charged to: the part of its name before the
// first '.', with the program's explainer and ParallelFor span prefixes
// mapped to their modules.
std::string ModuleOf(const std::string& span_name) {
  const std::string prefix = span_name.substr(0, span_name.find('.'));
  if (prefix == "revelio" || prefix == "gnnexplainer" || prefix == "flowx" ||
      prefix == "subgraphx") {
    return "explain";
  }
  if (prefix == "ParallelFor") return "util";
  return prefix;
}

}  // namespace

// Per thread; at about 90 bytes a span, 4 threads keep at most about 90 MB.
constexpr size_t kTraceWindowSpans = size_t{1} << 18;

void OpenTraceWindow() {
  revelio::obs::TraceRecorder& recorder = revelio::obs::TraceRecorder::Global();
  recorder.SetMaxEventsPerThread(kTraceWindowSpans);
  recorder.Clear();
}

void CloseTraceWindow(const std::string& what, WorkloadResult* result) {
  revelio::obs::TraceRecorder& recorder = revelio::obs::TraceRecorder::Global();
  const uint64_t dropped = recorder.dropped_events();
  // A log at its cap keeps nothing more; 1 is the smallest cap there is.
  recorder.SetMaxEventsPerThread(1);
  result->report.push_back(
      {"trace_window", "{\"what\":\"" + revelio::obs::JsonWriter::Escape(what) +
                           "\",\"dropped\":" + std::to_string(dropped) + "}"});
}

bool WriteTrace(const std::string& path, const std::vector<RequestTrace>& requests) {
  revelio::obs::JsonWriter recorded;
  revelio::obs::TraceRecorder::Global().AppendChromeTrace(&recorded);
  std::string doc = recorded.str();
  // The recorder's document ends with its traceEvents array and the object;
  // the request tracks are appended to that array.
  if (doc.size() < 2 || doc.compare(doc.size() - 2, 2, "]}") != 0) return false;
  doc.resize(doc.size() - 2);
  // Benchmark timestamps on the recorder's time base (both steady_clock).
  const double offset_us =
      revelio::obs::TraceRecorder::NowMicros() - static_cast<double>(NowNanos()) * 1e-3;
  auto event = [&](const char* name, const RequestTrace& r, double start_us, double end_us) {
    revelio::obs::JsonWriter w;
    w.BeginObject();
    w.Key("name");
    w.String(name);
    w.Key("cat");
    w.String("request");
    w.Key("ph");
    w.String("X");
    w.Key("ts");
    w.Double(start_us + offset_us);
    w.Key("dur");
    w.Double(end_us - start_us);
    w.Key("pid");
    w.Int(1);
    w.Key("tid");
    w.Uint(r.request_id);
    w.Key("args");
    w.BeginObject();
    w.Key("request_id");
    w.Uint(r.request_id);
    w.EndObject();
    w.EndObject();
    doc += "," + w.str();
  };
  for (const RequestTrace& r : requests) {
    const double due = static_cast<double>(r.due_ns) * 1e-3;
    const double submit = static_cast<double>(r.submit_ns) * 1e-3;
    const double admitted = static_cast<double>(r.admitted_ns) * 1e-3;
    const double dequeued = admitted + r.queue_seconds * 1e6;
    const double run_end = dequeued + r.run_seconds * 1e6;
    const double done = static_cast<double>(r.done_ns) * 1e-3;
    event("serve.request", r, due, done);
    event("serve.TrySubmit", r, submit, admitted);
    event("serve.queue", r, admitted, dequeued);
    event("serve.run", r, dequeued, run_end);
    event("serve.respond", r, run_end, std::max(run_end, done));
  }
  doc += "]}\n";
  std::ofstream out(path);
  out << doc;
  return static_cast<bool>(out);
}

std::map<std::string, double> SelfMsByModule() {
  const std::vector<revelio::obs::TraceEvent> events =
      revelio::obs::TraceRecorder::Global().Consolidated();
  // Spans nest within a thread, and Consolidated() orders parents before
  // their children, so an open-span stack per thread finds each parent.
  std::vector<double> child_us(events.size(), 0.0);
  std::map<int, std::vector<std::pair<double, size_t>>> open;  // tid -> (end, index)
  for (size_t i = 0; i < events.size(); ++i) {
    auto& stack = open[events[i].tid];
    while (!stack.empty() && stack.back().first <= events[i].start_us) stack.pop_back();
    if (!stack.empty()) child_us[stack.back().second] += events[i].dur_us;
    stack.push_back({events[i].start_us + events[i].dur_us, i});
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < events.size(); ++i) {
    self_ms[ModuleOf(events[i].name)] += std::max(0.0, events[i].dur_us - child_us[i]) * 1e-3;
  }
  return self_ms;
}

ObsReading ReadObs() {
  const revelio::obs::MetricsSnapshot snapshot =
      revelio::obs::MetricsRegistry::Global().Snapshot();
  ObsReading reading;
  for (const auto& [name, value] : snapshot.counters) reading[name] = static_cast<double>(value);
  for (const auto& [name, value] : snapshot.gauges) reading[name] = value;
  return reading;
}

double ObsValue(const ObsReading& reading, const std::string& name) {
  auto it = reading.find(name);
  return it == reading.end() ? 0.0 : it->second;
}

double ObsDelta(const ObsReading& after, const ObsReading& before, const std::string& name) {
  return ObsValue(after, name) - ObsValue(before, name);
}

std::string JsonArray(const std::vector<double>& values) {
  revelio::obs::JsonWriter w;
  w.BeginArray();
  for (double v : values) w.Double(v);
  w.EndArray();
  return w.str();
}

void AccumulateObs(const ObsReading& after, const ObsReading& before, ObsReading* sum) {
  for (const auto& [name, value] : after) (*sum)[name] += value - ObsValue(before, name);
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace perfbench
