#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the end-to-end benchmark: clocks and order statistics,
// the result record every workload fills, the traced run's trace output, and
// readings of the program's obs registry.

#include <sched.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// steady_clock nanoseconds: the clock serve::MonotonicClock reads, so
// benchmark timestamps and server-reported intervals share one time base.
int64_t NowNanos();

// Nearest-rank percentile, q in [0, 1]: the smallest sample with at least
// q * n samples at or below it. 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Process high-water resident set size (getrusage), MB.
double PeakRssMb();

// Pins the calling thread to the index-th CPU (modulo their count) of its
// affinity mask, and restores the mask when destroyed. The host's CPUs slow
// down independently and can stay slow for longer than a run (README.md,
// "Noise"). A thread the scheduler leaves on one CPU would time every
// repeat of a measurement there; repeats that take turns over the CPUs let
// the fastest one escape a slow CPU. Threads started while pinned inherit
// the pin, so no thread may be started inside one.
class CpuPin {
 public:
  explicit CpuPin(int index);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

// True when every score is finite and there is one per edge.
bool ScoresWellFormed(const std::vector<double>& scores, int num_edges);

// Tracing. The traced run enables the program's obs registry, so the
// benchmark's spans around its calls into each module (obs::ScopedSpan,
// named "<module>.<call>") land in obs::TraceRecorder beside the program's
// own spans. A served request's intervals cannot be spans: they are rebuilt
// after the fact from the benchmark's timestamps and the intervals the
// server reports.
struct RequestTrace {
  uint64_t request_id = 0;
  int64_t due_ns = 0;       // when the schedule made it due
  int64_t submit_ns = 0;    // TrySubmit called
  int64_t admitted_ns = 0;  // TrySubmit returned
  double queue_seconds = 0.0;  // server-reported: admission -> dequeue
  double run_seconds = 0.0;    // server-reported: explainer execution
  int64_t done_ns = 0;      // the benchmark saw the response ready
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports. `metrics` holds the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run); `report` holds
// further JSON-valued details printed on the report line.
struct WorkloadResult {
  std::vector<std::string> check_failures;  // empty when every output check passed
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> report;
  std::vector<RequestTrace> requests;  // served requests, traced run only

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string why) { check_failures.push_back(std::move(why)); }
};

// One benchmark run as the command line asks for it.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured phase
  bool trace = false;     // per-layer (traced) run instead of end-to-end
  int nproc = 1;          // thread budget: every thread the run starts counts
};

// The traced run keeps spans for one window of the run: the recorder's
// per-thread logs hold about a second of the workload's spans, not a whole
// run. Opening drops every span kept so far; closing stops keeping more and
// reports the spans the window's cap dropped.
void OpenTraceWindow();
void CloseTraceWindow(const std::string& what, WorkloadResult* result);

// Writes the recorder's events and one track per served request (pid 1,
// tid = request id; every interval of a request carries its id) to `path`
// as Chrome trace JSON.
bool WriteTrace(const std::string& path, const std::vector<RequestTrace>& requests);

// Self time per module over the recorder's events (the trace window), ms: each span's duration
// minus its direct children's on the same thread, charged to the module its
// name starts with.
std::map<std::string, double> SelfMsByModule();

// Counters and gauges of the program's obs registry, by name. The registry
// counts only while obs is enabled, which the traced run turns on.
using ObsReading = std::map<std::string, double>;
ObsReading ReadObs();
double ObsValue(const ObsReading& reading, const std::string& name);
double ObsDelta(const ObsReading& after, const ObsReading& before, const std::string& name);
// Adds after - before, entry by entry, to `sum` (for counters only).
void AccumulateObs(const ObsReading& after, const ObsReading& before, ObsReading* sum);

// JSON array of `values`, for the report line.
std::string JsonArray(const std::vector<double>& values);

// a / b, or 0 when b is 0.
double Ratio(double a, double b);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
