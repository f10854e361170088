// End-to-end explanation benchmark. One run measures one workload:
//
//   perfbench --workload serve_mixed|batch_flows --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (README.md lists both and what each should move). The last stdout line is
// the result object; the line before it holds the host fingerprint, thread
// counts, phase counts and, when traced, self time per module. A failed
// output check prints "correct": false and exits 1.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <cstdio>
#include <set>
#include <string>

#include "common.h"
#include "host_probe.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/flags.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Emitted by every traced run, in this order. A layer a workload never
// calls (the server on the batch workloads, k-hop extraction on graph
// tasks) reads 0.
constexpr MetricName kPerLayer[] = {
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.run_ms_p50", "ms"},
    {"serve.run_ms_p99", "ms"},
    {"serve.warm_pool_misses", "count"},
    {"serve.batch_size_mean", "count"},
    {"serve.coalesced_frac", "ratio"},
    {"serve.shed_frac", "ratio"},
    {"serve.expired_frac", "ratio"},
    {"serve.gen_late_ms_p99", "ms"},
    {"explain.revelio_ms_per_inst", "ms"},
    {"explain.gnnexplainer_ms_per_inst", "ms"},
    {"megabatch.instances_per_group", "count"},
    {"flow.enumerate_ms_per_inst", "ms"},
    {"flow.flows_per_inst", "count"},
    {"gnn.forward_ms_per_inst", "ms"},
    {"gnn.backward_ms_per_inst", "ms"},
    {"nn.adam_step_us", "us"},
    {"graph.khop_ms_per_inst", "ms"},
    {"graph.batch_build_ms", "ms"},
    {"tensor.matmul.flops_per_inst", "count"},
    {"tensor.matmul.bytes_per_inst", "bytes"},
    {"tensor.matmul.gflops", "GFLOP/s"},
    {"tensor.spmm.flops_per_inst", "count"},
    {"tensor.spmm.bytes_per_inst", "bytes"},
    {"tensor.spmm.gbps", "GB/s"},
    {"tensor.gather.bytes_per_inst", "bytes"},
    {"tensor.scatter_add.bytes_per_inst", "bytes"},
    {"tensor.simd.vector_frac", "ratio"},
    {"tensor.pool.hit_frac", "ratio"},
    {"tensor.pool.bytes_peak_mb", "MB"},
    {"plan.replay_frac", "ratio"},
    {"plan.invalidations", "count"},
    {"parallel.serial_fallback_frac", "ratio"},
    {"parallel.busy_frac", "ratio"},
    {"eval.fidelity_ms_per_probe", "ms"},
    {"host.triad_gbps", "GB/s"},
    {"host.peak_gflops", "GFLOP/s"},
    {"obs.trace_overhead_frac", "ratio"},
};

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string Quote(const std::string& s) { return "\"" + revelio::obs::JsonWriter::Escape(s) + "\""; }

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Run(int argc, char** argv) {
  const revelio::util::Flags flags(argc, argv);
  RunConfig config;
  config.workload = flags.GetString("workload", "");
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.seconds = flags.GetDouble("seconds", 10.0);
  config.trace = flags.GetInt("trace", 0) != 0;
  config.nproc = AvailableCpus();
  const std::string trace_out = flags.GetString("trace-out", "");
  const std::set<std::string> workloads = {"serve_mixed", "batch_flows"};
  if (workloads.count(config.workload) == 0 || config.seconds <= 0.0) {
    std::fprintf(stderr, "usage: perfbench --workload serve_mixed|batch_flows "
                         "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }

  if (config.trace) {
    revelio::obs::SetEnabled(true);
    // Spans are kept only inside the workload's trace window (common.h).
    revelio::obs::TraceRecorder::Global().SetMaxEventsPerThread(1);
  }
  WorkloadResult result = config.workload == "serve_mixed" ? RunServeWorkload(config)
                                                           : RunBatchWorkload(config);
  const HostInfo host = ProbeHost(config.nproc);
  if (config.trace) {
    result.Add("host.triad_gbps", host.triad_gbps, "GB/s");
    result.Add("host.peak_gflops", host.peak_gflops, "GFLOP/s");
    if (!trace_out.empty() && !WriteTrace(trace_out, result.requests)) {
      result.Fail("could not write " + trace_out);
    }
  }

  // Result line: every metric of the mode, by name and unit.
  std::string metrics;
  auto emit = [&](const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      result.Fail("non-finite metric " + name);
      value = 0.0;
    }
    metrics += (metrics.empty() ? "" : ", ") + Quote(name) + ": {\"value\": " + Number(value) +
               ", \"unit\": " + Quote(unit) + "}";
  };
  if (config.trace) {
    for (const MetricName& wanted : kPerLayer) {
      double value = 0.0;
      for (const Metric& m : result.metrics) {
        if (m.name == wanted.name) value = m.value;
      }
      emit(wanted.name, value, wanted.unit);
    }
    for (const Metric& m : result.metrics) {
      const bool listed = std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                                      [&](const MetricName& w) { return m.name == w.name; });
      if (!listed) result.Fail("per-layer metric missing from kPerLayer: " + m.name);
    }
  } else {
    for (const Metric& m : result.metrics) emit(m.name, m.value, m.unit);
  }

  // Report line.
  std::string report = "{\"report\":{\"workload\":" + Quote(config.workload) +
                       ",\"seed\":" + std::to_string(config.seed) +
                       ",\"trace\":" + (config.trace ? "true" : "false") +
                       ",\"host\":{\"cpu_model\":" + Quote(host.cpu_model) +
                       ",\"nproc\":" + std::to_string(host.nproc) +
                       ",\"simd_isa\":" + Quote(host.simd_isa) +
                       ",\"simd_lanes\":" + std::to_string(host.simd_lanes) +
                       ",\"probe_threads\":" + std::to_string(host.probe_threads) +
                       ",\"triad_gbps\":" + Number(host.triad_gbps) +
                       ",\"peak_gflops\":" + Number(host.peak_gflops) + "}";
  for (const auto& [key, json] : result.report) report += "," + Quote(key) + ":" + json;
  if (config.trace) {
    // Kernel rates beside the host ceilings; bytes and FLOPs are the
    // program's counters, computed from tensor sizes.
    std::string roofline = "{\"note\":\"bytes and flops computed from tensor sizes\"";
    for (const Metric& m : result.metrics) {
      if (m.name == "tensor.matmul.gflops") {
        roofline += ",\"matmul\":{\"gflops\":" + Number(m.value) +
                    ",\"ceiling_gflops\":" + Number(host.peak_gflops) + "}";
      } else if (m.name == "tensor.spmm.gbps") {
        roofline += ",\"spmm\":{\"gbps\":" + Number(m.value) +
                    ",\"ceiling_gbps\":" + Number(host.triad_gbps) + "}";
      }
    }
    report += ",\"roofline\":" + roofline + "}";
    std::string self = "{";
    for (const auto& [module, ms] : SelfMsByModule()) {
      self += (self.size() > 1 ? "," : "") + Quote(module) + ":" + Number(ms);
    }
    report += ",\"self_ms_by_module\":" + self + "}";
    report += ",\"trace_spans\":" +
              std::to_string(revelio::obs::TraceRecorder::Global().Consolidated().size());
  }
  std::string failures = "[";
  for (const std::string& f : result.check_failures) {
    failures += (failures.size() > 1 ? "," : "") + Quote(f);
  }
  report += ",\"check_failures\":" + failures + "]}}";

  const bool correct = result.check_failures.empty();
  std::printf("%s\n", report.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
