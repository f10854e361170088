#ifndef PERFBENCH_HOST_PROBE_H_
#define PERFBENCH_HOST_PROBE_H_

// Host fingerprint and the two roofline ceilings every result records: a
// stream-triad bandwidth and a vector mul+add rate, both measured by this
// binary with the workload's ParallelFor thread count.

#include <string>

namespace perfbench {

struct HostInfo {
  std::string cpu_model;
  int nproc = 1;
  std::string simd_isa;  // the SIMD tier the kernels were built for
  int simd_lanes = 1;
  int probe_threads = 1;
  double triad_gbps = 0.0;   // a = b + s*c over arrays far larger than the LLC
  double peak_gflops = 0.0;  // vector multiply + add, no FMA (as the kernels)
};

// `nproc` is the CPU count the run budgets threads against.
HostInfo ProbeHost(int nproc);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_PROBE_H_
