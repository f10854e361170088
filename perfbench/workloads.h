#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The two workloads (README.md says why each exists). Untraced runs fill
// the end-to-end metrics; traced runs fill the per-layer ones.

#include "common.h"

namespace perfbench {

// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;
// Fidelity- sparsity ladder (paper Fig. 3 range).
inline constexpr double kSparsityLadder[] = {0.5, 0.6, 0.7, 0.8, 0.9};

// batch_flows: offline eval::ExplainAll plus Fidelity- probes.
WorkloadResult RunBatchWorkload(const RunConfig& config);

// serve_mixed: open-loop traffic against a running ExplanationServer.
WorkloadResult RunServeWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
