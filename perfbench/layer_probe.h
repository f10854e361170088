#ifndef PERFBENCH_LAYER_PROBE_H_
#define PERFBENCH_LAYER_PROBE_H_

// Traced-run probes of the layers the explainers call internally. The
// benchmark cannot time inside ExplainAll without spans in the program, so it
// replays the explainer's steps itself through each module's public
// functions, on the workload's own instances: flow enumeration, a
// Revelio-shaped mask epoch (flow masks scattered to layer-edge masks as in
// Eq. 5, masked GNN forward, objective, backward, Adam step), mega-graph
// assembly, and the MatMul / SpMM kernels at the instances' shapes.

#include <functional>
#include <vector>

#include "common.h"
#include "instances.h"

namespace perfbench {

struct LayerProbe {
  double flow_enumerate_ms_per_inst = 0.0;
  double flows_per_inst = 0.0;
  double forward_ms_per_inst = 0.0;   // one masked forward + objective
  double backward_ms_per_inst = 0.0;  // one backward through it
  double adam_step_us = 0.0;          // Adam over the flow-mask parameters
  double batch_build_ms = 0.0;        // graph::TryMakeBatch over one group
  double matmul_gflops = 0.0;         // counted FLOPs / timed MatMul calls
  double spmm_gbps = 0.0;             // counted bytes / timed SpmmCsrWeighted calls
};

// Probes up to `max_instances` instances of each set, each with the set's own
// model. Kernel rates read the obs counters, so obs must be enabled.
LayerProbe ProbeLayers(const std::vector<const TargetSet*>& sets,
                       const std::vector<const revelio::gnn::GnnModel*>& models,
                       int max_instances);

// Adds the probe's per-layer metrics (flow, gnn, nn, graph batch, kernel
// rates) to `result`.
void AddProbeMetrics(const LayerProbe& probe, WorkloadResult* result);

// Adds the per-layer metrics read from obs counters: `counts` holds counter
// increments over the explanations timed in `wall_seconds` on
// `compute_threads` threads, and `pool_peak_bytes` the tensor-pool
// high-water gauge. Kernel FLOPs and bytes
// per explanation, SIMD, tensor pool, plan replay, ParallelFor and
// mega-batch ratios. Bytes are computed by the program from tensor sizes,
// not measured.
void AddCounterMetrics(const ObsReading& counts, double pool_peak_bytes, double explanations,
                       double wall_seconds, int compute_threads, WorkloadResult* result);

// Tracing overhead: the median wall time of work() with obs enabled over
// that with obs disabled, minus 1; seven alternating trials each. Traced
// trials keep their spans in a fresh trace window. Leaves obs enabled.
double TraceOverheadFrac(const std::function<void()>& work);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_PROBE_H_
