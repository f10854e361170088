#include "layer_probe.h"

#include <algorithm>

#include "explain/batch_runner.h"
#include "flow/message_flow.h"
#include "gnn/layer_edges.h"
#include "graph/batch.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {

namespace rv = revelio;
using rv::tensor::Tensor;

namespace {

constexpr int kEpochsPerInstance = 3;
constexpr int kKernelRepeats = 20;
constexpr float kMaskLearningRate = 0.01f;
constexpr int kOverheadTrials = 7;

double MsSince(int64_t start) { return static_cast<double>(NowNanos() - start) * 1e-6; }

}  // namespace

LayerProbe ProbeLayers(const std::vector<const TargetSet*>& sets,
                       const std::vector<const rv::gnn::GnnModel*>& models, int max_instances) {
  CHECK_EQ(sets.size(), models.size());
  LayerProbe probe;
  rv::util::Rng rng(7);
  double enumerate_ms = 0.0, forward_ms = 0.0, backward_ms = 0.0, adam_us = 0.0;
  double flows = 0.0, batch_ms = 0.0;
  double matmul_ms = 0.0, spmm_ms = 0.0;
  int instances = 0, epochs = 0, batches = 0;
  double matmul_flops = 0.0, spmm_bytes = 0.0;

  for (size_t s = 0; s < sets.size(); ++s) {
    const rv::gnn::GnnModel& model = *models[s];
    const int layers = model.num_layers();
    const int count = std::min<int>(max_instances, static_cast<int>(sets[s]->instances.size()));
    for (int i = 0; i < count; ++i) {
      const rv::eval::EvalInstance& instance = sets[s]->instances[i];
      const rv::gnn::LayerEdgeSet edges = rv::gnn::BuildLayerEdges(instance.graph);

      int64_t start = NowNanos();
      rv::flow::FlowSet flow_set;
      {
        rv::obs::ScopedSpan span("flow.Enumerate");
        flow_set = instance.target_node >= 0
                       ? rv::flow::EnumerateFlowsToTarget(edges, instance.target_node, layers)
                       : rv::flow::EnumerateAllFlows(edges, layers);
      }
      enumerate_ms += MsSince(start);
      flows += flow_set.num_flows();
      ++instances;

      Tensor params = Tensor::Randn(flow_set.num_flows(), 1, &rng).WithRequiresGrad();
      rv::nn::Adam adam({params}, kMaskLearningRate);
      const float flow_share = 1.0f / static_cast<float>(std::max(1, flow_set.num_flows()));
      for (int epoch = 0; epoch < kEpochsPerInstance; ++epoch) {
        start = NowNanos();
        Tensor loss;
        {
          rv::obs::ScopedSpan span("gnn.GnnModel.Run");
          const Tensor flow_mask = rv::tensor::Sigmoid(params);
          std::vector<Tensor> masks;
          for (int l = 0; l < layers; ++l) {
            masks.push_back(rv::tensor::MulScalar(
                rv::tensor::ScatterAddRows(flow_mask, flow_set.EdgesAtLayer(l),
                                           edges.num_layer_edges()),
                flow_share));
          }
          const Tensor logits =
              model.Run(instance.graph, edges, instance.features, masks).logits;
          loss = rv::nn::FactualObjective(logits, std::max(0, instance.target_node),
                                          instance.target_class);
        }
        forward_ms += MsSince(start);
        start = NowNanos();
        {
          rv::obs::ScopedSpan span("gnn.Backward");
          loss.Backward();
        }
        backward_ms += MsSince(start);
        start = NowNanos();
        {
          rv::obs::ScopedSpan span("nn.Adam.Step");
          adam.Step();
        }
        adam_us += MsSince(start) * 1e3;
        loss.ReleaseTape();
        ++epochs;
      }

      // Kernels at this instance's shapes: the layer-1 combination X·W and
      // the weighted aggregation over the layer-edge CSR (Eq. 6 masks).
      const int n = instance.graph.num_nodes();
      const Tensor x = Tensor::Uniform(n, model.config().input_dim, -1.0f, 1.0f, &rng);
      const Tensor w =
          Tensor::Uniform(model.config().input_dim, model.config().hidden_dim, -1.0f, 1.0f, &rng);
      const Tensor h = Tensor::Uniform(n, model.config().hidden_dim, -1.0f, 1.0f, &rng);
      const Tensor weights = Tensor::Uniform(edges.num_layer_edges(), 1, 0.0f, 1.0f, &rng);
      {
        rv::obs::ScopedSpan span("tensor.MatMul");
        const ObsReading before = ReadObs();
        start = NowNanos();
        for (int r = 0; r < kKernelRepeats; ++r) rv::tensor::MatMul(x, w);
        matmul_ms += MsSince(start);
        matmul_flops += ObsDelta(ReadObs(), before, "tensor.matmul.flops");
      }
      {
        rv::obs::ScopedSpan span("tensor.SpmmCsrWeighted");
        const ObsReading before = ReadObs();
        start = NowNanos();
        for (int r = 0; r < kKernelRepeats; ++r) {
          rv::tensor::SpmmCsrWeighted(edges.csr, weights, h);
        }
        spmm_ms += MsSince(start);
        spmm_bytes += ObsDelta(ReadObs(), before, "tensor.spmm.bytes");
      }
    }

    // Mega-graph assembly over groups of the mega-batch size.
    const size_t group = static_cast<size_t>(rv::explain::MegaBatchSize());
    std::vector<rv::graph::GraphInstance> members;
    for (int i = 0; i < count; ++i) {
      const rv::eval::EvalInstance& instance = sets[s]->instances[i];
      members.push_back({instance.graph, instance.features, {instance.target_class}});
    }
    for (size_t begin = 0; begin < members.size(); begin += group) {
      std::vector<const rv::graph::GraphInstance*> batch;
      for (size_t i = begin; i < std::min(members.size(), begin + group); ++i) {
        batch.push_back(&members[i]);
      }
      const int64_t start = NowNanos();
      {
        rv::obs::ScopedSpan span("graph.TryMakeBatch");
        CHECK(rv::graph::TryMakeBatch(batch).ok());
      }
      batch_ms += MsSince(start);
      ++batches;
    }
  }

  probe.flow_enumerate_ms_per_inst = Ratio(enumerate_ms, instances);
  probe.flows_per_inst = Ratio(flows, instances);
  probe.forward_ms_per_inst = Ratio(forward_ms, epochs);
  probe.backward_ms_per_inst = Ratio(backward_ms, epochs);
  probe.adam_step_us = Ratio(adam_us, epochs);
  probe.batch_build_ms = Ratio(batch_ms, batches);
  probe.matmul_gflops = Ratio(matmul_flops, matmul_ms * 1e6);
  probe.spmm_gbps = Ratio(spmm_bytes, spmm_ms * 1e6);
  return probe;
}

}  // namespace perfbench

namespace perfbench {

void AddProbeMetrics(const LayerProbe& probe, WorkloadResult* result) {
  result->Add("flow.enumerate_ms_per_inst", probe.flow_enumerate_ms_per_inst, "ms");
  result->Add("flow.flows_per_inst", probe.flows_per_inst, "count");
  result->Add("gnn.forward_ms_per_inst", probe.forward_ms_per_inst, "ms");
  result->Add("gnn.backward_ms_per_inst", probe.backward_ms_per_inst, "ms");
  result->Add("nn.adam_step_us", probe.adam_step_us, "us");
  result->Add("graph.batch_build_ms", probe.batch_build_ms, "ms");
  result->Add("tensor.matmul.gflops", probe.matmul_gflops, "GFLOP/s");
  result->Add("tensor.spmm.gbps", probe.spmm_gbps, "GB/s");
}

void AddCounterMetrics(const ObsReading& counts, double pool_peak_bytes, double explanations,
                       double wall_seconds, int compute_threads, WorkloadResult* result) {
  auto delta = [&](const char* name) { return ObsValue(counts, name); };
  auto per_inst = [&](const char* name) { return Ratio(delta(name), explanations); };
  result->Add("tensor.matmul.flops_per_inst", per_inst("tensor.matmul.flops"), "count");
  result->Add("tensor.matmul.bytes_per_inst", per_inst("tensor.matmul.bytes"), "bytes");
  result->Add("tensor.spmm.flops_per_inst", per_inst("tensor.spmm.flops"), "count");
  result->Add("tensor.spmm.bytes_per_inst", per_inst("tensor.spmm.bytes"), "bytes");
  result->Add("tensor.gather.bytes_per_inst", per_inst("tensor.gather.bytes"), "bytes");
  result->Add("tensor.scatter_add.bytes_per_inst", per_inst("tensor.scatter_add.bytes"), "bytes");
  const double vector_ops = delta("tensor.simd.vector_ops");
  result->Add("tensor.simd.vector_frac",
              Ratio(vector_ops, vector_ops + delta("tensor.simd.scalar_tail")), "ratio");
  const double hits = delta("tensor.pool.hit");
  result->Add("tensor.pool.hit_frac", Ratio(hits, hits + delta("tensor.pool.miss")), "ratio");
  result->Add("tensor.pool.bytes_peak_mb", pool_peak_bytes / (1024.0 * 1024.0), "MB");
  const double replays = delta("plan.replays");
  result->Add("plan.replay_frac", Ratio(replays, replays + delta("plan.records")), "ratio");
  result->Add("plan.invalidations", delta("plan.invalidations"), "count");
  const double serial = delta("parallel.serial_fallback");
  result->Add("parallel.serial_fallback_frac",
              Ratio(serial, serial + delta("parallel.dispatches")), "ratio");
  result->Add("parallel.busy_frac",
              Ratio(delta("parallel.worker_busy_us"),
                    wall_seconds * 1e6 * compute_threads),
              "ratio");
  result->Add("megabatch.instances_per_group",
              Ratio(delta("megabatch.instances"), delta("megabatch.groups")), "count");
}

}  // namespace perfbench

namespace perfbench {

double TraceOverheadFrac(const std::function<void()>& work) {
  std::vector<double> off_s, on_s;
  for (int trial = 0; trial < kOverheadTrials; ++trial) {
    for (bool traced : {false, true}) {
      revelio::obs::SetEnabled(traced);
      if (traced) OpenTraceWindow();  // so the trial's spans are kept
      const int64_t start = NowNanos();
      work();
      (traced ? on_s : off_s).push_back(static_cast<double>(NowNanos() - start) * 1e-9);
    }
  }
  revelio::obs::SetEnabled(true);
  return Median(on_s) / Median(off_s) - 1.0;
}

}  // namespace perfbench
