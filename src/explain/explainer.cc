#include "explain/explainer.h"

#include <algorithm>
#include <cmath>

#include "nn/loss.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "tensor/pool.h"

namespace revelio::explain {

namespace {

// How many of the final scores an audit record retains. Enough to see the
// shape of the distribution (and the paper's top-k sweeps stop well below
// this); full score vectors belong in result files, not per-call audit logs.
constexpr size_t kAuditTopScores = 32;

void FillAuditTaskShape(obs::AuditRecord* record, const ExplanationTask& task) {
  record->num_nodes = task.graph->num_nodes();
  record->num_edges = task.graph->num_edges();
  record->target_node = task.target_node;
  record->target_class = task.target_class;
}

void FillAuditResult(obs::AuditRecord* record, const Explanation& result) {
  const std::vector<double>& scores =
      result.has_flow_scores ? result.flow_scores : result.edge_scores;
  std::vector<double> top = scores;
  const size_t k = std::min(kAuditTopScores, top.size());
  std::partial_sort(top.begin(), top.begin() + k, top.end(), std::greater<double>());
  top.resize(k);
  record->top_scores = std::move(top);
}

void FillAuditCall(obs::AuditRecord* record, const std::string& method, Objective objective,
                   bool megabatched, const tensor::PoolStats& pool_delta, double wall_seconds) {
  record->method = method;
  record->objective = ObjectiveName(objective);
  record->megabatched = megabatched;
  record->pool_hits = pool_delta.hits;
  record->pool_misses = pool_delta.misses;
  record->wall_seconds = wall_seconds;
  record->config.emplace_back("tensor_pool", tensor::PoolEnabled() ? "1" : "0");
}

}  // namespace

const char* ObjectiveName(Objective objective) {
  return objective == Objective::kFactual ? "factual" : "counterfactual";
}

Explanation Explainer::Explain(const ExplanationTask& task, Objective objective) {
  // Skip the name() call entirely when telemetry is off: the span then costs
  // one relaxed load and no allocation. The flight recorder needs the name
  // too — its span events carry only an interned pointer.
  obs::ScopedSpan span(obs::Enabled() || obs::FlightEnabled() ? "explain." + name()
                                                              : std::string());
  static obs::Counter* calls = obs::MetricsRegistry::Global().GetCounter("explain.calls");
  calls->Increment();
  // One pool scope per explanation: on exit the calling thread's tensor pool
  // is trimmed back to its high-water mark, so repeated explanations reuse
  // the same buffers instead of growing the retained set.
  tensor::MemoryScope pool_scope("explain");
  obs::AuditScope audit(1);
  if (!audit.active()) return ExplainImpl(task, objective);

  FillAuditTaskShape(audit.record(0), task);
  Explanation result = ExplainImpl(task, objective);
  FillAuditResult(audit.record(0), result);
  FillAuditCall(audit.record(0), name(), objective, /*megabatched=*/false, pool_scope.Delta(),
                span.ElapsedSeconds());
  audit.SubmitAll();
  return result;
}

std::vector<Explanation> Explainer::ExplainBatch(const std::vector<const ExplanationTask*>& tasks,
                                                 Objective objective) {
  obs::ScopedSpan span(obs::Enabled() || obs::FlightEnabled() ? "explain." + name()
                                                              : std::string());
  static obs::Counter* calls = obs::MetricsRegistry::Global().GetCounter("explain.calls");
  static obs::Counter* groups = obs::MetricsRegistry::Global().GetCounter("megabatch.groups");
  static obs::Counter* instances =
      obs::MetricsRegistry::Global().GetCounter("megabatch.instances");
  calls->Add(tasks.size());
  groups->Increment();
  instances->Add(tasks.size());
  tensor::MemoryScope pool_scope("explain");
  obs::AuditScope audit(tasks.size());
  if (!audit.active()) return ExplainBatchImpl(tasks, objective);

  for (size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i] != nullptr) FillAuditTaskShape(audit.record(i), *tasks[i]);
  }
  std::vector<Explanation> results = ExplainBatchImpl(tasks, objective);
  const tensor::PoolStats pool_delta = pool_scope.Delta();
  const double wall_seconds = span.ElapsedSeconds();
  for (size_t i = 0; i < results.size() && i < tasks.size(); ++i) {
    FillAuditResult(audit.record(i), results[i]);
    FillAuditCall(audit.record(i), name(), objective, /*megabatched=*/tasks.size() > 1,
                  pool_delta, wall_seconds);
  }
  audit.SubmitAll();
  return results;
}

std::vector<Explanation> Explainer::ExplainBatchImpl(
    const std::vector<const ExplanationTask*>& tasks, Objective objective) {
  std::vector<Explanation> results;
  results.reserve(tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    CHECK(tasks[i] != nullptr);
    // Point single-instance audit hooks (Current(0)) at this task's record.
    obs::AuditScope::SetInstanceBase(i);
    results.push_back(ExplainImpl(*tasks[i], objective));
  }
  obs::AuditScope::SetInstanceBase(0);
  return results;
}

util::Status ValidateExplanationTask(const ExplanationTask& task) {
  if (task.model == nullptr) return util::Status::InvalidArgument("task.model is null");
  if (task.graph == nullptr) return util::Status::InvalidArgument("task.graph is null");
  const int n = task.graph->num_nodes();
  if (n <= 0) {
    return util::Status::InvalidArgument("cannot explain an empty graph (0 nodes, no flows)");
  }
  if (task.features.rows() != n) {
    return util::Status::InvalidArgument(
        "features have " + std::to_string(task.features.rows()) + " rows for " +
        std::to_string(n) + " nodes");
  }
  const gnn::GnnConfig& config = task.model->config();
  if (task.features.cols() != config.input_dim) {
    return util::Status::InvalidArgument(
        "feature dim " + std::to_string(task.features.cols()) + " != model input_dim " +
        std::to_string(config.input_dim));
  }
  const std::vector<float>& values = task.features.values();
  for (size_t k = 0; k < values.size(); ++k) {
    if (!std::isfinite(values[k])) {
      return util::Status::InvalidArgument(
          "feature (" + std::to_string(k / config.input_dim) + ", " +
          std::to_string(k % config.input_dim) + ") is not finite");
    }
  }
  const bool node_task = config.task == gnn::TaskType::kNodeClassification;
  if (node_task != task.is_node_task()) {
    return util::Status::InvalidArgument(node_task
                                             ? "node-classification model requires target_node >= 0"
                                             : "graph-classification task must use target_node = -1");
  }
  if (node_task && task.target_node >= n) {
    return util::Status::InvalidArgument(
        "target_node " + std::to_string(task.target_node) + " out of range for " +
        std::to_string(n) + " nodes");
  }
  if (task.target_class < 0 || task.target_class >= config.num_classes) {
    return util::Status::InvalidArgument(
        "target_class " + std::to_string(task.target_class) + " out of range for " +
        std::to_string(config.num_classes) + " classes");
  }
  return util::Status::Ok();
}

tensor::Tensor CloneFeatures(const ExplanationTask& task) {
  return task.features.Detach();
}

double PredictedProbability(const ExplanationTask& task) {
  const tensor::Tensor logits = task.model->Logits(*task.graph, task.features);
  return nn::SoftmaxRow(logits, task.logit_row())[task.target_class];
}

int PredictedClass(const ExplanationTask& task) {
  const tensor::Tensor logits = task.model->Logits(*task.graph, task.features);
  return nn::ArgmaxRow(logits, task.logit_row());
}

}  // namespace revelio::explain
