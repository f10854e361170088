#include "core/revelio.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "explain/mask_driver.h"
#include "nn/loss.h"
#include "obs/audit.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace revelio::core {

using explain::Explanation;
using explain::ExplanationTask;
using explain::Objective;
using tensor::Tensor;

namespace {

// Builds the per-layer edge masks omega[E] (Eq. 5/7) from the flow masks.
// Returns one (num_layer_edges x 1) tensor per layer, each differentiable
// w.r.t. `flow_masks` and `layer_weights`.
std::vector<Tensor> BuildLayerEdgeMasks(const flow::FlowSet& flows, const Tensor& flow_scores,
                                        const Tensor& layer_weights,
                                        RevelioOptions::LayerScaling scaling) {
  std::vector<Tensor> masks;
  masks.reserve(flows.num_layers());
  Tensor scale;
  switch (scaling) {
    case RevelioOptions::LayerScaling::kExp:
      scale = tensor::Exp(layer_weights);
      break;
    case RevelioOptions::LayerScaling::kSoftplus:
      scale = tensor::Softplus(layer_weights);
      break;
    case RevelioOptions::LayerScaling::kNone:
      break;
  }
  for (int l = 0; l < flows.num_layers(); ++l) {
    // Accumulate omega[F] onto the layer edges each flow traverses at l.
    Tensor accumulated =
        tensor::ScatterAddRows(flow_scores, flows.EdgesAtLayer(l), flows.num_layer_edges());
    if (scale.defined()) {
      accumulated = tensor::ScaleByScalarTensor(accumulated, tensor::Select(scale, l, 0));
    }
    masks.push_back(tensor::Sigmoid(accumulated));
  }
  return masks;
}

// One gradient pass at initialization: |d objective / d M_k| per flow.
// Used by the §VI prefiltering extension to pick the flows worth learning.
std::vector<double> InitialFlowSaliency(const ExplanationTask& task,
                                        const gnn::LayerEdgeSet& edges,
                                        const flow::FlowSet& flows, Objective objective,
                                        RevelioOptions::LayerScaling scaling) {
  Tensor flow_params = Tensor::Zeros(flows.num_flows(), 1).WithRequiresGrad();
  Tensor layer_weights = Tensor::Zeros(task.model->num_layers(), 1);
  std::vector<Tensor> masks =
      BuildLayerEdgeMasks(flows, tensor::Tanh(flow_params), layer_weights, scaling);
  Tensor logits = task.model->Run(*task.graph, edges, task.features, masks).logits;
  Tensor loss = objective == Objective::kFactual
                    ? nn::FactualObjective(logits, task.logit_row(), task.target_class)
                    : nn::CounterfactualObjective(logits, task.logit_row(), task.target_class);
  loss.Backward();
  std::vector<double> saliency(flows.num_flows());
  for (int k = 0; k < flows.num_flows(); ++k) {
    saliency[k] = std::fabs(flow_params.GradAt(k, 0));
  }
  return saliency;
}

// Keeps only the flows in `kept` (a FlowSet over the same layer-edge space).
flow::FlowSet RestrictFlows(const flow::FlowSet& flows, const gnn::LayerEdgeSet& edges,
                            const std::vector<int>& kept) {
  flow::FlowSet reduced(flows.num_layers(), edges.num_layer_edges());
  std::vector<int> path(flows.num_layers());
  for (int k : kept) {
    for (int l = 0; l < flows.num_layers(); ++l) path[l] = flows.EdgeAt(l, k);
    reduced.AddFlow(path);
  }
  return reduced;
}

// Detached readout (the extract step): given one instance's trained
// parameters, fills every score field of `result`
// (whose `flows` must already hold the learned flow set).
void FinishFlowExplanation(const gnn::LayerEdgeSet& edges, const Tensor& flow_mask_params,
                           const Tensor& layer_weights, Objective objective,
                           const RevelioOptions& options,
                           RevelioExplainer::FlowExplanation* result) {
  const flow::FlowSet& flows = result->flows;
  const int num_layers = flows.num_layers();
  Tensor omega_flows = options.use_tanh_flow_masks ? tensor::Tanh(flow_mask_params)
                                                   : tensor::Sigmoid(flow_mask_params);
  std::vector<Tensor> masks =
      BuildLayerEdgeMasks(flows, omega_flows, layer_weights, options.layer_scaling);

  result->flow_scores.resize(flows.num_flows());
  const float sign = objective == Objective::kCounterfactual ? -1.0f : 1.0f;
  for (int k = 0; k < flows.num_flows(); ++k) {
    result->flow_scores[k] = sign * omega_flows.At(k, 0);
  }
  result->layer_edge_masks.assign(num_layers,
                                  std::vector<double>(edges.num_layer_edges(), 0.0));
  for (int l = 0; l < num_layers; ++l) {
    for (int e = 0; e < edges.num_layer_edges(); ++e) {
      const double mask_value = masks[l].At(e, 0);
      // §IV-C: counterfactual layer-edge importance reduces to 1 - omega[e].
      result->layer_edge_masks[l][e] =
          objective == Objective::kCounterfactual ? 1.0 - mask_value : mask_value;
    }
  }
  result->edge_scores =
      flow::LayerEdgeScoresToEdgeScores(flows, edges, result->layer_edge_masks);
  result->layer_weights.resize(num_layers);
  for (int l = 0; l < num_layers; ++l) result->layer_weights[l] = layer_weights.At(l, 0);
}

// Mean binary entropy (nats) of the mask probabilities in rows [begin, end)
// of omega. Tanh masks live in [-1, 1] and map to p = (v + 1) / 2; p is
// clamped away from {0, 1} so the entropy stays finite once masks saturate.
// Audit-only readout: every access is a detached read of trained values.
double MeanMaskEntropy(const Tensor& omega, int begin, int end, bool tanh_masks) {
  if (end <= begin) return 0.0;
  double total = 0.0;
  for (int k = begin; k < end; ++k) {
    double p = omega.At(k, 0);
    if (tanh_masks) p = 0.5 * (p + 1.0);
    p = std::min(1.0 - 1e-12, std::max(1e-12, p));
    total += -p * std::log(p) - (1.0 - p) * std::log(1.0 - p);
  }
  return total / static_cast<double>(end - begin);
}

void AppendRevelioAuditConfig(obs::AuditRecord* audit, const RevelioOptions& options) {
  if (audit == nullptr) return;
  audit->config.emplace_back("epochs", std::to_string(options.epochs));
  audit->config.emplace_back("learning_rate", std::to_string(options.learning_rate));
  audit->config.emplace_back("alpha", std::to_string(options.alpha));
  audit->config.emplace_back("seed", std::to_string(options.seed));
  audit->config.emplace_back("max_flows", std::to_string(options.max_flows));
  audit->config.emplace_back("prefilter_top_k", std::to_string(options.prefilter_top_k));
  audit->config.emplace_back("tanh_flow_masks", options.use_tanh_flow_masks ? "1" : "0");
}

}  // namespace

RevelioExplainer::FlowExplanation RevelioExplainer::ExplainFlows(const ExplanationTask& task,
                                                                 Objective objective) {
  return ExplainFlowsBatch({&task}, objective)[0];
}

std::vector<RevelioExplainer::FlowExplanation> RevelioExplainer::ExplainFlowsBatch(
    const std::vector<const ExplanationTask*>& tasks, Objective objective) {
  CHECK(!tasks.empty());
  return explain::RunInGroups<FlowExplanation>(
      tasks, [&](const std::vector<const ExplanationTask*>& group,
                 const explain::MegaBatchPlan& plan) {
        return ExplainGroup(group, plan, objective);
      });
}

std::vector<RevelioExplainer::FlowExplanation> RevelioExplainer::ExplainGroup(
    const std::vector<const ExplanationTask*>& tasks, const explain::MegaBatchPlan& plan,
    Objective objective) {
  for (size_t i = 0; i < tasks.size(); ++i) {
    AppendRevelioAuditConfig(obs::AuditScope::Current(i), options_);
  }
  const gnn::GnnModel& model = *tasks[0]->model;
  const int num_layers = model.num_layers();
  const int num_instances = plan.num_instances;

  // Per-instance flow enumeration and optional prefiltering stay sequential:
  // they are cheap relative to mask training and trivially bitwise-equal. A
  // group of one's mega layer edges are its own.
  std::vector<FlowExplanation> results(num_instances);
  std::vector<gnn::LayerEdgeSet> own_edges(num_instances > 1 ? num_instances : 0);
  std::vector<const gnn::LayerEdgeSet*> edges(num_instances, &plan.mega_edges);
  {
    obs::ScopedSpan span("revelio.enumerate_flows");
    for (int i = 0; i < num_instances; ++i) {
      if (num_instances > 1) {
        own_edges[i] = gnn::BuildLayerEdges(*tasks[i]->graph);
        edges[i] = &own_edges[i];
      }
      results[i].flows = tasks[i]->is_node_task()
                             ? flow::EnumerateFlowsToTarget(*edges[i], tasks[i]->target_node,
                                                            num_layers, options_.max_flows)
                             : flow::EnumerateAllFlows(*edges[i], num_layers, options_.max_flows);
      CHECK_GT(results[i].flows.num_flows(), 0);
    }
    obs::AuditScope::AddPhase("enumerate_flows", span.ElapsedSeconds(), tasks.size());
  }
  // §VI prefiltering: learn masks only for the top-k most salient flows.
  if (options_.prefilter_top_k > 0) {
    obs::ScopedSpan span("revelio.prefilter");
    for (int i = 0; i < num_instances; ++i) {
      if (options_.prefilter_top_k >= results[i].flows.num_flows()) continue;
      const std::vector<double> saliency = InitialFlowSaliency(
          *tasks[i], *edges[i], results[i].flows, objective, options_.layer_scaling);
      const std::vector<int> kept = flow::TopKFlows(saliency, options_.prefilter_top_k);
      results[i].flows = RestrictFlows(results[i].flows, *edges[i], kept);
    }
    obs::AuditScope::AddPhase("prefilter", span.ElapsedSeconds(), tasks.size());
  }

  // Learnable parameters: flow masks M and layer weights w, one segment of
  // each per instance.
  explain::MaskLearner learner;
  learner.optimize_span = "revelio.optimize";
  learner.extract_span = "revelio.extract";
  learner.epochs = options_.epochs;
  learner.learning_rate = options_.learning_rate;
  learner.seed = options_.seed;
  explain::MaskParam flow_param;
  flow_param.init_scale = 0.1f;
  explain::MaskParam weight_param;
  for (const FlowExplanation& result : results) {
    flow_param.rows.push_back(result.flows.num_flows());
    weight_param.rows.push_back(num_layers);
  }
  learner.params = {std::move(flow_param), std::move(weight_param)};
  const int total_mask_rows = plan.num_mask_rows();
  learner.plan_key = {static_cast<uint64_t>(total_mask_rows), static_cast<uint64_t>(num_layers),
                      static_cast<uint64_t>(objective == Objective::kFactual ? 1 : 0),
                      static_cast<uint64_t>(options_.use_tanh_flow_masks ? 1 : 0),
                      static_cast<uint64_t>(options_.layer_scaling)};

  // Static index plumbing reused every epoch: flow -> mega layer-edge row
  // per layer (Eq. 5 scatter), the per-row layer-scale source, and the
  // flow-carrying rows + instance segment ids behind the Eq. 8 regularizer.
  //
  // Masks are built directly in mega layer-edge order (base edges
  // instance-major, then self-loops instance-major), so the shared
  // SpmmCsrWeighted aggregation consumes them without a per-epoch pack
  // permutation. Per-instance accumulation order is unchanged: within one
  // instance the scatter/gather index lists keep the instance's own order,
  // and every destination row still belongs to exactly one instance.
  const int mega_base_edges = plan.base_edge_offset[num_instances];
  auto mega_row = [&plan, mega_base_edges](int i, int e) {
    const int base = plan.instance_base_edges(i);
    return e < base ? plan.base_edge_offset[i] + e
                    : mega_base_edges + plan.node_offset[i] + (e - base);
  };
  std::vector<std::vector<int>> scatter_idx(num_layers);
  std::vector<std::vector<int>> used_idx(num_layers);
  std::vector<std::vector<int>> used_seg(num_layers);
  // Row r's scale-column index per layer; a group of one scales by a scalar.
  const bool gather_scale =
      num_instances > 1 && options_.layer_scaling != RevelioOptions::LayerScaling::kNone;
  std::vector<std::vector<int>> scale_rows(gather_scale ? num_layers : 0);
  std::vector<int> used_counts(num_instances, 0);
  for (int l = 0; l < num_layers; ++l) {
    for (int i = 0; i < num_instances; ++i) {
      const flow::FlowSet& flows = results[i].flows;
      for (int e : flows.EdgesAtLayer(l)) scatter_idx[l].push_back(mega_row(i, e));
      const std::vector<int> used = flows.UsedEdgesAtLayer(l);
      for (int e : used) {
        used_idx[l].push_back(mega_row(i, e));
        used_seg[l].push_back(i);
      }
      used_counts[i] += static_cast<int>(used.size());
    }
    if (gather_scale) {
      scale_rows[l].resize(total_mask_rows);
      for (int i = 0; i < num_instances; ++i) {
        for (int r = plan.base_edge_offset[i]; r < plan.base_edge_offset[i + 1]; ++r) {
          scale_rows[l][r] = i * num_layers + l;
        }
        for (int v = plan.node_offset[i]; v < plan.node_offset[i + 1]; ++v) {
          scale_rows[l][mega_base_edges + v] = i * num_layers + l;
        }
      }
    }
  }
  std::vector<int> target_classes(num_instances);
  for (int i = 0; i < num_instances; ++i) target_classes[i] = tasks[i]->target_class;
  std::vector<float> inv_counts(num_instances);
  for (int i = 0; i < num_instances; ++i) {
    CHECK_GT(used_counts[i], 0) << "no flow-carrying layer edges";
    inv_counts[i] = 1.0f / static_cast<float>(used_counts[i]);
  }
  const Tensor inv_count_vec = explain::PooledColumn(inv_counts);
  const std::vector<int>* node_to_graph = plan.node_task ? nullptr : &plan.node_to_graph;

  learner.build_loss = [&](const std::vector<Tensor>& params) {
    Tensor omega_flows = options_.use_tanh_flow_masks ? tensor::Tanh(params[0])
                                                      : tensor::Sigmoid(params[0]);
    Tensor scale;
    switch (options_.layer_scaling) {
      case RevelioOptions::LayerScaling::kExp:
        scale = tensor::Exp(params[1]);
        break;
      case RevelioOptions::LayerScaling::kSoftplus:
        scale = tensor::Softplus(params[1]);
        break;
      case RevelioOptions::LayerScaling::kNone:
        break;
    }
    std::vector<Tensor> masks(num_layers);
    for (int l = 0; l < num_layers; ++l) {
      // Eq. 5/7: accumulate omega[F] onto the layer edges each flow traverses
      // at l; row r of instance i then scales by exp(w[i, l]). A group of one
      // scales by its scalar; larger groups multiply by the gathered scale
      // column — the same float product per row.
      Tensor accumulated = tensor::ScatterAddRows(omega_flows, scatter_idx[l], total_mask_rows);
      if (scale.defined()) {
        accumulated = num_instances == 1
                          ? tensor::ScaleByScalarTensor(accumulated, tensor::Select(scale, l, 0))
                          : tensor::Mul(accumulated, tensor::GatherRows(scale, scale_rows[l]));
      }
      masks[l] = tensor::Sigmoid(accumulated);
    }
    Tensor logits = model
                        .Run(plan.graph(), plan.mega_edges, plan.features, masks, node_to_graph,
                             num_instances)
                        .logits;
    // One shared row-softmax; each instance reads its own logits row, so
    // per-row values and gradients match the per-instance softmax bitwise.
    Tensor p = tensor::SelectMany(tensor::RowSoftmax(logits), plan.logit_row, target_classes);
    Tensor objective_loss = objective == Objective::kFactual
                                ? tensor::Neg(tensor::Log(p))
                                : tensor::Neg(tensor::Log(tensor::AddScalar(tensor::Neg(p), 1.0f)));
    // Eq. 8: mean mask value over each instance's flow-carrying layer edges
    // (edges unused by the GNN's computation toward the target are skipped),
    // as segment sums over rows kept contiguous and in the instance's layer
    // order.
    Tensor used_total;
    for (int l = 0; l < num_layers; ++l) {
      if (used_idx[l].empty()) continue;
      Tensor layer_sum = explain::InstanceSums(tensor::GatherRows(masks[l], used_idx[l]),
                                               used_seg[l], num_instances);
      used_total = used_total.defined() ? tensor::Add(used_total, layer_sum) : layer_sum;
    }
    Tensor regularizer = tensor::Mul(used_total, inv_count_vec);
    if (objective == Objective::kCounterfactual) {
      // Eq. 9 penalizes mean(1 - omega[E]).
      regularizer = tensor::AddScalar(tensor::Neg(regularizer), 1.0f);
    }
    Tensor loss = tensor::Add(objective_loss, tensor::MulScalar(regularizer, options_.alpha));
    return explain::MaskLearner::Step{loss, omega_flows};
  };
  learner.mask_entropy = [this](const Tensor& omega, int begin, int end) {
    return MeanMaskEntropy(omega, begin, end, options_.use_tanh_flow_masks);
  };
  learner.extract = [&](int i, const std::vector<Tensor>& segments) {
    FlowExplanation& result = results[i];
    FinishFlowExplanation(*edges[i], segments[0], segments[1], objective, options_, &result);
    return std::vector<std::vector<double>*>{&result.flow_scores, &result.edge_scores,
                                             &result.layer_weights};
  };
  const std::vector<util::Status> status = explain::RunMaskDriver(tasks, learner);
  for (int i = 0; i < num_instances; ++i) {
    results[i].status = status[i];
    if (!status[i].ok()) results[i].layer_edge_masks.clear();
  }
  return results;
}

Explanation RevelioExplainer::ExplainImpl(const ExplanationTask& task, Objective objective) {
  return ExplainBatchImpl({&task}, objective)[0];
}

std::vector<Explanation> RevelioExplainer::ExplainBatchImpl(
    const std::vector<const ExplanationTask*>& tasks, Objective objective) {
  std::vector<FlowExplanation> flow_results = ExplainFlowsBatch(tasks, objective);
  std::vector<Explanation> explanations;
  explanations.reserve(flow_results.size());
  for (FlowExplanation& flow_explanation : flow_results) {
    Explanation explanation;
    explanation.status = std::move(flow_explanation.status);
    explanation.edge_scores = std::move(flow_explanation.edge_scores);
    explanation.has_flow_scores = true;
    explanation.flow_scores = std::move(flow_explanation.flow_scores);
    explanations.push_back(std::move(explanation));
  }
  return explanations;
}

}  // namespace revelio::core
