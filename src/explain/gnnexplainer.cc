#include "explain/gnnexplainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "explain/mask_driver.h"
#include "obs/audit.h"
#include "tensor/ops.h"

namespace revelio::explain {

using tensor::Tensor;

namespace {

// Mean binary entropy (nats) of the sigmoid mask rows [begin, end), clamped
// away from {0, 1} so saturated masks stay finite. Audit-only readout.
double MeanSigmoidMaskEntropy(const Tensor& mask, int begin, int end) {
  if (end <= begin) return 0.0;
  double total = 0.0;
  for (int e = begin; e < end; ++e) {
    const double p =
        std::min(1.0 - 1e-12, std::max(1e-12, static_cast<double>(mask.At(e, 0))));
    total += -p * std::log(p) - (1.0 - p) * std::log(1.0 - p);
  }
  return total / static_cast<double>(end - begin);
}

void AppendGnnExplainerAuditConfig(obs::AuditRecord* audit, const GnnExplainerOptions& options) {
  if (audit == nullptr) return;
  audit->config.emplace_back("epochs", std::to_string(options.epochs));
  audit->config.emplace_back("learning_rate", std::to_string(options.learning_rate));
  audit->config.emplace_back("size_penalty", std::to_string(options.size_penalty));
  audit->config.emplace_back("entropy_penalty", std::to_string(options.entropy_penalty));
  audit->config.emplace_back("seed", std::to_string(options.seed));
}

}  // namespace

Explanation GnnExplainerMethod::ExplainImpl(const ExplanationTask& task, Objective objective) {
  return ExplainBatchImpl({&task}, objective)[0];
}

std::vector<Explanation> GnnExplainerMethod::ExplainBatchImpl(
    const std::vector<const ExplanationTask*>& tasks, Objective objective) {
  return RunInGroups<Explanation>(
      tasks, [&](const std::vector<const ExplanationTask*>& group, const MegaBatchPlan& plan) {
        return ExplainGroup(group, plan, objective);
      });
}

std::vector<Explanation> GnnExplainerMethod::ExplainGroup(
    const std::vector<const ExplanationTask*>& tasks, const MegaBatchPlan& plan,
    Objective objective) {
  // An edgeless graph has no edge mask to learn: its explanation is OK with
  // no edge scores. A larger group holding one runs each task as its own
  // group of one (audit hooks shifted to that task's record), so the
  // batch-mates keep their solo bits.
  bool has_edgeless = false;
  for (int i = 0; i < plan.num_instances; ++i) has_edgeless |= plan.instance_base_edges(i) == 0;
  if (has_edgeless && tasks.size() > 1) {
    std::vector<Explanation> results;
    for (size_t i = 0; i < tasks.size(); ++i) {
      obs::AuditScope::SetInstanceBase(i);
      results.push_back(std::move(ExplainBatchImpl({tasks[i]}, objective)[0]));
    }
    obs::AuditScope::SetInstanceBase(0);
    return results;
  }
  for (size_t i = 0; i < tasks.size(); ++i) {
    AppendGnnExplainerAuditConfig(obs::AuditScope::Current(i), options_);
  }
  if (has_edgeless) return std::vector<Explanation>(1);
  const gnn::GnnModel& model = *tasks[0]->model;
  const int num_layers = model.num_layers();
  const int num_instances = plan.num_instances;
  const int total_mask_rows = plan.num_mask_rows();

  // One base-edge mask segment per instance. The concatenated base-edge
  // order IS the mega base-edge order (both are instance-major prefix sums
  // of instance_base_edges), so the layer mask is built directly in mega
  // layer-edge rows: an identity scatter places the base masks in the mega
  // base section and every row of the mega self-loop section
  // [total_base, total_mask_rows) is pinned at 1 (GNNExplainer does not mask
  // self-information). No per-epoch pack permutation is needed.
  MaskLearner learner;
  learner.optimize_span = "gnnexplainer.optimize";
  learner.extract_span = "gnnexplainer.extract";
  learner.epochs = options_.epochs;
  learner.learning_rate = options_.learning_rate;
  learner.seed = options_.seed;
  MaskParam mask_param;
  mask_param.init_scale = 0.1f;
  std::vector<int> base_seg;  // instance of each concatenated base-edge row
  std::vector<float> inv_base(num_instances);
  std::vector<int> target_classes(num_instances);
  for (int i = 0; i < num_instances; ++i) {
    const int num_base = plan.instance_base_edges(i);
    mask_param.rows.push_back(num_base);
    base_seg.insert(base_seg.end(), num_base, i);
    inv_base[i] = 1.0f / static_cast<float>(num_base);
    target_classes[i] = tasks[i]->target_class;
  }
  learner.params.push_back(std::move(mask_param));
  learner.plan_key = {static_cast<uint64_t>(total_mask_rows), static_cast<uint64_t>(num_layers),
                      static_cast<uint64_t>(objective == Objective::kFactual ? 1 : 0)};
  std::vector<int> base_to_mask_row(base_seg.size());
  std::iota(base_to_mask_row.begin(), base_to_mask_row.end(), 0);
  std::vector<float> self_ones(total_mask_rows, 0.0f);
  for (size_t r = base_seg.size(); r < self_ones.size(); ++r) self_ones[r] = 1.0f;
  const Tensor inv_base_vec = PooledColumn(inv_base);
  const std::vector<int>* node_to_graph = plan.node_task ? nullptr : &plan.node_to_graph;

  learner.build_loss = [&](const std::vector<Tensor>& params) {
    Tensor base_mask = tensor::Sigmoid(params[0]);
    Tensor layer_mask =
        tensor::Add(tensor::ScatterAddRows(base_mask, base_to_mask_row, total_mask_rows),
                    PooledColumn(self_ones));
    std::vector<Tensor> masks(num_layers, layer_mask);
    Tensor logits = model
                        .Run(plan.graph(), plan.mega_edges, plan.features, masks, node_to_graph,
                             num_instances)
                        .logits;

    // One shared row-softmax; each instance reads its own logits row, so
    // per-row values and gradients match the per-instance softmax bitwise.
    Tensor p = tensor::SelectMany(tensor::RowSoftmax(logits), plan.logit_row, target_classes);
    Tensor loss = objective == Objective::kFactual
                      ? tensor::Neg(tensor::Log(p))
                      : tensor::Neg(tensor::Log(tensor::AddScalar(tensor::Neg(p), 1.0f)));
    // Size regularizer: keep the kept-edge set small (factual) or the
    // removed-edge set small (counterfactual). Per-instance means are segment
    // sums over the contiguous parameter segments times 1/|E_i|.
    Tensor size_source = objective == Objective::kFactual
                             ? base_mask
                             : tensor::AddScalar(tensor::Neg(base_mask), 1.0f);
    Tensor size_term =
        tensor::Mul(InstanceSums(size_source, base_seg, num_instances), inv_base_vec);
    loss = tensor::Add(loss, tensor::MulScalar(size_term, options_.size_penalty));
    // Element-wise entropy pushes masks toward binary values.
    Tensor entropy = tensor::Neg(tensor::Add(
        tensor::Mul(base_mask, tensor::Log(base_mask)),
        tensor::Mul(tensor::AddScalar(tensor::Neg(base_mask), 1.0f),
                    tensor::Log(tensor::AddScalar(tensor::Neg(base_mask), 1.0f)))));
    Tensor entropy_term =
        tensor::Mul(InstanceSums(entropy, base_seg, num_instances), inv_base_vec);
    loss = tensor::Add(loss, tensor::MulScalar(entropy_term, options_.entropy_penalty));
    return MaskLearner::Step{loss, base_mask};
  };
  learner.mask_entropy = MeanSigmoidMaskEntropy;

  std::vector<Explanation> explanations(num_instances);
  learner.extract = [&](int i, const std::vector<Tensor>& segments) {
    const int num_base = segments[0].rows();
    const Tensor final_mask = tensor::Sigmoid(segments[0]);
    std::vector<double>& scores = explanations[i].edge_scores;
    scores.resize(num_base);
    for (int e = 0; e < num_base; ++e) {
      const double value = final_mask.At(e, 0);
      scores[e] = objective == Objective::kFactual ? value : 1.0 - value;
    }
    return std::vector<std::vector<double>*>{&scores};
  };
  const std::vector<util::Status> status = RunMaskDriver(tasks, learner);
  for (int i = 0; i < num_instances; ++i) explanations[i].status = status[i];
  return explanations;
}

}  // namespace revelio::explain
