#ifndef REVELIO_CORE_REVELIO_H_
#define REVELIO_CORE_REVELIO_H_

// REVELIO: learning-based message-flow explanation (paper §IV).
//
// Given a pretrained GNN and one instance, Revelio learns one mask per
// message flow (M in R^{|F|}) plus a per-layer weight vector w in R^L:
//
//   omega[F]    = tanh(M)                                   (Eq. 4)
//   omega[e^l]  = sigmoid( sum_{F through (l,e)} omega[F] * exp(w_l) )  (Eq. 5/7)
//   m_ij^l      = MSG(...) * omega[e^l]                      (Eq. 6)
//
// trained with Adam on the factual objective -log P(c | G, F-hat) (Eq. 1) or
// the counterfactual objective -log(1 - P(c | ...)) (Eq. 2), each with the
// matching sparsity regularizer over flow-carrying layer edges (Eqs. 8/9).
//
// The output is flow-level importance in (-1, 1), translated into per-layer
// edge masks and per-edge scores. Counterfactual scores follow §IV-C:
// omega'[F] = -omega[F] and omega'[e] = 1 - omega[e], so higher always means
// more important.

#include <string>
#include <vector>

#include "explain/batch_runner.h"
#include "explain/explainer.h"
#include "flow/flow_scores.h"
#include "flow/message_flow.h"

namespace revelio::core {

struct RevelioOptions {
  int epochs = 150;              // paper default: 500 (use --full benches for that)
  float learning_rate = 0.01f;   // paper: 1e-2
  float alpha = 0.05f;           // sparsity strength, adapted per dataset in the paper
  int64_t max_flows = 500'000;   // feasibility cap; pre-screen with CountFlowsToTarget
  uint64_t seed = 7;
  // Ablation switches (bench_ablation_design):
  bool use_tanh_flow_masks = true;    // false -> sigmoid (paper argues tanh is better)
  enum class LayerScaling { kExp, kSoftplus, kNone };
  LayerScaling layer_scaling = LayerScaling::kExp;

  // §VI future work, implemented: prefilter to the k most promising flows
  // before mask learning (0 = disabled). A single gradient pass at
  // initialization scores every flow by |d objective / d M_k|; only the
  // top-k flows' masks are then optimized (the rest score 0), cutting the
  // per-epoch O(L|F|) mask bookkeeping to O(L k).
  int prefilter_top_k = 0;
};

class RevelioExplainer : public explain::Explainer {
 public:
  explicit RevelioExplainer(const RevelioOptions& options) : options_(options) {}

  std::string name() const override { return "Revelio"; }
  bool supports_counterfactual() const override { return true; }

  // Full flow-level result, used by the qualitative studies (Tables VI/VII).
  struct FlowExplanation {
    // Ok for a produced explanation; otherwise the task's rejection or a
    // numeric fault, and the score vectors are empty.
    util::Status status = util::Status::Ok();
    flow::FlowSet flows;
    std::vector<double> flow_scores;  // omega[F], negated for counterfactual
    std::vector<std::vector<double>> layer_edge_masks;  // sigmoid outputs, [L][E_layer]
    std::vector<double> edge_scores;  // per base edge
    std::vector<double> layer_weights;  // learned w (length L)
  };
  // A single explanation is a group of one: ExplainFlowsBatch({&task})[0].
  FlowExplanation ExplainFlows(const explain::ExplanationTask& task,
                               explain::Objective objective);

  // A group of tasks sharing one (frozen) model: the group's computation
  // subgraphs fuse into a block-diagonal mega-graph and train on the mask
  // driver (explain/mask_driver.h) with one shared forward/backward per Adam
  // step. Per-instance masks stay independent variables, the batched loss is
  // the sum of the per-instance losses, and every result is bitwise-equal to
  // explaining the task alone. A group BuildMegaBatchPlan rejects runs each
  // task as a group of one.
  std::vector<FlowExplanation> ExplainFlowsBatch(
      const std::vector<const explain::ExplanationTask*>& tasks,
      explain::Objective objective);

  bool supports_megabatch() const override { return true; }

  const RevelioOptions& options() const { return options_; }
  void set_alpha(float alpha) { options_.alpha = alpha; }

 protected:
  explain::Explanation ExplainImpl(const explain::ExplanationTask& task,
                                   explain::Objective objective) override;
  std::vector<explain::Explanation> ExplainBatchImpl(
      const std::vector<const explain::ExplanationTask*>& tasks,
      explain::Objective objective) override;

 private:
  std::vector<FlowExplanation> ExplainGroup(
      const std::vector<const explain::ExplanationTask*>& tasks,
      const explain::MegaBatchPlan& plan, explain::Objective objective);

  RevelioOptions options_;
};

}  // namespace revelio::core

#endif  // REVELIO_CORE_REVELIO_H_
