#ifndef PERFBENCH_QUALITY_H_
#define PERFBENCH_QUALITY_H_

// Explanation quality on the fixed panel (instances.h), scored off the
// timed path, and the timed Fidelity- probe rounds over the same panel.

#include <vector>

#include "common.h"
#include "eval/runner.h"
#include "explain/explainer.h"

namespace perfbench {

struct PanelExplanation {
  revelio::explain::ExplanationTask task;
  const revelio::eval::EvalInstance* instance = nullptr;
  bool auc_eligible = false;
  revelio::explain::Objective objective = revelio::explain::Objective::kFactual;
  revelio::explain::Explanation explanation;
};

class PanelScorer {
 public:
  // Checks that every panel explanation is OK and well formed (else a check
  // of `result` fails) and scores AUC. `result` must outlive it.
  PanelScorer(std::vector<PanelExplanation> panel, WorkloadResult* result);
  PanelScorer(const PanelScorer&) = delete;  // factual_ points into panel_
  PanelScorer& operator=(const PanelScorer&) = delete;

  // One timed round of Fidelity- probes: every factual explanation at every
  // sparsity of the ladder. Later rounds must reproduce the first.
  void RunRound();

  double auc() const { return Mean(aucs_); }                 // mean ROC-AUC
  size_t auc_samples() const { return aucs_.size(); }
  double fid_minus() const { return Mean(first_round_); }    // mean Fidelity-
  // Probes per second of the fastest round (README.md, "Noise").
  double fidelity_eps() const;
  double ms_per_probe() const;
  int rounds() const { return static_cast<int>(round_pps_.size()); }
  double seconds() const { return seconds_; }  // spent in rounds so far

 private:
  std::vector<PanelExplanation> panel_;
  std::vector<const PanelExplanation*> factual_;
  WorkloadResult* result_;
  std::vector<double> aucs_, first_round_, round_pps_;
  double seconds_ = 0.0;
  size_t probes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_QUALITY_H_
