#include "quality.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "eval/metrics.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

PanelScorer::PanelScorer(std::vector<PanelExplanation> panel, WorkloadResult* result)
    : panel_(std::move(panel)), result_(result) {
  for (const PanelExplanation& item : panel_) {
    const revelio::explain::Explanation& e = item.explanation;
    if (!e.status.ok() || !ScoresWellFormed(e.edge_scores, item.task.graph->num_edges())) {
      result_->Fail("panel explanation not OK and well formed: " + e.status.ToString());
      continue;
    }
    if (item.auc_eligible) {
      aucs_.push_back(revelio::eval::RocAuc(e.edge_scores, item.instance->edge_in_motif));
    }
    if (item.objective == revelio::explain::Objective::kFactual) factual_.push_back(&item);
  }
}

void PanelScorer::RunRound() {
  const bool first = round_pps_.empty();
  const int64_t start = NowNanos();
  size_t k = 0;
  for (const PanelExplanation* item : factual_) {
    for (double sparsity : kSparsityLadder) {
      double value = 0.0;
      {
        revelio::obs::ScopedSpan span("eval.FidelityMinus");
        value = revelio::eval::FidelityMinus(item->task, item->explanation.edge_scores, sparsity);
      }
      if (first) {
        if (!std::isfinite(value)) result_->Fail("non-finite Fidelity-");
        first_round_.push_back(value);
      } else if (value != first_round_[k]) {
        result_->Fail("Fidelity- differs between rounds");
      }
      ++k;
    }
  }
  const double round_seconds = static_cast<double>(NowNanos() - start) * 1e-9;
  seconds_ += round_seconds;
  probes_ += k;
  round_pps_.push_back(static_cast<double>(k) / round_seconds);
}

double PanelScorer::fidelity_eps() const {
  return round_pps_.empty() ? 0.0 : *std::max_element(round_pps_.begin(), round_pps_.end());
}

double PanelScorer::ms_per_probe() const {
  return Ratio(seconds_ * 1e3, static_cast<double>(probes_));
}

}  // namespace perfbench
