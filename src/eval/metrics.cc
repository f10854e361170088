#include "eval/metrics.h"

#include <algorithm>
#include <numeric>

#include "nn/loss.h"

namespace revelio::eval {

std::vector<int> RankEdges(const std::vector<double>& edge_scores) {
  std::vector<int> order(edge_scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return edge_scores[a] > edge_scores[b];
  });
  return order;
}

std::vector<double> SymmetrizeEdgeScores(const graph::Graph& graph,
                                         const std::vector<double>& edge_scores) {
  CHECK_EQ(static_cast<int>(edge_scores.size()), graph.num_edges());
  std::vector<double> result = edge_scores;
  for (int e = 0; e < graph.num_edges(); ++e) {
    const graph::Edge& edge = graph.edge(e);
    for (int r : graph.OutEdges(edge.dst)) {
      if (graph.edge(r).dst == edge.src) {
        const double mean = 0.5 * (edge_scores[e] + edge_scores[r]);
        result[e] = mean;
        break;
      }
    }
  }
  return result;
}

double ProbabilityWithoutEdges(const explain::ExplanationTask& task,
                               const std::vector<int>& removed_edges) {
  const graph::Graph reduced = task.graph->RemoveEdges(removed_edges);
  const tensor::Tensor logits = task.model->Logits(reduced, task.features);
  return nn::SoftmaxRow(logits, task.logit_row())[task.target_class];
}

namespace {

// The number of explanatory edges retained at the given sparsity level.
int KeptEdgeCount(int num_edges, double sparsity) {
  const int kept = static_cast<int>(num_edges * (1.0 - sparsity) + 0.5);
  return std::clamp(kept, 0, num_edges);
}

}  // namespace

double FidelityMinus(const explain::ExplanationTask& task,
                     const std::vector<double>& edge_scores, double sparsity) {
  CHECK_EQ(static_cast<int>(edge_scores.size()), task.graph->num_edges());
  const std::vector<int> order =
      RankEdges(SymmetrizeEdgeScores(*task.graph, edge_scores));
  const int kept = KeptEdgeCount(task.graph->num_edges(), sparsity);
  // Remove everything below the kept prefix.
  const std::vector<int> removed(order.begin() + kept, order.end());
  const double original = explain::PredictedProbability(task);
  return original - ProbabilityWithoutEdges(task, removed);
}

double FidelityPlus(const explain::ExplanationTask& task,
                    const std::vector<double>& edge_scores, double sparsity) {
  CHECK_EQ(static_cast<int>(edge_scores.size()), task.graph->num_edges());
  const std::vector<int> order =
      RankEdges(SymmetrizeEdgeScores(*task.graph, edge_scores));
  const int removed_count = KeptEdgeCount(task.graph->num_edges(), sparsity);
  // Remove the same number of edges as Fidelity- keeps, from the top.
  const std::vector<int> removed(order.begin(), order.begin() + removed_count);
  const double original = explain::PredictedProbability(task);
  return original - ProbabilityWithoutEdges(task, removed);
}

double RocAuc(const std::vector<double>& scores, const std::vector<char>& labels) {
  CHECK_EQ(scores.size(), labels.size());
  // Rank-sum (Mann-Whitney) formulation with midranks for ties.
  std::vector<int> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return scores[a] < scores[b]; });
  int64_t num_positive = 0;
  int64_t num_negative = 0;
  for (char l : labels) (l ? num_positive : num_negative) += 1;
  if (num_positive == 0 || num_negative == 0) return 0.5;

  double positive_rank_sum = 0.0;
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j + 1 < order.size() && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double midrank = 0.5 * (static_cast<double>(i + 1) + static_cast<double>(j + 1));
    for (size_t t = i; t <= j; ++t) {
      if (labels[order[t]]) positive_rank_sum += midrank;
    }
    i = j + 1;
  }
  const double u = positive_rank_sum -
                   static_cast<double>(num_positive) * (num_positive + 1) / 2.0;
  return u / (static_cast<double>(num_positive) * static_cast<double>(num_negative));
}

}  // namespace revelio::eval
