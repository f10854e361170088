#ifndef PERFBENCH_INSTANCES_H_
#define PERFBENCH_INSTANCES_H_

// Workload inputs: a dataset, its pretrained GCN target (the Table V
// setting), the instances the run seed draws from it, and a fixed quality
// panel.

#include <string>
#include <vector>

#include "eval/runner.h"
#include "explain/explainer.h"

namespace perfbench {

struct TargetSpec {
  std::string dataset;
  int num_instances = 0;    // drawn by the run seed, explained on the timed path
  int panel_instances = 0;  // the quality panel (see TargetSet::panel)
  // Graph-classification generator size; 0 keeps the dataset's default.
  int num_graphs = 0;
  // Smallest instance kept, in edges (the repository's floor is 6).
  int min_edges = 0;
};

struct TargetSet {
  std::string dataset;
  revelio::eval::PreparedModel prepared;
  // Drawn by the run seed, one per stratum, in ascending flow order.
  std::vector<revelio::eval::EvalInstance> instances;
  // Drawn once from the deployment, the same for every seed. Quality (AUC,
  // Fidelity-) is scored on it: the explainers are deterministic, so the
  // quality metrics change only when the program's numerics change, and
  // Fidelity- probes do the same work in every run.
  std::vector<revelio::eval::EvalInstance> panel;
  // Per panel instance: scored for AUC. Needs a correct prediction, a
  // target in a motif (node tasks with motifs) and both classes in the edge
  // truth.
  std::vector<char> panel_auc_eligible;
  // Node tasks: the wall time of every k-hop extraction made while selecting.
  std::vector<double> khop_ms;
  int population = 0;  // candidates that passed the size and flow filters
};

// Report-line JSON describing the sets: dataset, accuracy, sizes.
std::string DescribeTargets(const std::vector<TargetSet>& sets);

// Generates the dataset and pretrains its GCN (both fixed; instances.cc says
// why), then selects instances by stratified sampling: candidates are ranked
// by flow count (the Table II cost factor) and one instance is drawn from
// each of N equal-count strata, so every draw presents the same cost
// profile. `seed` draws `instances`; the panel is drawn with a fixed seed.
// cora_like has no motif; its edge truth marks edges whose endpoints both
// carry the explained class in the planted partition.
TargetSet PrepareTargets(const TargetSpec& spec, uint64_t seed);

std::vector<revelio::explain::ExplanationTask> MakeTasks(
    const std::vector<revelio::eval::EvalInstance>& instances,
    const revelio::gnn::GnnModel* model);

}  // namespace perfbench

#endif  // PERFBENCH_INSTANCES_H_
