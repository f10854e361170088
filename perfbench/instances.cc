#include "instances.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common.h"
#include "datasets/dataset.h"
#include "flow/message_flow.h"
#include "gnn/layer_edges.h"
#include "gnn/trainer.h"
#include "graph/subgraph.h"
#include "nn/loss.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {

namespace rv = revelio;

namespace {

// The deployment — datasets and their trained target models — is fixed, as
// a served model is; the run seed draws everything sent to it: instances,
// the arrival schedule and the explainers' seeds. Seed 1 is the repository's
// default RunnerConfig seed, and at it every target reaches its Table III
// accuracy band (the pretraining does not on every seed: tree_cycles lands
// on the majority class for about half of seeds 1-10).
constexpr uint64_t kDeploymentSeed = 1;
constexpr double kTailTrim = 0.02;

// eval::PrepareModel builds each dataset at its default size. ba_2motifs'
// default (1,000 graphs, 300 epochs) takes longer to pretrain than a whole
// run measures, so the benchmark trains the same model configuration, as
// PrepareModel sets it for graph tasks, on a smaller draw of the generator.
rv::eval::PreparedModel PretrainSized(const TargetSpec& spec, uint64_t seed) {
  CHECK(spec.dataset == "ba_2motifs") << "sized generator only for ba_2motifs";
  rv::eval::PreparedModel prepared;
  prepared.dataset = rv::datasets::MakeBa2Motifs(seed, spec.num_graphs);
  prepared.arch = rv::gnn::GnnArch::kGcn;
  rv::gnn::GnnConfig config;
  config.arch = rv::gnn::GnnArch::kGcn;
  config.task = prepared.dataset.task;
  config.input_dim = prepared.dataset.feature_dim;
  config.hidden_dim = 32;
  config.num_classes = prepared.dataset.num_classes;
  config.num_layers = 3;
  config.gcn_normalize = false;
  config.seed = seed + 1000;
  prepared.model = std::make_unique<rv::gnn::GnnModel>(config);
  rv::gnn::TrainConfig train;
  train.epochs = rv::eval::DefaultGnnTrainEpochs(spec.dataset);
  rv::util::Rng split_rng(seed + 7);
  const rv::gnn::Split split =
      rv::gnn::MakeSplit(prepared.dataset.num_graphs(), 0.8, 0.1, &split_rng);
  prepared.metrics =
      rv::gnn::TrainGraphModel(prepared.model.get(), prepared.dataset.instances, split, train);
  prepared.model->Freeze();
  return prepared;
}

struct Candidate {
  int64_t flows = 0;
  int edges = 0;
  int id = 0;  // node id (node tasks) or graph id
};

bool BothClasses(const std::vector<char>& truth) {
  const bool any_true = std::find(truth.begin(), truth.end(), 1) != truth.end();
  const bool any_false = std::find(truth.begin(), truth.end(), 0) != truth.end();
  return any_true && any_false;
}

// One candidate per equal-count stratum of the flow-ranked population, all
// at one seeded offset within their stratum (systematic sampling), in
// ascending flow order. Consecutive instances have similar cost, so batch
// jobs of consecutive tasks have the same profile for every seed, and a
// draw's total cost varies little between seeds. The top kTailTrim of the
// ranking is left out: it is so wide that the one instance a seed drew from
// it would set the slowest job on its own.
std::vector<Candidate> Stratify(const std::vector<Candidate>& ranked, int count,
                                rv::util::Rng* rng) {
  const int n = static_cast<int>(static_cast<double>(ranked.size()) * (1.0 - kTailTrim));
  CHECK_GE(n, count) << "population too small to stratify";
  const double offset = rng->Uniform();
  std::vector<Candidate> picked;
  picked.reserve(count);
  for (int s = 0; s < count; ++s) {
    const int begin = static_cast<int>(static_cast<int64_t>(s) * n / count);
    const int end = static_cast<int>(static_cast<int64_t>(s + 1) * n / count);
    picked.push_back(ranked[begin + static_cast<int>(offset * (end - begin))]);
  }
  return picked;
}

rv::eval::EvalInstance MakeInstance(const rv::datasets::Dataset& dataset,
                                    const rv::gnn::GnnModel& model, const Candidate& pick) {
  const int layers = model.num_layers();
  rv::eval::EvalInstance instance;
  int true_label = 0;
  instance.target_in_motif = true;
  if (dataset.is_node_task()) {
    const rv::graph::GraphInstance& whole = dataset.instances[0];
    rv::graph::Subgraph sub = rv::graph::ExtractKHopInSubgraph(whole.graph, pick.id, layers);
    instance.features = rv::graph::SliceRows(whole.features, sub.node_map);
    instance.target_node = sub.target_local;
    instance.graph = std::move(sub.graph);
    true_label = whole.labels[pick.id];
    instance.target_class =
        rv::nn::ArgmaxRow(model.Logits(instance.graph, instance.features), instance.target_node);
    instance.edge_in_motif.resize(instance.graph.num_edges());
    for (int e = 0; e < instance.graph.num_edges(); ++e) {
      const rv::graph::Edge& edge = instance.graph.edge(e);
      instance.edge_in_motif[e] =
          dataset.has_ground_truth
              ? dataset.edge_in_motif[0][sub.edge_map[e]]
              : (whole.labels[sub.node_map[edge.src]] == instance.target_class &&
                 whole.labels[sub.node_map[edge.dst]] == instance.target_class);
    }
    if (dataset.has_ground_truth) instance.target_in_motif = dataset.node_in_motif[0][pick.id];
  } else {
    const rv::graph::GraphInstance& whole = dataset.instances[pick.id];
    instance.graph = whole.graph;
    instance.features = whole.features;
    true_label = whole.labels[0];
    instance.target_class = rv::nn::ArgmaxRow(model.Logits(instance.graph, instance.features), 0);
    if (dataset.has_ground_truth) instance.edge_in_motif = dataset.edge_in_motif[pick.id];
  }
  instance.correct_prediction = instance.target_class == true_label;
  instance.num_flows = pick.flows;
  return instance;
}

}  // namespace

TargetSet PrepareTargets(const TargetSpec& spec, uint64_t seed) {
  TargetSet set;
  set.dataset = spec.dataset;
  rv::eval::RunnerConfig config;
  config.seed = kDeploymentSeed;
  set.prepared = spec.num_graphs > 0
                     ? PretrainSized(spec, config.seed)
                     : rv::eval::PrepareModel(spec.dataset, rv::gnn::GnnArch::kGcn, config);
  const rv::gnn::GnnModel& model = *set.prepared.model;
  const rv::datasets::Dataset& dataset = set.prepared.dataset;
  const int layers = model.num_layers();
  const int min_edges = std::max(config.min_instance_edges, spec.min_edges);

  std::vector<Candidate> population;
  if (dataset.is_node_task()) {
    const rv::graph::Graph& graph = dataset.instances[0].graph;
    for (int v = 0; v < graph.num_nodes(); ++v) {
      const int64_t start = NowNanos();
      const rv::graph::Subgraph sub = rv::graph::ExtractKHopInSubgraph(graph, v, layers);
      set.khop_ms.push_back(static_cast<double>(NowNanos() - start) * 1e-6);
      if (sub.graph.num_edges() < min_edges) continue;
      const int64_t flows = rv::flow::CountFlowsToTarget(rv::gnn::BuildLayerEdges(sub.graph),
                                                         sub.target_local, layers);
      if (flows > config.max_flows) continue;
      population.push_back({flows, sub.graph.num_edges(), v});
    }
  } else {
    for (int g = 0; g < dataset.num_graphs(); ++g) {
      const rv::graph::Graph& graph = dataset.instances[g].graph;
      if (graph.num_edges() < min_edges) continue;
      const int64_t flows = rv::flow::CountAllFlows(rv::gnn::BuildLayerEdges(graph), layers);
      if (flows > config.max_flows) continue;
      population.push_back({flows, graph.num_edges(), g});
    }
  }
  set.population = static_cast<int>(population.size());
  std::sort(population.begin(), population.end(), [](const Candidate& a, const Candidate& b) {
    if (a.flows != b.flows) return a.flows < b.flows;
    if (a.edges != b.edges) return a.edges < b.edges;
    return a.id < b.id;
  });

  rv::util::Rng rng(seed + 31);
  for (const Candidate& pick : Stratify(population, spec.num_instances, &rng)) {
    set.instances.push_back(MakeInstance(dataset, model, pick));
  }
  rv::util::Rng panel_rng(kDeploymentSeed + 37);
  for (const Candidate& pick : Stratify(population, spec.panel_instances, &panel_rng)) {
    rv::eval::EvalInstance instance = MakeInstance(dataset, model, pick);
    set.panel_auc_eligible.push_back(instance.correct_prediction && instance.target_in_motif &&
                                     BothClasses(instance.edge_in_motif));
    set.panel.push_back(std::move(instance));
  }
  return set;
}

std::vector<rv::explain::ExplanationTask> MakeTasks(
    const std::vector<rv::eval::EvalInstance>& instances, const rv::gnn::GnnModel* model) {
  std::vector<rv::explain::ExplanationTask> tasks;
  tasks.reserve(instances.size());
  for (const rv::eval::EvalInstance& instance : instances) tasks.push_back(instance.MakeTask(model));
  return tasks;
}

std::string DescribeTargets(const std::vector<TargetSet>& sets) {
  std::string json = "[";
  for (const TargetSet& set : sets) {
    if (json.size() > 1) json += ",";
    json += "{\"dataset\":\"" + set.dataset +
            "\",\"train_accuracy\":" + std::to_string(set.prepared.metrics.train_accuracy) +
            ",\"instances\":" + std::to_string(set.instances.size()) +
            ",\"panel\":" + std::to_string(set.panel.size()) +
            ",\"population\":" + std::to_string(set.population) + "}";
  }
  return json + "]";
}

}  // namespace perfbench
