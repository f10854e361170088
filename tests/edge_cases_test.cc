// Numerical and structural edge cases across modules: extreme inputs to the
// tensor ops, degenerate graphs, and graph-task fidelity behavior.

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/revelio.h"

#include "eval/metrics.h"
#include "eval/runner.h"
#include "explain/explainer.h"
#include "flow/message_flow.h"
#include "gnn/trainer.h"
#include "nn/loss.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace revelio {
namespace {

using tensor::Tensor;

TEST(NumericalEdgeCases, SoftmaxSurvivesExtremeLogits) {
  Tensor logits = Tensor::FromData(2, 3, {1000.0f, 0.0f, -1000.0f, -1e30f, -1e30f, -1e30f});
  Tensor probs = tensor::RowSoftmax(logits);
  EXPECT_NEAR(probs.At(0, 0), 1.0f, 1e-5);
  EXPECT_NEAR(probs.At(0, 2), 0.0f, 1e-5);
  // Row of equal extreme values stays uniform, not NaN.
  for (int c = 0; c < 3; ++c) {
    EXPECT_FALSE(std::isnan(probs.At(1, c)));
    EXPECT_NEAR(probs.At(1, c), 1.0f / 3.0f, 1e-5);
  }
  Tensor log_probs = tensor::RowLogSoftmax(logits);
  EXPECT_FALSE(std::isnan(log_probs.At(0, 2)));
}

TEST(NumericalEdgeCases, LogOfZeroIsClamped) {
  Tensor p = Tensor::FromData(1, 1, {0.0f});
  EXPECT_TRUE(std::isfinite(tensor::Log(p).Value()));
}

TEST(NumericalEdgeCases, ObjectivesAtProbabilityExtremes) {
  // P(c) ~ 1: factual loss ~ 0, counterfactual loss large but finite.
  Tensor confident = Tensor::FromData(1, 2, {50.0f, -50.0f});
  EXPECT_NEAR(nn::FactualObjective(confident, 0, 0).Value(), 0.0f, 1e-4);
  EXPECT_TRUE(std::isfinite(nn::CounterfactualObjective(confident, 0, 0).Value()));
  EXPECT_GT(nn::CounterfactualObjective(confident, 0, 0).Value(), 5.0f);
}

TEST(NumericalEdgeCases, SoftplusLargeInputsLinear) {
  Tensor x = Tensor::FromData(1, 2, {80.0f, -80.0f});
  Tensor y = tensor::Softplus(x);
  EXPECT_NEAR(y.At(0, 0), 80.0f, 1e-3);
  EXPECT_NEAR(y.At(0, 1), 0.0f, 1e-3);
}

TEST(StructuralEdgeCases, SingleNodeGraphForward) {
  graph::Graph g(1);
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.input_dim = 3;
  config.hidden_dim = 4;
  config.num_classes = 2;
  gnn::GnnModel model(config);
  util::Rng rng(3);
  Tensor logits = model.Logits(g, Tensor::Randn(1, 3, &rng));
  EXPECT_EQ(logits.rows(), 1);
  for (int c = 0; c < 2; ++c) EXPECT_TRUE(std::isfinite(logits.At(0, c)));
}

TEST(StructuralEdgeCases, EdgelessGraphStillHasSelfLoopFlows) {
  graph::Graph g(3);
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(g);
  EXPECT_EQ(edges.num_base_edges, 0);
  EXPECT_EQ(edges.num_layer_edges(), 3);
  EXPECT_EQ(flow::CountAllFlows(edges, 3), 3);
  flow::FlowSet flows = flow::EnumerateAllFlows(edges, 3);
  EXPECT_EQ(flows.num_flows(), 3);
}

TEST(StructuralEdgeCases, FlowEnumerationMaxFlowsGuard) {
  graph::Graph g(4);
  g.AddUndirectedEdge(0, 1);
  g.AddUndirectedEdge(1, 2);
  g.AddUndirectedEdge(2, 3);
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(g);
  const int64_t count = flow::CountFlowsToTarget(edges, 1, 3);
  EXPECT_DEATH(flow::EnumerateFlowsToTarget(edges, 1, 3, count - 1), "max_flows");
  // Exactly at the bound succeeds.
  EXPECT_EQ(flow::EnumerateFlowsToTarget(edges, 1, 3, count).num_flows(), count);
}

TEST(StructuralEdgeCases, GraphTaskFidelityUsesGraphProbability) {
  // A graph classifier whose prediction depends on edges: check that the
  // fidelity protocol moves the probability for graph tasks too.
  util::Rng rng(11);
  std::vector<graph::GraphInstance> instances;
  for (int i = 0; i < 40; ++i) {
    const int label = i % 2;
    graph::GraphInstance instance;
    instance.graph = graph::Graph(6);
    // Label 1: a 6-cycle; label 0: a path (same nodes, one fewer edge).
    for (int v = 0; v + 1 < 6; ++v) instance.graph.AddUndirectedEdge(v, v + 1);
    if (label == 1) instance.graph.AddUndirectedEdge(5, 0);
    instance.features = Tensor::Ones(6, 3);
    instance.labels = {label};
    instances.push_back(std::move(instance));
  }
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGin;
  config.task = gnn::TaskType::kGraphClassification;
  config.input_dim = 3;
  config.hidden_dim = 8;
  config.num_classes = 2;
  gnn::GnnModel model(config);
  gnn::Split split = gnn::MakeSplit(40, 0.7, 0.15, &rng);
  gnn::TrainConfig train_config;
  train_config.epochs = 120;
  const auto metrics = gnn::TrainGraphModel(&model, instances, split, train_config);
  ASSERT_GT(metrics.test_accuracy, 0.8) << "cycle-vs-path should be learnable";

  explain::ExplanationTask task;
  task.model = &model;
  task.graph = &instances[1].graph;  // a cycle instance
  task.features = instances[1].features;
  task.target_node = -1;
  task.target_class = explain::PredictedClass(task);

  // Removing the whole graph's edges must change the class probability.
  std::vector<int> all_edges(task.graph->num_edges());
  for (int e = 0; e < task.graph->num_edges(); ++e) all_edges[e] = e;
  const double with_edges = explain::PredictedProbability(task);
  const double without_edges = eval::ProbabilityWithoutEdges(task, all_edges);
  EXPECT_GT(std::fabs(with_edges - without_edges), 0.05);
}

TEST(StructuralEdgeCases, FidelityHandlesAllOrNothingSparsity) {
  graph::Graph g(4);
  g.AddUndirectedEdge(0, 1);
  g.AddUndirectedEdge(1, 2);
  g.AddUndirectedEdge(2, 3);
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.input_dim = 2;
  config.hidden_dim = 4;
  config.num_classes = 2;
  gnn::GnnModel model(config);
  util::Rng rng(5);
  explain::ExplanationTask task;
  task.model = &model;
  task.graph = &g;
  task.features = Tensor::Randn(4, 2, &rng);
  task.target_node = 1;
  task.target_class = 0;
  const std::vector<double> scores = {0.9, 0.8, 0.7, 0.6, 0.5, 0.4};
  // Fidelity- at sparsity 0 keeps everything (no drop); at sparsity 1 it
  // removes every edge but must stay finite. Fidelity+ removes the
  // explanatory set, which is empty at sparsity 1 (no drop) and the whole
  // graph at sparsity 0.
  EXPECT_NEAR(eval::FidelityMinus(task, scores, 0.0), 0.0, 1e-6);
  EXPECT_TRUE(std::isfinite(eval::FidelityMinus(task, scores, 1.0)));
  EXPECT_NEAR(eval::FidelityPlus(task, scores, 1.0), 0.0, 1e-6);
  EXPECT_NEAR(eval::FidelityPlus(task, scores, 0.0),
              eval::FidelityMinus(task, scores, 1.0), 1e-6)
      << "removing all edges is the same subgraph under both protocols";
}

TEST(StructuralEdgeCases, ExplainAllSurvivesAnInvalidTaskMidBatch) {
  // A task that fails validation must not abort the whole batch: its slot
  // carries the error (empty scores) and every valid neighbor still produces
  // the same bits as explaining it alone.
  const int n = 6;
  graph::Graph graph(n);
  for (int v = 0; v < n; ++v) graph.AddUndirectedEdge(v, (v + 1) % n);
  util::Rng rng(11);
  Tensor features = Tensor::Uniform(n, 3, -1.0f, 1.0f, &rng);

  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.input_dim = 3;
  config.hidden_dim = 4;
  config.num_classes = 2;
  config.num_layers = 2;
  gnn::GnnModel model(config);
  model.Freeze();

  auto make_task = [&](int target_node) {
    explain::ExplanationTask task;
    task.model = &model;
    task.graph = &graph;
    task.features = features;
    task.target_node = target_node;
    task.target_class = 0;
    return task;
  };
  std::vector<explain::ExplanationTask> tasks{make_task(0), make_task(99), make_task(3)};

  eval::RunnerConfig runner_config;
  runner_config.explainer_epochs = 4;
  std::unique_ptr<explain::Explainer> explainer = eval::MakeExplainer("Revelio", runner_config);
  std::vector<explain::Explanation> batch =
      eval::ExplainAll(explainer.get(), tasks, explain::Objective::kFactual);

  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[1].status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(batch[1].edge_scores.empty());
  EXPECT_TRUE(batch[0].status.ok());
  EXPECT_TRUE(batch[2].status.ok());

  std::unique_ptr<explain::Explainer> solo = eval::MakeExplainer("Revelio", runner_config);
  explain::Explanation alone0 = solo->Explain(tasks[0], explain::Objective::kFactual);
  explain::Explanation alone2 = solo->Explain(tasks[2], explain::Objective::kFactual);
  EXPECT_EQ(batch[0].edge_scores, alone0.edge_scores);
  EXPECT_EQ(batch[2].edge_scores, alone2.edge_scores);
}

// Hostile feature values. NaN and +Inf fail task validation; 3e38 is finite
// and passes it, but overflows inside the GNN, so the mask driver's
// finite-output check must catch it. Either way no explanation may come
// back OK with a non-finite score.
class HostileFeatureTest : public ::testing::TestWithParam<float> {
 protected:
  static constexpr int kNodes = 8;
  static constexpr int kFeatureDim = 3;

  HostileFeatureTest() : graph_(kNodes) {
    for (int v = 0; v < kNodes; ++v) graph_.AddUndirectedEdge(v, (v + 1) % kNodes);
    gnn::GnnConfig config;
    config.arch = gnn::GnnArch::kGcn;
    config.input_dim = kFeatureDim;
    config.hidden_dim = 4;
    config.num_classes = 2;
    config.num_layers = 2;
    model_ = std::make_unique<gnn::GnnModel>(config);
    model_->Freeze();
    runner_config_.explainer_epochs = 5;
  }

  // Features for task `seed`; when `poisoned`, the target node's row holds
  // the hostile value.
  Tensor Features(uint64_t seed, bool poisoned) const {
    util::Rng rng(seed);
    Tensor features = Tensor::Uniform(kNodes, kFeatureDim, -1.0f, 1.0f, &rng);
    if (poisoned) {
      for (int c = 0; c < kFeatureDim; ++c) (*features.mutable_values())[c] = GetParam();
    }
    return features;
  }

  explain::ExplanationTask Task(const Tensor& features, int target_node) const {
    explain::ExplanationTask task;
    task.model = model_.get();
    task.graph = &graph_;
    task.features = features;
    task.target_node = target_node;
    task.target_class = 0;
    return task;
  }

  std::unique_ptr<explain::Explainer> MakeMethod(const std::string& name) const {
    return eval::MakeExplainer(name, runner_config_);
  }

  graph::Graph graph_;
  std::unique_ptr<gnn::GnnModel> model_;
  eval::RunnerConfig runner_config_;
};

bool AllFinite(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

TEST_P(HostileFeatureTest, ValidationRejectsOnlyNonFiniteFeatures) {
  const Tensor features = Features(1, /*poisoned=*/true);
  const util::Status status = explain::ValidateExplanationTask(Task(features, 0));
  if (std::isfinite(GetParam())) {
    EXPECT_TRUE(status.ok()) << status.ToString();
  } else {
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  }
}

TEST_P(HostileFeatureTest, ExplainAndExplainFlowsReturnNonOk) {
  const Tensor features = Features(1, /*poisoned=*/true);
  const explain::ExplanationTask task = Task(features, 0);
  for (const std::string method : {"Revelio", "GNNExplainer"}) {
    const explain::Explanation result =
        MakeMethod(method)->Explain(task, explain::Objective::kFactual);
    EXPECT_FALSE(result.status.ok()) << method;
    EXPECT_TRUE(result.edge_scores.empty()) << method;
    EXPECT_TRUE(result.flow_scores.empty()) << method;
  }
  core::RevelioOptions options;
  options.epochs = 5;
  const core::RevelioExplainer::FlowExplanation flows =
      core::RevelioExplainer(options).ExplainFlows(task, explain::Objective::kFactual);
  EXPECT_FALSE(flows.status.ok());
  EXPECT_TRUE(flows.edge_scores.empty());
  EXPECT_TRUE(flows.flow_scores.empty());
}

// A poisoned task inside a 4-task batch fails alone: its batch-mates come
// back OK with the same bits as their solo runs.
TEST_P(HostileFeatureTest, PoisonedTaskFailsAloneInBatch) {
  std::vector<Tensor> features;
  for (int i = 0; i < 4; ++i) features.push_back(Features(10 + i, /*poisoned=*/i == 2));
  std::vector<explain::ExplanationTask> tasks;
  for (int i = 0; i < 4; ++i) tasks.push_back(Task(features[i], i == 2 ? 0 : i + 1));
  std::vector<const explain::ExplanationTask*> group;
  for (const auto& task : tasks) group.push_back(&task);

  for (const std::string method : {"Revelio", "GNNExplainer"}) {
    for (const auto objective :
         {explain::Objective::kFactual, explain::Objective::kCounterfactual}) {
      const std::string context = method + " " + explain::ObjectiveName(objective);
      const std::vector<explain::Explanation> batch =
          MakeMethod(method)->ExplainBatch(group, objective);
      ASSERT_EQ(batch.size(), 4u) << context;
      EXPECT_FALSE(batch[2].status.ok()) << context;
      EXPECT_TRUE(batch[2].edge_scores.empty()) << context;
      for (int i : {0, 1, 3}) {
        ASSERT_TRUE(batch[i].status.ok()) << context << " " << batch[i].status.ToString();
        EXPECT_TRUE(AllFinite(batch[i].edge_scores)) << context;
        const explain::Explanation solo = MakeMethod(method)->Explain(tasks[i], objective);
        EXPECT_EQ(batch[i].edge_scores, solo.edge_scores) << context << " instance " << i;
        EXPECT_EQ(batch[i].flow_scores, solo.flow_scores) << context << " instance " << i;
      }
    }
  }
}

// The serving engine refuses non-finite features at admission; a finite but
// overflowing request is served with a non-OK status, never OK + NaN.
TEST_P(HostileFeatureTest, ServerNeverAnswersOkWithNonFiniteScores) {
  serve::ModelRegistry registry;
  gnn::GnnConfig config = model_->config();
  auto model = std::make_unique<gnn::GnnModel>(config);
  ASSERT_TRUE(registry.Register("m", std::move(model)).ok());
  serve::ServeOptions options;
  options.explainer_epochs = 5;
  serve::ExplanationServer server(&registry, options);
  for (const std::string method : {"Revelio", "GNNExplainer"}) {
    serve::ExplainRequest request;
    request.model = "m";
    request.method = method;
    request.graph = graph_;
    request.features = Features(1, /*poisoned=*/true);
    request.target_node = 0;
    auto submitted = server.TrySubmit(std::move(request));
    if (!std::isfinite(GetParam())) {
      EXPECT_EQ(submitted.status().code(), util::StatusCode::kInvalidArgument) << method;
      continue;
    }
    ASSERT_TRUE(submitted.ok()) << method << " " << submitted.status().ToString();
    EXPECT_EQ(server.RunOnce().ran, 1) << method;
    const serve::ExplainResponse response = std::move(submitted).value().get();
    EXPECT_FALSE(response.status.ok()) << method;
    EXPECT_TRUE(response.explanation.edge_scores.empty()) << method;
  }
  server.Shutdown(serve::ExplanationServer::DrainMode::kDrain);
}

INSTANTIATE_TEST_SUITE_P(NanInfAndHuge, HostileFeatureTest,
                         ::testing::Values(std::numeric_limits<float>::quiet_NaN(),
                                           std::numeric_limits<float>::infinity(), 3e38f));

// An edgeless graph is degenerate but valid. GNNExplainer has no edge mask to
// learn on it and answers OK with no edge scores: through Explain, inside a
// mixed batch (whose other tasks keep their solo bits), and through the
// server.
class EdgelessGraphTest : public ::testing::Test {
 protected:
  static constexpr int kFeatureDim = 3;

  EdgelessGraphTest() : edgeless_(3), ring_(6) {
    for (int v = 0; v < 6; ++v) ring_.AddUndirectedEdge(v, (v + 1) % 6);
    gnn::GnnConfig config;
    config.arch = gnn::GnnArch::kGcn;
    config.input_dim = kFeatureDim;
    config.hidden_dim = 4;
    config.num_classes = 2;
    config.num_layers = 2;
    model_ = std::make_unique<gnn::GnnModel>(config);
    model_->Freeze();
    runner_config_.explainer_epochs = 5;
  }

  static Tensor Features(const graph::Graph& graph, uint64_t seed) {
    util::Rng rng(seed);
    return Tensor::Uniform(graph.num_nodes(), kFeatureDim, -1.0f, 1.0f, &rng);
  }

  explain::ExplanationTask Task(const graph::Graph& graph, uint64_t seed, int target_node) const {
    explain::ExplanationTask task;
    task.model = model_.get();
    task.graph = &graph;
    task.features = Features(graph, seed);
    task.target_node = target_node;
    return task;
  }

  std::unique_ptr<explain::Explainer> GnnExplainer() const {
    return eval::MakeExplainer("GNNExplainer", runner_config_);
  }

  graph::Graph edgeless_;
  graph::Graph ring_;
  std::unique_ptr<gnn::GnnModel> model_;
  eval::RunnerConfig runner_config_;
};

TEST_F(EdgelessGraphTest, GnnExplainerAnswersOkWithNoEdgeScores) {
  const explain::ExplanationTask task = Task(edgeless_, 1, 1);
  ASSERT_TRUE(explain::ValidateExplanationTask(task).ok());
  for (const auto objective :
       {explain::Objective::kFactual, explain::Objective::kCounterfactual}) {
    const explain::Explanation result = GnnExplainer()->Explain(task, objective);
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_TRUE(result.edge_scores.empty());
  }
}

TEST_F(EdgelessGraphTest, BatchMatesKeepTheirSoloBits) {
  std::vector<explain::ExplanationTask> tasks = {Task(ring_, 10, 0), Task(edgeless_, 11, 2),
                                                 Task(ring_, 12, 3)};
  std::vector<const explain::ExplanationTask*> group;
  for (const auto& task : tasks) group.push_back(&task);
  for (const auto objective :
       {explain::Objective::kFactual, explain::Objective::kCounterfactual}) {
    const std::vector<explain::Explanation> batch = GnnExplainer()->ExplainBatch(group, objective);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_TRUE(batch[1].status.ok()) << batch[1].status.ToString();
    EXPECT_TRUE(batch[1].edge_scores.empty());
    for (int i : {0, 2}) {
      ASSERT_TRUE(batch[i].status.ok()) << batch[i].status.ToString();
      EXPECT_EQ(batch[i].edge_scores.size(), static_cast<size_t>(ring_.num_edges()));
      EXPECT_EQ(batch[i].edge_scores, GnnExplainer()->Explain(tasks[i], objective).edge_scores)
          << "instance " << i;
    }
  }
}

TEST_F(EdgelessGraphTest, ServerAnswersOk) {
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Register("m", std::make_unique<gnn::GnnModel>(model_->config())).ok());
  serve::ServeOptions options;
  options.explainer_epochs = 5;
  serve::ExplanationServer server(&registry, options);
  for (const std::string method : {"GNNExplainer", "Revelio"}) {
    serve::ExplainRequest request;
    request.model = "m";
    request.method = method;
    request.graph = edgeless_;
    request.features = Features(edgeless_, 20);
    request.target_node = 0;
    auto submitted = server.TrySubmit(std::move(request));
    ASSERT_TRUE(submitted.ok()) << method << " " << submitted.status().ToString();
    EXPECT_EQ(server.RunOnce().ran, 1) << method;
    const serve::ExplainResponse response = std::move(submitted).value().get();
    EXPECT_TRUE(response.status.ok()) << method << " " << response.status.ToString();
    EXPECT_TRUE(response.explanation.edge_scores.empty()) << method;
  }
  server.Shutdown(serve::ExplanationServer::DrainMode::kDrain);
}

}  // namespace
}  // namespace revelio
