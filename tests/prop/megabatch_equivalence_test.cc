// Mask-driver equivalence: every explanation — a group of one or a fused
// block-diagonal mega-batch (explain/mask_driver.h) — must be BITWISE-equal
// to the plain eager reference learners in prop/prop_util.h, which train one
// instance on its own graph with no plan, pool scope, audit or batching.
// Covered: groups of 1, 2, 7 and 32; both objectives; node and graph tasks;
// the §VI prefilter on and off; all three layer scalings; threads
// {1, 2, 7, 16} x pool on/off x plan on/off; eval::ExplainAll's grouping;
// and a mixed group BuildMegaBatchPlan rejects.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/revelio.h"
#include "explain/batch_runner.h"
#include "explain/explainer.h"
#include "explain/gnnexplainer.h"
#include "eval/runner.h"
#include "flow/flow_scores.h"
#include "gnn/model.h"
#include "graph/graph.h"
#include "plan/plan.h"
#include "prop/prop_util.h"
#include "tensor/pool.h"
#include "util/parallel.h"
#include "util/proptest.h"
#include "util/rng.h"

namespace revelio::proptest {
namespace {

using tensor::Tensor;
using FlowExplanation = core::RevelioExplainer::FlowExplanation;

constexpr uint64_t kSeed = 20260808;
constexpr int kFeatureDim = 4;
constexpr explain::Objective kObjectives[] = {explain::Objective::kFactual,
                                              explain::Objective::kCounterfactual};

// Self-owning task storage (ExplanationTask holds pointers).
struct TaskData {
  graph::Graph graph;
  Tensor features;
  int target_node = -1;
  int target_class = 0;

  explain::ExplanationTask MakeTask(const gnn::GnnModel* model) const {
    explain::ExplanationTask task;
    task.model = model;
    task.graph = &graph;
    task.features = features;
    task.target_node = target_node;
    task.target_class = target_class;
    return task;
  }
};

// Ring + random chords: connected, every node has in-edges, so flow
// enumeration to any target is non-empty at any depth.
TaskData MakeTaskData(uint64_t seed, gnn::TaskType task_type) {
  util::Rng rng(seed);
  TaskData data;
  const int n = 6 + rng.UniformInt(5);
  data.graph = graph::Graph(n);
  for (int v = 0; v < n; ++v) data.graph.AddUndirectedEdge(v, (v + 1) % n);
  for (int i = 0; i < 4; ++i) {
    const int u = rng.UniformInt(n);
    const int v = rng.UniformInt(n);
    if (u != v && !data.graph.HasEdge(u, v)) data.graph.AddEdge(u, v);
  }
  data.features = Tensor::Uniform(n, kFeatureDim, -1.0f, 1.0f, &rng);
  data.target_node = rng.UniformInt(n);
  data.target_class = rng.UniformInt(2);
  if (task_type == gnn::TaskType::kGraphClassification) data.target_node = -1;
  return data;
}

gnn::GnnConfig ModelConfig(gnn::TaskType task_type, uint64_t seed = kSeed + 1) {
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.task = task_type;
  config.input_dim = kFeatureDim;
  config.hidden_dim = 6;
  config.num_classes = 2;
  config.num_layers = 2;
  config.seed = seed;
  return config;
}

core::RevelioOptions RevelioTestOptions() {
  core::RevelioOptions options;
  options.epochs = 6;
  options.seed = kSeed + 2;
  return options;
}

explain::GnnExplainerOptions GnnExplainerTestOptions() {
  explain::GnnExplainerOptions options;
  options.epochs = 6;
  options.seed = kSeed + 3;
  return options;
}

// A frozen model plus `count` tasks on it.
struct Fixture {
  explicit Fixture(gnn::TaskType task_type, int count, uint64_t seed)
      : model(ModelConfig(task_type)) {
    model.Freeze();
    for (int i = 0; i < count; ++i) data.push_back(MakeTaskData(seed + i, task_type));
    for (const TaskData& d : data) tasks.push_back(d.MakeTask(&model));
  }

  std::vector<const explain::ExplanationTask*> Group(int size) const {
    std::vector<const explain::ExplanationTask*> group;
    for (int i = 0; i < size; ++i) group.push_back(&tasks[i]);
    return group;
  }

  gnn::GnnModel model;
  std::vector<TaskData> data;
  std::vector<explain::ExplanationTask> tasks;
};

std::string Describe(explain::Objective objective, const std::string& rest) {
  return std::string("objective=") + explain::ObjectiveName(objective) + " " + rest;
}

void ExpectFlowExplanationsBitwiseEqual(const FlowExplanation& expected,
                                        const FlowExplanation& actual,
                                        const std::string& context) {
  EXPECT_TRUE(actual.status.ok()) << context << ": " << actual.status.ToString();
  EXPECT_EQ(expected.flow_scores, actual.flow_scores) << context << ": flow scores differ";
  EXPECT_EQ(expected.edge_scores, actual.edge_scores) << context << ": edge scores differ";
  EXPECT_EQ(expected.layer_edge_masks, actual.layer_edge_masks)
      << context << ": layer edge masks differ";
  EXPECT_EQ(expected.layer_weights, actual.layer_weights)
      << context << ": layer weights differ";
  EXPECT_EQ(flow::TopKFlows(expected.flow_scores, 10), flow::TopKFlows(actual.flow_scores, 10))
      << context << ": top-k flow rankings differ";
}

void ExpectExplanationsBitwiseEqual(const explain::Explanation& expected,
                                    const explain::Explanation& actual,
                                    const std::string& context) {
  EXPECT_TRUE(actual.status.ok()) << context << ": " << actual.status.ToString();
  EXPECT_EQ(expected.edge_scores, actual.edge_scores) << context << ": edge scores differ";
}

class MegaBatchEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::SetNumThreads(1);
    tensor::SetPoolEnabled(true);
    plan::SetExecPlanEnabled(true);
    explain::SetMegaBatchSize(32);
  }
};

TEST_F(MegaBatchEquivalenceTest, RevelioMatchesReferenceAcrossGroupSizesAndTaskTypes) {
  util::SetNumThreads(1);
  for (const auto task_type :
       {gnn::TaskType::kNodeClassification, gnn::TaskType::kGraphClassification}) {
    const Fixture fixture(task_type, 32, kSeed + 10);
    core::RevelioExplainer explainer(RevelioTestOptions());
    for (const auto objective : kObjectives) {
      std::vector<FlowExplanation> reference;
      for (const auto& task : fixture.tasks) {
        reference.push_back(ReferenceRevelioFlows(task, objective, RevelioTestOptions()));
        ASSERT_FALSE(reference.back().flow_scores.empty());
      }
      const std::string type = task_type == gnn::TaskType::kNodeClassification ? "node" : "graph";
      for (const int group_size : {1, 2, 7, 32}) {
        const std::vector<FlowExplanation> batched =
            explainer.ExplainFlowsBatch(fixture.Group(group_size), objective);
        ASSERT_EQ(batched.size(), static_cast<size_t>(group_size));
        for (int i = 0; i < group_size; ++i) {
          ExpectFlowExplanationsBitwiseEqual(
              reference[i], batched[i],
              Describe(objective, type + " group=" + std::to_string(group_size) +
                                      " instance=" + std::to_string(i)));
        }
      }
    }
  }
}

TEST_F(MegaBatchEquivalenceTest, RevelioMatchesReferenceAcrossPrefilterAndLayerScaling) {
  util::SetNumThreads(1);
  const Fixture fixture(gnn::TaskType::kNodeClassification, 7, kSeed + 90);
  for (const int prefilter : {0, 5}) {
    for (const auto scaling :
         {core::RevelioOptions::LayerScaling::kExp, core::RevelioOptions::LayerScaling::kSoftplus,
          core::RevelioOptions::LayerScaling::kNone}) {
      core::RevelioOptions options = RevelioTestOptions();
      options.prefilter_top_k = prefilter;
      options.layer_scaling = scaling;
      core::RevelioExplainer explainer(options);
      for (const auto objective : kObjectives) {
        const std::string context = "prefilter=" + std::to_string(prefilter) +
                                    " scaling=" + std::to_string(static_cast<int>(scaling));
        const std::vector<FlowExplanation> batched =
            explainer.ExplainFlowsBatch(fixture.Group(7), objective);
        ASSERT_EQ(batched.size(), 7u);
        for (int i = 0; i < 7; ++i) {
          const FlowExplanation reference =
              ReferenceRevelioFlows(fixture.tasks[i], objective, options);
          ExpectFlowExplanationsBitwiseEqual(
              reference, batched[i],
              Describe(objective, context + " group=7 instance=" + std::to_string(i)));
          ExpectFlowExplanationsBitwiseEqual(
              reference, explainer.ExplainFlows(fixture.tasks[i], objective),
              Describe(objective, context + " group=1 instance=" + std::to_string(i)));
        }
      }
    }
  }
}

TEST_F(MegaBatchEquivalenceTest, RevelioMatchesReferenceAcrossThreadsPoolAndPlans) {
  util::SetNumThreads(1);
  const Fixture fixture(gnn::TaskType::kNodeClassification, 7, kSeed + 50);
  core::RevelioExplainer explainer(RevelioTestOptions());
  std::vector<FlowExplanation> reference;
  for (const auto& task : fixture.tasks) {
    reference.push_back(
        ReferenceRevelioFlows(task, explain::Objective::kFactual, RevelioTestOptions()));
  }
  for (const int threads : {1, 2, 7, 16}) {
    for (const bool pool_on : {true, false}) {
      for (const bool plan_on : {true, false}) {
        util::SetNumThreads(threads);
        tensor::SetPoolEnabled(pool_on);
        plan::SetExecPlanEnabled(plan_on);
        const std::string context = "threads=" + std::to_string(threads) +
                                    " pool=" + (pool_on ? "on" : "off") +
                                    " plan=" + (plan_on ? "on" : "off");
        const std::vector<FlowExplanation> batched =
            explainer.ExplainFlowsBatch(fixture.Group(7), explain::Objective::kFactual);
        ASSERT_EQ(batched.size(), 7u);
        for (size_t i = 0; i < batched.size(); ++i) {
          ExpectFlowExplanationsBitwiseEqual(reference[i], batched[i],
                                             context + " group=7 instance=" + std::to_string(i));
        }
        for (size_t i = 0; i < 2; ++i) {
          ExpectFlowExplanationsBitwiseEqual(
              reference[i], explainer.ExplainFlows(fixture.tasks[i], explain::Objective::kFactual),
              context + " group=1 instance=" + std::to_string(i));
        }
      }
    }
  }
}

TEST_F(MegaBatchEquivalenceTest, GnnExplainerMatchesReferenceAcrossGroupSizesAndTaskTypes) {
  util::SetNumThreads(1);
  for (const auto task_type :
       {gnn::TaskType::kNodeClassification, gnn::TaskType::kGraphClassification}) {
    const Fixture fixture(task_type, 32, kSeed + 170);
    explain::GnnExplainerMethod explainer(GnnExplainerTestOptions());
    const std::string type = task_type == gnn::TaskType::kNodeClassification ? "node" : "graph";
    for (const auto objective : kObjectives) {
      std::vector<explain::Explanation> reference;
      for (const auto& task : fixture.tasks) {
        reference.push_back(ReferenceGnnExplainer(task, objective, GnnExplainerTestOptions()));
      }
      for (const int group_size : {1, 2, 7, 32}) {
        const std::vector<explain::Explanation> batched =
            explainer.ExplainBatch(fixture.Group(group_size), objective);
        ASSERT_EQ(batched.size(), static_cast<size_t>(group_size));
        for (int i = 0; i < group_size; ++i) {
          ExpectExplanationsBitwiseEqual(
              reference[i], batched[i],
              Describe(objective, type + " group=" + std::to_string(group_size) +
                                      " instance=" + std::to_string(i)));
        }
      }
      ExpectExplanationsBitwiseEqual(reference[0], explainer.Explain(fixture.tasks[0], objective),
                                     Describe(objective, type + " Explain"));
    }
  }
}

TEST_F(MegaBatchEquivalenceTest, GnnExplainerMatchesReferenceAcrossThreadsPoolAndPlans) {
  util::SetNumThreads(1);
  const Fixture fixture(gnn::TaskType::kNodeClassification, 7, kSeed + 210);
  explain::GnnExplainerMethod explainer(GnnExplainerTestOptions());
  std::vector<explain::Explanation> reference;
  for (const auto& task : fixture.tasks) {
    reference.push_back(
        ReferenceGnnExplainer(task, explain::Objective::kFactual, GnnExplainerTestOptions()));
  }
  for (const int threads : {1, 2, 7, 16}) {
    for (const bool pool_on : {true, false}) {
      for (const bool plan_on : {true, false}) {
        util::SetNumThreads(threads);
        tensor::SetPoolEnabled(pool_on);
        plan::SetExecPlanEnabled(plan_on);
        const std::string context = "threads=" + std::to_string(threads) +
                                    " pool=" + (pool_on ? "on" : "off") +
                                    " plan=" + (plan_on ? "on" : "off");
        const std::vector<explain::Explanation> batched =
            explainer.ExplainBatch(fixture.Group(7), explain::Objective::kFactual);
        ASSERT_EQ(batched.size(), 7u);
        for (size_t i = 0; i < batched.size(); ++i) {
          ExpectExplanationsBitwiseEqual(reference[i], batched[i],
                                         context + " group=7 instance=" + std::to_string(i));
        }
        ExpectExplanationsBitwiseEqual(
            reference[0], explainer.Explain(fixture.tasks[0], explain::Objective::kFactual),
            context + " group=1");
      }
    }
  }
}

// ExplainAll groups the mask learners' tasks (here into groups of at most 4
// over 9 tasks); every slot must equal the reference.
TEST_F(MegaBatchEquivalenceTest, ExplainAllGroupingMatchesReference) {
  util::SetNumThreads(1);
  const Fixture fixture(gnn::TaskType::kNodeClassification, 9, kSeed + 250);
  explain::GnnExplainerMethod explainer(GnnExplainerTestOptions());
  explain::SetMegaBatchSize(4);
  const std::vector<explain::Explanation> batched =
      eval::ExplainAll(&explainer, fixture.tasks, explain::Objective::kFactual);
  ASSERT_EQ(batched.size(), fixture.tasks.size());
  for (size_t i = 0; i < fixture.tasks.size(); ++i) {
    ExpectExplanationsBitwiseEqual(
        ReferenceGnnExplainer(fixture.tasks[i], explain::Objective::kFactual,
                              GnnExplainerTestOptions()),
        batched[i], "ExplainAll instance=" + std::to_string(i));
  }
}

// A group mixing two models is rejected by BuildMegaBatchPlan, so each task
// runs as a group of one — and gets the same bits as from Explain.
TEST_F(MegaBatchEquivalenceTest, TaskInMixedGroupMatchesExplain) {
  util::SetNumThreads(1);
  const Fixture fixture(gnn::TaskType::kNodeClassification, 3, kSeed + 270);
  gnn::GnnModel other(ModelConfig(gnn::TaskType::kNodeClassification, kSeed + 99));
  other.Freeze();
  const explain::ExplanationTask foreign = fixture.data[1].MakeTask(&other);
  const std::vector<const explain::ExplanationTask*> mixed = {&fixture.tasks[0], &foreign,
                                                              &fixture.tasks[2]};
  ASSERT_FALSE(explain::BuildMegaBatchPlan(mixed).ok());

  core::RevelioExplainer revelio(RevelioTestOptions());
  explain::GnnExplainerMethod gnnexplainer(GnnExplainerTestOptions());
  for (const auto objective : kObjectives) {
    const std::vector<FlowExplanation> flows = revelio.ExplainFlowsBatch(mixed, objective);
    const std::vector<explain::Explanation> masks = gnnexplainer.ExplainBatch(mixed, objective);
    ASSERT_EQ(flows.size(), mixed.size());
    ASSERT_EQ(masks.size(), mixed.size());
    for (size_t i = 0; i < mixed.size(); ++i) {
      const std::string context = Describe(objective, "mixed instance=" + std::to_string(i));
      ExpectFlowExplanationsBitwiseEqual(revelio.ExplainFlows(*mixed[i], objective), flows[i],
                                         context);
      ExpectExplanationsBitwiseEqual(gnnexplainer.Explain(*mixed[i], objective), masks[i],
                                     context);
    }
  }
}

// Property with shrinking: over random graph families (star, path, dense,
// disconnected, Erdos-Renyi), a two-instance GNNExplainer group equals the
// reference bitwise. Edgeless graphs are vacuously skipped (no base-edge
// mask to learn).
TEST_F(MegaBatchEquivalenceTest, GnnExplainerGroupOfTwoMatchesReferenceOnRandomGraphs) {
  util::SetNumThreads(1);
  const util::Domain<GraphSpec> domain = GraphDomain(3, 8, /*allow_empty=*/false);
  const util::CheckResult result = util::ForAll<GraphSpec>(
      "megabatch_pair_equals_reference", domain,
      [](const GraphSpec& spec) -> std::string {
        const graph::Graph graph = MakeGraph(spec);
        if (graph.num_edges() == 0) return "";  // no mask to learn
        util::Rng rng(kSeed + 300);
        TaskData a;
        a.graph = graph;
        a.features = Tensor::Uniform(graph.num_nodes(), kFeatureDim, -1.0f, 1.0f, &rng);
        a.target_node = rng.UniformInt(graph.num_nodes());
        a.target_class = rng.UniformInt(2);
        TaskData b;
        b.graph = graph;
        b.features = Tensor::Uniform(graph.num_nodes(), kFeatureDim, -1.0f, 1.0f, &rng);
        b.target_node = rng.UniformInt(graph.num_nodes());
        b.target_class = rng.UniformInt(2);

        gnn::GnnModel model(ModelConfig(gnn::TaskType::kNodeClassification));
        model.Freeze();
        const explain::ExplanationTask task_a = a.MakeTask(&model);
        const explain::ExplanationTask task_b = b.MakeTask(&model);

        explain::GnnExplainerMethod explainer(GnnExplainerTestOptions());
        const std::vector<explain::Explanation> batched =
            explainer.ExplainBatch({&task_a, &task_b}, explain::Objective::kFactual);
        if (batched.size() != 2) return "batch returned wrong count";
        const std::vector<double> ref_a =
            ReferenceGnnExplainer(task_a, explain::Objective::kFactual, GnnExplainerTestOptions())
                .edge_scores;
        const std::vector<double> ref_b =
            ReferenceGnnExplainer(task_b, explain::Objective::kFactual, GnnExplainerTestOptions())
                .edge_scores;
        if (batched[0].edge_scores != ref_a) return "instance 0 diverged from the reference";
        if (batched[1].edge_scores != ref_b) return "instance 1 diverged from the reference";
        return "";
      },
      util::DefaultPropConfig(25, kSeed + 301));
  EXPECT_TRUE(result.ok) << result.report;
}

}  // namespace
}  // namespace revelio::proptest
