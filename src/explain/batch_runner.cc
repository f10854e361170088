#include "explain/batch_runner.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "graph/batch.h"

namespace revelio::explain {

namespace {

int MegaBatchSizeDefault() {
  constexpr int kDefault = 32;
  const char* env = std::getenv("REVELIO_MEGABATCH_SIZE");
  if (env == nullptr) return kDefault;
  const int value = std::atoi(env);
  return value >= 1 ? value : kDefault;
}

std::atomic<int>& MegaBatchSizeFlag() {
  static std::atomic<int> size(MegaBatchSizeDefault());
  return size;
}

}  // namespace

int MegaBatchSize() { return MegaBatchSizeFlag().load(std::memory_order_relaxed); }

void SetMegaBatchSize(int size) {
  MegaBatchSizeFlag().store(size >= 1 ? size : 1, std::memory_order_relaxed);
}

util::StatusOr<MegaBatchPlan> BuildMegaBatchPlan(
    const std::vector<const ExplanationTask*>& tasks) {
  if (tasks.empty()) {
    return util::Status::InvalidArgument("cannot mega-batch an empty task group");
  }
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i] == nullptr) {
      return util::Status::InvalidArgument("mega-batch task " + std::to_string(i) + " is null");
    }
    util::Status status = ValidateExplanationTask(*tasks[i]);
    if (!status.ok()) return status;
    if (tasks[i]->model != tasks[0]->model) {
      return util::Status::InvalidArgument(
          "mega-batch task " + std::to_string(i) + " uses a different model; group by model first");
    }
  }

  MegaBatchPlan plan;
  plan.num_instances = static_cast<int>(tasks.size());
  plan.node_task = tasks[0]->is_node_task();

  if (tasks.size() == 1) {
    // A group of one is its own mega-graph: alias it rather than copying.
    plan.lone_graph = tasks[0]->graph;
    plan.features = tasks[0]->features;
    plan.node_to_graph.assign(tasks[0]->graph->num_nodes(), 0);
  } else {
    // Route the instance graphs through graph::TryMakeBatch (the single
    // source of truth for block-diagonal merging). The temporary
    // GraphInstances carry the explained class as their one graph label; the
    // label plays no role in the mask optimization.
    std::vector<graph::GraphInstance> staging(tasks.size());
    std::vector<const graph::GraphInstance*> pointers(tasks.size());
    for (size_t i = 0; i < tasks.size(); ++i) {
      staging[i].graph = *tasks[i]->graph;
      staging[i].features = tasks[i]->features;
      staging[i].labels = {tasks[i]->target_class};
      pointers[i] = &staging[i];
    }
    util::StatusOr<graph::GraphBatch> batch_or = graph::TryMakeBatch(pointers);
    if (!batch_or.ok()) return batch_or.status();
    graph::GraphBatch merged = std::move(batch_or).value();
    plan.merged_graph = std::move(merged.graph);
    plan.features = std::move(merged.features);
    plan.node_to_graph = std::move(merged.node_to_graph);
  }
  plan.mega_edges = gnn::BuildLayerEdges(plan.graph());

  const int num_instances = plan.num_instances;
  plan.node_offset.assign(num_instances + 1, 0);
  plan.base_edge_offset.assign(num_instances + 1, 0);
  plan.mask_offset.assign(num_instances + 1, 0);
  for (int i = 0; i < num_instances; ++i) {
    const int nodes = tasks[i]->graph->num_nodes();
    const int base_edges = tasks[i]->graph->num_edges();
    plan.node_offset[i + 1] = plan.node_offset[i] + nodes;
    plan.base_edge_offset[i + 1] = plan.base_edge_offset[i] + base_edges;
    plan.mask_offset[i + 1] = plan.mask_offset[i] + base_edges + nodes;
  }

  plan.logit_row.resize(num_instances);
  for (int i = 0; i < num_instances; ++i) {
    plan.logit_row[i] = plan.node_task ? plan.node_offset[i] + tasks[i]->target_node : i;
  }

  // The explainers build their epoch masks directly in this mega layer-edge
  // order (base edges instance-major, then self-loops instance-major), so the
  // plan carries no pack permutation — only the offsets above.
  CHECK_EQ(plan.mega_edges.num_layer_edges(), plan.mask_offset[num_instances]);
  return plan;
}

}  // namespace revelio::explain
