#ifndef REVELIO_EXPLAIN_BATCH_RUNNER_H_
#define REVELIO_EXPLAIN_BATCH_RUNNER_H_

// Mega-batched explanation geometry: a group of explainer tasks that share
// one frozen model fuses into a single block-diagonal mega-graph, so the
// whole group trains with one forward/backward per optimizer step instead of
// one per instance (explain/mask_driver.h runs that step).
//
// The fusion is a pure scheduling change: per-instance mask parameters stay
// independent variables living in disjoint segments of one concatenated
// vector, the batched loss is the sum of the per-instance losses, and every
// kernel in the chain accumulates per output element in serial scan order —
// so per-instance gradients, Adam updates, and final mask values are
// bitwise-equal to explaining each task alone
// (tests/prop/megabatch_equivalence_test).

#include <vector>

#include "explain/explainer.h"
#include "gnn/layer_edges.h"
#include "graph/graph.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace revelio::explain {

// REVELIO_MEGABATCH_SIZE (default 32) caps the instances eval::ExplainAll
// fuses per group. The setter exists for benches/tests.
int MegaBatchSize();
void SetMegaBatchSize(int size);

// Shared geometry of one fused group.
//
// Mega layer-edge ids follow gnn::BuildLayerEdges over the mega-graph: all
// base edges instance-major (instance i's base edge e is mega layer edge
// base_edge_offset[i] + e), then one self-loop per mega node (instance i's
// node v is mega layer edge base_edge_offset.back() + node_offset[i] + v).
// The learners build their per-epoch layer masks directly in this order.
// Within one instance the base-edge rows still precede its self-loop rows —
// the order of its own LayerEdgeSet — which keeps per-row accumulation order
// identical to explaining the instance alone. mask_offset is the
// per-instance layer-edge *count* prefix (base edges + nodes).
struct MegaBatchPlan {
  int num_instances = 0;
  bool node_task = true;

  // The mega-graph. A group of one aliases its task's graph and features (no
  // copy, and mega_edges are then exactly the instance's own layer edges);
  // larger groups own the block-diagonal merge in `merged_graph`.
  const graph::Graph& graph() const {
    return lone_graph != nullptr ? *lone_graph : merged_graph;
  }
  const graph::Graph* lone_graph = nullptr;
  graph::Graph merged_graph;
  tensor::Tensor features;         // mega feature matrix (shares storage)
  std::vector<int> node_to_graph;  // mega node -> instance (graph readout)
  gnn::LayerEdgeSet mega_edges;    // layer edges of graph() (CSR attached)

  // Prefix sums, size num_instances + 1.
  std::vector<int> node_offset;
  std::vector<int> base_edge_offset;
  std::vector<int> mask_offset;

  // Per instance: the mega-logits row carrying the explained prediction
  // (node tasks: node_offset[i] + target_node; graph tasks: i).
  std::vector<int> logit_row;

  int num_mask_rows() const { return mask_offset.back(); }
  int instance_base_edges(int i) const {
    return base_edge_offset[i + 1] - base_edge_offset[i];
  }
};

// Builds the fused geometry for a group of tasks. Rejects with
// kInvalidArgument when the group is empty, any task fails
// ValidateExplanationTask, the tasks do not all share one model, or
// graph::TryMakeBatch rejects the instance set.
util::StatusOr<MegaBatchPlan> BuildMegaBatchPlan(
    const std::vector<const ExplanationTask*>& tasks);

}  // namespace revelio::explain

#endif  // REVELIO_EXPLAIN_BATCH_RUNNER_H_
