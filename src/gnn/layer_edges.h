#ifndef REVELIO_GNN_LAYER_EDGES_H_
#define REVELIO_GNN_LAYER_EDGES_H_

// The augmented edge set a GNN layer actually passes messages over.
//
// The paper's flow alphabet includes self-transitions (e.g. flow
// 31->31->31->28 in Table VI), because GCN adds self-loops, GIN's (1+eps)h_v
// term keeps the node's own state, and GAT attends over neighbors-plus-self.
// All three are modeled uniformly: the layer-edge list is the base edge list
// (same indices/order) followed by one self-loop per node. Per-layer-edge
// masks (paper Eq. 6) index into this list.

#include <vector>

#include "graph/graph.h"
#include "tensor/sparse.h"

namespace revelio::gnn {

struct LayerEdgeSet {
  int num_nodes = 0;
  int num_base_edges = 0;              // == graph.num_edges()
  std::vector<int> src;                // per layer edge
  std::vector<int> dst;                // per layer edge
  std::vector<std::vector<int>> in_layer_edges;  // per node: incoming layer edges

  // Aggregation pattern over the augmented edge list, grouped by destination
  // node with weight slots = layer-edge indices; spliced from the graph's
  // cached InCsr() by BuildLayerEdges. Layers require it (a null pattern is a
  // CHECK failure), so build every set with BuildLayerEdges.
  tensor::CsrPatternRef csr;

  int num_layer_edges() const { return static_cast<int>(src.size()); }
  bool IsSelfLoop(int e) const { return e >= num_base_edges; }
  // Layer-edge index of node v's self-loop.
  int SelfLoopOf(int v) const { return num_base_edges + v; }
};

// Builds the augmented set for `graph` (base edges in order, then self-loops
// node 0..n-1).
LayerEdgeSet BuildLayerEdges(const graph::Graph& graph);

// GCN symmetric-normalization coefficient per layer edge:
//   c(i->j) = 1 / sqrt(d(i) * d(j)),  d(v) = in_degree(v) + 1.
std::vector<float> GcnCoefficients(const graph::Graph& graph, const LayerEdgeSet& edges);

}  // namespace revelio::gnn

#endif  // REVELIO_GNN_LAYER_EDGES_H_
