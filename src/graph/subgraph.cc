#include "graph/subgraph.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "tensor/pool.h"

namespace revelio::graph {

Subgraph ExtractKHopInSubgraph(const Graph& graph, int target, int k) {
  CHECK(target >= 0 && target < graph.num_nodes());
  CHECK_GE(k, 0);

  // BFS backwards over in-edges to find every node within k steps of target.
  std::vector<int> distance(graph.num_nodes(), -1);
  distance[target] = 0;
  std::deque<int> queue{target};
  std::vector<int> included{target};
  while (!queue.empty()) {
    const int node = queue.front();
    queue.pop_front();
    if (distance[node] == k) continue;
    for (int e : graph.InEdges(node)) {
      const int src = graph.edge(e).src;
      if (distance[src] == -1) {
        distance[src] = distance[node] + 1;
        included.push_back(src);
        queue.push_back(src);
      }
    }
  }

  // Canonical order: local node ids ascend with the global ids, independent
  // of BFS discovery incidentals (queue order, edge insertion order among
  // equal-distance nodes). Mega-batching relies on extraction being a pure
  // function of the (graph, target, k) triple; edges below already iterate in
  // global edge order, so sorting the node set makes the whole Subgraph
  // canonical.
  std::sort(included.begin(), included.end());

  Subgraph result;
  result.graph = Graph(static_cast<int>(included.size()));
  result.node_map = included;
  std::unordered_map<int, int> global_to_local;
  global_to_local.reserve(included.size());
  for (size_t i = 0; i < included.size(); ++i) {
    global_to_local[included[i]] = static_cast<int>(i);
  }
  result.target_local = global_to_local[target];

  // Induced edges, preserving the global edge order.
  for (int e = 0; e < graph.num_edges(); ++e) {
    const Edge& edge = graph.edge(e);
    auto src_it = global_to_local.find(edge.src);
    auto dst_it = global_to_local.find(edge.dst);
    if (src_it == global_to_local.end() || dst_it == global_to_local.end()) continue;
    result.graph.AddEdge(src_it->second, dst_it->second);
    result.edge_map.push_back(e);
  }
  return result;
}

util::StatusOr<Subgraph> TryExtractKHopInSubgraph(const Graph& graph, int target, int k) {
  if (target < 0 || target >= graph.num_nodes()) {
    return util::Status::InvalidArgument(
        "k-hop target " + std::to_string(target) + " out of range for graph with " +
        std::to_string(graph.num_nodes()) + " nodes");
  }
  if (k < 0) {
    return util::Status::InvalidArgument("k-hop radius must be >= 0, got " + std::to_string(k));
  }
  return ExtractKHopInSubgraph(graph, target, k);
}

tensor::Tensor SliceRows(const tensor::Tensor& features, const std::vector<int>& rows) {
  const int cols = features.cols();
  // Pooled for the same reason as graph::MakeBatch's features.
  std::vector<float> data = tensor::AcquireBuffer(rows.size() * static_cast<size_t>(cols));
  float* next_row = data.data();
  for (int r : rows) {
    CHECK(r >= 0 && r < features.rows());
    const float* row = features.values().data() + static_cast<size_t>(r) * cols;
    next_row = std::copy(row, row + cols, next_row);
  }
  return tensor::Tensor::FromData(static_cast<int>(rows.size()), cols, std::move(data));
}

}  // namespace revelio::graph
