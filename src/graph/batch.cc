#include "graph/batch.h"

#include <algorithm>

#include "tensor/pool.h"

namespace revelio::graph {

GraphBatch MakeBatch(const std::vector<const GraphInstance*>& instances) {
  CHECK(!instances.empty());
  GraphBatch batch;
  batch.num_graphs = static_cast<int>(instances.size());

  int total_nodes = 0;
  const int feature_dim = instances[0]->features.cols();
  for (const GraphInstance* instance : instances) {
    CHECK_EQ(instance->features.cols(), feature_dim);
    CHECK_EQ(instance->labels.size(), 1u) << "graph instances carry a single graph label";
    total_nodes += instance->graph.num_nodes();
  }

  batch.graph = Graph(total_nodes);
  // Pooled, so the features tensor hands back to the pool a buffer it took
  // from it (a plain vector would be parked as if the pool had lent it out).
  std::vector<float> features =
      tensor::AcquireBuffer(static_cast<size_t>(total_nodes) * feature_dim);
  float* next_row = features.data();
  batch.node_to_graph.reserve(total_nodes);

  int offset = 0;
  for (int g = 0; g < batch.num_graphs; ++g) {
    const GraphInstance* instance = instances[g];
    const int n = instance->graph.num_nodes();
    for (const Edge& e : instance->graph.edges()) {
      batch.graph.AddEdge(e.src + offset, e.dst + offset);
    }
    const auto& values = instance->features.values();
    next_row = std::copy(values.begin(), values.end(), next_row);
    for (int i = 0; i < n; ++i) batch.node_to_graph.push_back(g);
    batch.labels.push_back(instance->labels[0]);
    offset += n;
  }
  batch.features = tensor::Tensor::FromData(total_nodes, feature_dim, std::move(features));
  return batch;
}

util::StatusOr<GraphBatch> TryMakeBatch(const std::vector<const GraphInstance*>& instances) {
  if (instances.empty()) {
    return util::Status::InvalidArgument("cannot batch an empty instance list");
  }
  // Null-check every pointer before the first dereference: feature_dim reads
  // instances[0], which harness-generated lists may well leave null.
  for (size_t i = 0; i < instances.size(); ++i) {
    if (instances[i] == nullptr) {
      return util::Status::InvalidArgument("batch instance " + std::to_string(i) + " is null");
    }
  }
  const int feature_dim = instances[0]->features.cols();
  for (size_t i = 0; i < instances.size(); ++i) {
    const GraphInstance* instance = instances[i];
    if (instance->features.rows() != instance->graph.num_nodes()) {
      return util::Status::InvalidArgument(
          "batch instance " + std::to_string(i) + " has " +
          std::to_string(instance->features.rows()) + " feature rows for " +
          std::to_string(instance->graph.num_nodes()) + " nodes");
    }
    if (instance->features.cols() != feature_dim) {
      return util::Status::InvalidArgument(
          "batch instance " + std::to_string(i) + " feature dim " +
          std::to_string(instance->features.cols()) + " != " + std::to_string(feature_dim));
    }
    if (instance->labels.size() != 1u) {
      return util::Status::InvalidArgument("graph instances carry a single graph label, got " +
                                           std::to_string(instance->labels.size()));
    }
  }
  return MakeBatch(instances);
}

}  // namespace revelio::graph
