#ifndef REVELIO_TESTS_PROP_PROP_UTIL_H_
#define REVELIO_TESTS_PROP_PROP_UTIL_H_

// Shared generators for the property suites (tests/prop/*):
//  - seeded random tensors (incl. kink-avoiding values for Relu-family FD),
//  - random graphs covering the degenerate shapes the paper's instances can
//    produce (empty, self-loop-only/edgeless, disconnected, star, dense),
//  - an op-harness registry with one or more (shape, inputs, forward) cases
//    per registered tensor op, reused by the gradcheck and the
//    parallel-vs-serial differential suites,
//  - one serial scalar reference per tensor/simd.h kernel, which the simd
//    equivalence suite diffs the kernels against,
//  - the chain-aggregation layer forward the spmm equivalence suite diffs
//    the fused layers against,
//  - the reference mask learners the mask-driver equivalence suites diff
//    against.
//
// Everything is deterministic in the provided seeds; nothing here reads
// wall-clock or global RNG state.

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/revelio.h"
#include "explain/explainer.h"
#include "explain/gnnexplainer.h"
#include "gnn/layer_edges.h"
#include "gnn/layers.h"
#include "graph/graph.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/proptest.h"
#include "util/rng.h"

namespace revelio::proptest {

using tensor::Tensor;

// ---------------------------------------------------------------------------
// Tensor generators
// ---------------------------------------------------------------------------

// Leaf tensor with uniform entries in [lo, hi), requires_grad set.
inline Tensor RandLeaf(util::Rng& rng, int rows, int cols, float lo = -2.0f, float hi = 2.0f) {
  return Tensor::Uniform(rows, cols, lo, hi, &rng).WithRequiresGrad();
}

// Leaf tensor whose entries have |x| in [min_abs, max_abs) with random sign:
// keeps values away from the Relu/LeakyRelu kink so central differences with
// h < min_abs never cross it.
inline Tensor RandAwayFromZero(util::Rng& rng, int rows, int cols, float min_abs = 0.25f,
                               float max_abs = 2.0f) {
  std::vector<float> v(static_cast<size_t>(rows) * cols);
  for (auto& x : v) {
    const float mag = static_cast<float>(rng.Uniform(min_abs, max_abs));
    x = rng.Bernoulli(0.5) ? mag : -mag;
  }
  return Tensor::FromData(rows, cols, std::move(v)).WithRequiresGrad();
}

// Leaf tensor whose entries are pairwise-distinct with gaps >= `gap`
// (a shuffled grid): keeps SegmentMaxRows argmaxes stable under +/-h
// perturbation as long as 2h < gap.
inline Tensor RandDistinct(util::Rng& rng, int rows, int cols, float gap = 0.4f) {
  const int n = rows * cols;
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(&order);
  std::vector<float> v(n);
  for (int i = 0; i < n; ++i) v[i] = gap * static_cast<float>(order[i] - n / 2);
  return Tensor::FromData(rows, cols, std::move(v)).WithRequiresGrad();
}

// Random segment ids: `count` values in [0, num_segments).
inline std::vector<int> RandSegments(util::Rng& rng, int count, int num_segments) {
  std::vector<int> ids(count);
  for (auto& s : ids) s = rng.UniformInt(num_segments);
  return ids;
}

// ---------------------------------------------------------------------------
// Graph generators
// ---------------------------------------------------------------------------

// A graph description that can be shrunk structurally (unlike graph::Graph,
// which only supports appends).
struct GraphSpec {
  std::string kind = "random";
  int num_nodes = 0;
  std::vector<std::pair<int, int>> edges;  // directed, no self-loops, unique
};

inline graph::Graph MakeGraph(const GraphSpec& spec) {
  graph::Graph g(spec.num_nodes);
  for (const auto& [u, v] : spec.edges) g.AddEdge(u, v);
  return g;
}

inline std::string DescribeGraphSpec(const GraphSpec& spec) {
  std::ostringstream out;
  out << spec.kind << " graph, " << spec.num_nodes << " nodes, edges {";
  for (size_t i = 0; i < spec.edges.size(); ++i) {
    if (i > 0) out << ", ";
    out << spec.edges[i].first << "->" << spec.edges[i].second;
  }
  out << "}";
  return out.str();
}

// Draws one graph of `min_nodes..max_nodes` nodes. Cycles through the
// degenerate families the suites must cover: empty (0 nodes), edgeless
// (self-loop-only layer edges), star, path, dense complete, disconnected
// two-component, and Erdos-Renyi random. When `allow_empty` is false the
// empty and zero-node cases are skipped (for suites that need a target node).
inline GraphSpec GenGraphSpec(util::Rng& rng, int min_nodes, int max_nodes,
                              bool allow_empty = true) {
  GraphSpec spec;
  const int family = rng.UniformInt(allow_empty ? 7 : 6);
  const int n = min_nodes + rng.UniformInt(max_nodes - min_nodes + 1);
  spec.num_nodes = n;
  auto add_undirected = [&spec](int u, int v) {
    spec.edges.emplace_back(u, v);
    spec.edges.emplace_back(v, u);
  };
  switch (family) {
    case 0:  // edgeless: layer edges are self-loops only
      spec.kind = "edgeless";
      break;
    case 1:  // star around a random hub
      spec.kind = "star";
      if (n >= 2) {
        const int hub = rng.UniformInt(n);
        for (int v = 0; v < n; ++v) {
          if (v != hub) add_undirected(hub, v);
        }
      }
      break;
    case 2:  // path
      spec.kind = "path";
      for (int v = 0; v + 1 < n; ++v) add_undirected(v, v + 1);
      break;
    case 3:  // dense: complete directed graph
      spec.kind = "dense";
      for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
          if (u != v) spec.edges.emplace_back(u, v);
        }
      }
      break;
    case 4: {  // disconnected: two dense-ish halves with no cross edges
      spec.kind = "disconnected";
      const int half = n / 2;
      for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
          if (u == v) continue;
          const bool same_side = (u < half) == (v < half);
          if (same_side && rng.Bernoulli(0.6)) spec.edges.emplace_back(u, v);
        }
      }
      break;
    }
    case 5: {  // Erdos-Renyi directed
      spec.kind = "random";
      for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
          if (u != v && rng.Bernoulli(0.25)) spec.edges.emplace_back(u, v);
        }
      }
      break;
    }
    default:  // empty graph: zero nodes, zero edges
      spec.kind = "empty";
      spec.num_nodes = 0;
      break;
  }
  return spec;
}

// Structural shrinks: drop one edge, or drop the highest-numbered node
// (with its incident edges). Ordered so the smallest candidates come first.
inline std::vector<GraphSpec> ShrinkGraphSpec(const GraphSpec& spec) {
  std::vector<GraphSpec> out;
  if (spec.num_nodes > 0) {
    GraphSpec smaller = spec;
    smaller.kind = "shrunk";
    smaller.num_nodes = spec.num_nodes - 1;
    smaller.edges.clear();
    for (const auto& e : spec.edges) {
      if (e.first < smaller.num_nodes && e.second < smaller.num_nodes) smaller.edges.push_back(e);
    }
    out.push_back(std::move(smaller));
  }
  for (size_t i = 0; i < spec.edges.size(); ++i) {
    GraphSpec fewer = spec;
    fewer.kind = "shrunk";
    fewer.edges.erase(fewer.edges.begin() + static_cast<long>(i));
    out.push_back(std::move(fewer));
  }
  return out;
}

inline util::Domain<GraphSpec> GraphDomain(int min_nodes, int max_nodes,
                                           bool allow_empty = true) {
  util::Domain<GraphSpec> domain;
  domain.generate = [min_nodes, max_nodes, allow_empty](util::Rng& rng) {
    return GenGraphSpec(rng, min_nodes, max_nodes, allow_empty);
  };
  domain.shrink = ShrinkGraphSpec;
  domain.describe = DescribeGraphSpec;
  return domain;
}

// ---------------------------------------------------------------------------
// Op harness registry
// ---------------------------------------------------------------------------

// One concrete (op, shape) instance. Shapes and index arguments are fixed at
// construction; `make_inputs` draws only the float values, so the same case
// can be re-run with fresh values per property case or per thread count.
struct OpCase {
  std::string op;       // name in tensor::RegisteredOpNames()
  std::string variant;  // human-readable shape tag, e.g. "5x4" or "0x3"
  bool fd_checkable = true;  // included in the finite-difference suite
  std::function<std::vector<Tensor>(util::Rng&)> make_inputs;
  std::function<Tensor(const std::vector<Tensor>&)> forward;
};

// Builds the full case list. Index arguments (gather/scatter/segment ids,
// NllLoss targets) are drawn from `seed`. When `include_large` is true, adds
// large-shape instances (fd_checkable = false) sized past the kernels'
// parallelization grains so the thread-differential suite actually exercises
// multi-chunk ParallelFor dispatch.
std::vector<OpCase> MakeOpCases(uint64_t seed, bool include_large);

// Runs `c` end to end at deterministic values: builds inputs from
// `value_seed`, runs forward, reduces with a fixed-weight Sum(Mul(y, W))
// loss, backpropagates, and returns forward values followed by every input
// gradient. Used for bitwise cross-thread comparison.
std::vector<float> RunOpCaseBitstream(const OpCase& c, uint64_t value_seed);

// Max relative FD-vs-autograd gradient error for `c` at values drawn from
// `value_seed` (relative to max(1, |analytic|, |numeric|)). Appends a
// description of the worst entry to `detail` when non-null.
double OpCaseMaxGradError(const OpCase& c, uint64_t value_seed, std::string* detail);

// ---------------------------------------------------------------------------
// Kernel references
// ---------------------------------------------------------------------------

// One plain serial scalar loop per kernel in tensor/simd.h, same signature
// and per-element expression: the loops the tensor ops ran before the simd
// kernels became their only body. simd_equivalence_test diffs each kernel
// against its reference under the kernel's declared tolerance class, and
// `bench_micro_kernels --simd-sweep` times the kernels against them.
namespace scalar_ref {

void AddF32(const float* a, const float* b, float* o, int64_t n);
void SubF32(const float* a, const float* b, float* o, int64_t n);
void MulF32(const float* a, const float* b, float* o, int64_t n);
void AddScalarF32(const float* a, float s, float* o, int64_t n);
void MulScalarF32(const float* a, float s, float* o, int64_t n);
void AddAccF32(const float* a, float* o, int64_t n);
void AddScalarAccF32(float s, float* o, int64_t n);
void MulAccF32(const float* a, float s, float* o, int64_t n);
void MulPairAccF32(const float* a, const float* b, float* o, int64_t n);
void AxpyF32(float a, const float* x, float* y, int64_t n);
void ReluF32(const float* a, float* o, int64_t n);
void ReluGradAccF32(const float* g, const float* a, float* ga, int64_t n);
void LeakyReluF32(const float* a, float slope, float* o, int64_t n);
void LeakyReluGradAccF32(const float* g, const float* a, float slope, float* ga, int64_t n);
void SigmoidGradAccF32(const float* g, const float* ov, float* ga, int64_t n);
void TanhGradAccF32(const float* g, const float* ov, float* ga, int64_t n);
// Serial left-to-right order: simd::DotF32 is ulp-bounded against it
// (bitwise on a one-lane build).
float DotF32(const float* a, const float* b, int64_t n);
void MatMulRowsF32(const float* a, const float* b, float* o, int64_t ib, int64_t ie, int k,
                   int m);
// A serial dot per element, so ulp-bounded like DotF32. No transposed copy.
void MatMulGradARowsF32(const float* g, const float* b, float* ga, int64_t ib, int64_t ie, int k,
                        int m);
void MatMulGradBRowsF32(const float* g, const float* a, float* gb, int64_t kb, int64_t ke, int n,
                        int k, int m);

}  // namespace scalar_ref

// The per-element SIMD MatMul dA loop that simd::MatMulGradARowsF32's
// register tiles replaced: ga[i, kk] += simd::DotF32(g[i, :], b[kk, :], m)
// for rows [0, n). g is n x m, b is k x m, ga is n x k, all row-major. The
// tiled kernel must reproduce it bit for bit.
void ReferenceMatMulGradARows(const float* g, const float* b, float* ga, int n, int k, int m);

// ---------------------------------------------------------------------------
// Layer references
// ---------------------------------------------------------------------------

// `layer`'s forward (a gnn::GcnLayer, GinLayer or GatLayer) on its own
// parameters, with each aggregation done by the Gather -> RowScale ->
// ScatterAdd chain that the fused SpMM replaced. The layers must match it
// bitwise in the forward pass.
Tensor ReferenceChainLayerForward(const gnn::GnnLayer& layer, const graph::Graph& graph,
                                  const gnn::LayerEdgeSet& edges, const Tensor& h,
                                  const Tensor& edge_mask);

// ---------------------------------------------------------------------------
// Reference mask learners
// ---------------------------------------------------------------------------

// Plain eager, one-instance versions of the two mask learners: the Revelio
// Eq. 4-9 step (with the §VI prefilter) and the GNNExplainer step, trained
// with Adam on the task's own graph. No execution plan, pool scope, audit,
// spans or batching, and none of the mega-graph index plumbing: the
// equivalence suites diff the mask driver (explain/mask_driver.h) against
// these bitwise.
core::RevelioExplainer::FlowExplanation ReferenceRevelioFlows(
    const explain::ExplanationTask& task, explain::Objective objective,
    const core::RevelioOptions& options);
explain::Explanation ReferenceGnnExplainer(const explain::ExplanationTask& task,
                                           explain::Objective objective,
                                           const explain::GnnExplainerOptions& options);

}  // namespace revelio::proptest

#endif  // REVELIO_TESTS_PROP_PROP_UTIL_H_
