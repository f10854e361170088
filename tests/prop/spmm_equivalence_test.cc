// Differential property suite for the fused CSR SpMM aggregation path:
// the fused kernels (tensor::SpmmCsr*) must reproduce the legacy
// Gather -> RowScale -> ScatterAdd chain bit for bit — forward AND backward —
// across seeded graphs, thread counts {1, 2, 7, 16}, and masked/unmasked
// edge weights. Layer-level cases diff real GCN/GIN/GAT layers against
// proptest::ReferenceChainLayerForward, the same layer math with chain
// aggregation (forward bitwise; gradients bitwise where the autograd
// traversal order is shared, else <= 1e-6 relative). A dedicated
// group mutates graphs (RemoveEdges / AddEdge) after warming the cached CSR
// view, so a stale pattern shows up as a fused-vs-chain divergence.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gnn/layer_edges.h"
#include "gnn/layers.h"
#include "prop/prop_util.h"
#include "tensor/ops.h"
#include "tensor/sparse.h"
#include "util/parallel.h"
#include "util/proptest.h"

namespace revelio {
namespace {

using proptest::GraphSpec;
using tensor::Tensor;

constexpr int kThreadCounts[] = {1, 2, 7, 16};
constexpr int kFeatDim = 5;

class SpmmEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override { util::SetNumThreads(1); }
};

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

struct EqCase {
  GraphSpec spec;
  uint64_t seed = 0;
  bool masked = false;
};

util::Domain<EqCase> EqCaseDomain(int min_nodes, int max_nodes, bool allow_empty) {
  util::Domain<EqCase> domain;
  domain.generate = [min_nodes, max_nodes, allow_empty](util::Rng& rng) {
    EqCase c;
    c.spec = proptest::GenGraphSpec(rng, min_nodes, max_nodes, allow_empty);
    c.seed = rng.NextUint64();
    c.masked = rng.Bernoulli(0.5);
    return c;
  };
  domain.shrink = [](const EqCase& c) {
    std::vector<EqCase> out;
    for (GraphSpec& spec : proptest::ShrinkGraphSpec(c.spec)) {
      EqCase smaller = c;
      smaller.spec = std::move(spec);
      out.push_back(std::move(smaller));
    }
    return out;
  };
  domain.describe = [](const EqCase& c) {
    return proptest::DescribeGraphSpec(c.spec) + (c.masked ? ", masked" : ", unmasked") +
           ", seed " + util::FormatSeed(c.seed);
  };
  return domain;
}

// Per-layer-edge weights: positive coefficients, with ~30% hard zeros in the
// masked variant (the shape Eq. 6 masks take after thresholding).
std::vector<float> DrawEdgeWeights(util::Rng& rng, int count, bool masked) {
  std::vector<float> w(count);
  for (auto& x : w) {
    x = static_cast<float>(rng.Uniform(0.2, 1.5));
    if (masked && rng.Bernoulli(0.3)) x = 0.0f;
  }
  return w;
}

// Forward values + scalar loss + gradients of every leaf, as one float
// stream for bitwise comparison (mirrors proptest::RunOpCaseBitstream).
std::vector<float> RunToStream(const std::function<Tensor()>& forward,
                               const std::vector<Tensor>& leaves, uint64_t loss_seed) {
  for (Tensor t : leaves) t.ZeroGrad();
  Tensor out = forward();
  util::Rng wrng(loss_seed);
  Tensor weights = Tensor::Uniform(out.rows(), out.cols(), 0.5f, 1.5f, &wrng);
  Tensor loss = tensor::Sum(tensor::Mul(out, weights));
  if (loss.requires_grad()) loss.Backward();
  std::vector<float> stream = out.values();
  stream.push_back(loss.Value());
  for (const Tensor& t : leaves) {
    std::vector<float> grad = t.GradData();
    if (grad.empty()) grad.assign(static_cast<size_t>(t.rows()) * t.cols(), 0.0f);
    stream.insert(stream.end(), grad.begin(), grad.end());
  }
  return stream;
}

// Core differential: SpmmCsrWeighted over `edges.csr` vs the legacy chain
// over the same layer-edge list, forward+backward, at every thread count.
// Both must be bitwise-equal to the single-thread fused stream.
std::string CheckWeightedAggregation(const gnn::LayerEdgeSet& edges, uint64_t seed,
                                     bool masked) {
  const int n = edges.num_nodes;
  const int m = edges.num_layer_edges();
  util::Rng rng(seed);
  const std::vector<float> weight_values = DrawEdgeWeights(rng, m, masked);
  std::vector<float> feature_values(static_cast<size_t>(n) * kFeatDim);
  for (auto& x : feature_values) x = static_cast<float>(rng.Uniform(-2.0, 2.0));
  const uint64_t loss_seed = seed ^ 0x1055eedULL;

  std::vector<float> reference;
  for (const int threads : kThreadCounts) {
    util::SetNumThreads(threads);
    Tensor fused_w =
        Tensor::FromData(m, 1, std::vector<float>(weight_values)).WithRequiresGrad();
    Tensor fused_h =
        Tensor::FromData(n, kFeatDim, std::vector<float>(feature_values)).WithRequiresGrad();
    const std::vector<float> fused = RunToStream(
        [&] { return tensor::SpmmCsrWeighted(edges.csr, fused_w, fused_h); },
        {fused_w, fused_h}, loss_seed);

    Tensor chain_w =
        Tensor::FromData(m, 1, std::vector<float>(weight_values)).WithRequiresGrad();
    Tensor chain_h =
        Tensor::FromData(n, kFeatDim, std::vector<float>(feature_values)).WithRequiresGrad();
    const std::vector<float> chain = RunToStream(
        [&] {
          return tensor::ScatterAddRows(
              tensor::RowScale(tensor::GatherRows(chain_h, edges.src), chain_w), edges.dst,
              edges.num_nodes);
        },
        {chain_w, chain_h}, loss_seed);

    if (!BitwiseEqual(fused, chain)) {
      return "fused vs chain diverges at threads=" + std::to_string(threads);
    }
    if (threads == 1) {
      reference = fused;
    } else if (!BitwiseEqual(fused, reference)) {
      return "fused stream not thread-invariant at threads=" + std::to_string(threads);
    }
  }
  return "";
}

TEST_F(SpmmEquivalenceTest, WeightedFusedMatchesChainBitwise) {
  const util::CheckResult result = util::ForAll<EqCase>(
      "spmm-eq:weighted", EqCaseDomain(1, 12, /*allow_empty=*/true),
      [](const EqCase& c) -> std::string {
        const graph::Graph g = proptest::MakeGraph(c.spec);
        const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(g);
        return CheckWeightedAggregation(edges, c.seed, c.masked);
      },
      util::DefaultPropConfig(160));
  EXPECT_TRUE(result.ok) << result.report;
}

TEST_F(SpmmEquivalenceTest, SumAndMeanFusedMatchChainBitwise) {
  const util::CheckResult result = util::ForAll<EqCase>(
      "spmm-eq:sum-mean", EqCaseDomain(1, 12, /*allow_empty=*/true),
      [](const EqCase& c) -> std::string {
        const graph::Graph g = proptest::MakeGraph(c.spec);
        const int n = g.num_nodes();
        std::vector<int> src(g.num_edges());
        std::vector<int> dst(g.num_edges());
        for (int e = 0; e < g.num_edges(); ++e) {
          src[e] = g.edge(e).src;
          dst[e] = g.edge(e).dst;
        }
        // Mean = sum with constant per-edge weight 1/in_degree(dst); zero
        // in-degree rows never appear as a destination.
        const std::vector<int> in_degrees = g.InDegrees();
        std::vector<float> mean_weights(g.num_edges());
        for (int e = 0; e < g.num_edges(); ++e) {
          mean_weights[e] = 1.0f / static_cast<float>(in_degrees[dst[e]]);
        }
        util::Rng rng(c.seed);
        std::vector<float> feature_values(static_cast<size_t>(n) * kFeatDim);
        for (auto& x : feature_values) x = static_cast<float>(rng.Uniform(-2.0, 2.0));
        const uint64_t loss_seed = c.seed ^ 0x5c5c5c5cULL;

        for (const int threads : kThreadCounts) {
          util::SetNumThreads(threads);
          Tensor sum_x = Tensor::FromData(n, kFeatDim, std::vector<float>(feature_values))
                             .WithRequiresGrad();
          const std::vector<float> fused_sum = RunToStream(
              [&] { return tensor::SpmmCsr(g.InCsr(), sum_x); }, {sum_x}, loss_seed);
          Tensor chain_x = Tensor::FromData(n, kFeatDim, std::vector<float>(feature_values))
                               .WithRequiresGrad();
          const std::vector<float> chain_sum = RunToStream(
              [&] { return tensor::ScatterAddRows(tensor::GatherRows(chain_x, src), dst, n); },
              {chain_x}, loss_seed);
          if (!BitwiseEqual(fused_sum, chain_sum)) {
            return "sum fused vs chain diverges at threads=" + std::to_string(threads);
          }

          Tensor mean_x = Tensor::FromData(n, kFeatDim, std::vector<float>(feature_values))
                              .WithRequiresGrad();
          const std::vector<float> fused_mean = RunToStream(
              [&] { return tensor::SpmmCsrMean(g.InCsr(), mean_x); }, {mean_x}, loss_seed);
          Tensor ref_x = Tensor::FromData(n, kFeatDim, std::vector<float>(feature_values))
                             .WithRequiresGrad();
          const std::vector<float> chain_mean = RunToStream(
              [&] {
                return tensor::ScatterAddRows(
                    tensor::RowScale(tensor::GatherRows(ref_x, src),
                                     Tensor::FromVector(mean_weights)),
                    dst, n);
              },
              {ref_x}, loss_seed);
          if (!BitwiseEqual(fused_mean, chain_mean)) {
            return "mean fused vs chain diverges at threads=" + std::to_string(threads);
          }
        }
        return "";
      },
      util::DefaultPropConfig(140));
  EXPECT_TRUE(result.ok) << result.report;
}

// ---------------------------------------------------------------------------
// Layer-level: real GCN/GIN/GAT vs the chain-aggregation reference
// ---------------------------------------------------------------------------

struct LayerPass {
  std::vector<float> output;
  std::vector<std::vector<float>> grads;
};

LayerPass RunLayerPass(const std::function<Tensor()>& forward, const gnn::GnnLayer& layer,
                       Tensor h, uint64_t loss_seed) {
  h.ZeroGrad();
  const std::vector<Tensor> params = layer.Parameters();
  for (Tensor p : params) p.ZeroGrad();
  Tensor out = forward();
  util::Rng wrng(loss_seed);
  Tensor weights = Tensor::Uniform(out.rows(), out.cols(), 0.5f, 1.5f, &wrng);
  tensor::Sum(tensor::Mul(out, weights)).Backward();
  LayerPass result;
  result.output = out.values();
  result.grads.push_back(h.GradData());
  for (const Tensor& p : params) result.grads.push_back(p.GradData());
  return result;
}

// Forward must be bitwise; gradients may legitimately differ by accumulation
// order when a tensor feeds several ops (GAT's per-head projection), so they
// get a 1e-6 relative budget — bitwise equality trivially passes it.
std::string CompareLayerPasses(const LayerPass& fused, const LayerPass& chain) {
  if (!BitwiseEqual(fused.output, chain.output)) return "forward output not bitwise-equal";
  if (fused.grads.size() != chain.grads.size()) return "gradient count mismatch";
  for (size_t i = 0; i < fused.grads.size(); ++i) {
    std::vector<float> a = fused.grads[i];
    std::vector<float> b = chain.grads[i];
    if (a.empty()) a.assign(b.size(), 0.0f);
    if (b.empty()) b.assign(a.size(), 0.0f);
    if (a.size() != b.size()) return "grad " + std::to_string(i) + " size mismatch";
    for (size_t k = 0; k < a.size(); ++k) {
      const double rel = std::fabs(static_cast<double>(a[k]) - b[k]) /
                         std::max({1.0, std::fabs(static_cast<double>(a[k])),
                                   std::fabs(static_cast<double>(b[k]))});
      if (rel > 1e-6) {
        return "grad " + std::to_string(i) + "[" + std::to_string(k) + "]: fused " +
               std::to_string(a[k]) + " vs chain " + std::to_string(b[k]);
      }
    }
  }
  return "";
}

std::string CheckLayerFusedVsChain(const gnn::GnnLayer& layer, const graph::Graph& g,
                                   const gnn::LayerEdgeSet& edges, const EqCase& c) {
  util::Rng rng(c.seed ^ 0xab1e);
  Tensor h = proptest::RandLeaf(rng, g.num_nodes(), layer.in_dim());
  Tensor mask;
  if (c.masked) {
    std::vector<float> mask_values(edges.num_layer_edges());
    for (auto& m : mask_values) {
      m = rng.Bernoulli(0.3) ? 0.0f : static_cast<float>(rng.Uniform(0.2, 1.0));
    }
    mask = Tensor::FromData(edges.num_layer_edges(), 1, std::move(mask_values));
  }
  const uint64_t loss_seed = c.seed ^ 0x70a57ULL;
  for (const int threads : kThreadCounts) {
    util::SetNumThreads(threads);
    const LayerPass fused_pass = RunLayerPass(
        [&] { return layer.Forward(g, edges, h, mask); }, layer, h, loss_seed);
    const LayerPass chain_pass = RunLayerPass(
        [&] { return proptest::ReferenceChainLayerForward(layer, g, edges, h, mask); }, layer,
        h, loss_seed);
    const std::string failure = CompareLayerPasses(fused_pass, chain_pass);
    if (!failure.empty()) return failure + " at threads=" + std::to_string(threads);
  }
  return "";
}

TEST_F(SpmmEquivalenceTest, GcnLayerFusedMatchesChain) {
  const util::CheckResult result = util::ForAll<EqCase>(
      "spmm-eq:gcn", EqCaseDomain(1, 9, /*allow_empty=*/false),
      [](const EqCase& c) -> std::string {
        const graph::Graph g = proptest::MakeGraph(c.spec);
        const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(g);
        util::Rng layer_rng(c.seed ^ 0x6c6cULL);
        gnn::GcnLayer layer(kFeatDim, 6, &layer_rng, /*normalize=*/true);
        return CheckLayerFusedVsChain(layer, g, edges, c);
      },
      util::DefaultPropConfig(40));
  EXPECT_TRUE(result.ok) << result.report;
}

TEST_F(SpmmEquivalenceTest, GinLayerFusedMatchesChain) {
  const util::CheckResult result = util::ForAll<EqCase>(
      "spmm-eq:gin", EqCaseDomain(1, 9, /*allow_empty=*/false),
      [](const EqCase& c) -> std::string {
        const graph::Graph g = proptest::MakeGraph(c.spec);
        const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(g);
        util::Rng layer_rng(c.seed ^ 0x9191ULL);
        gnn::GinLayer layer(kFeatDim, 6, &layer_rng, /*eps=*/0.3f);
        return CheckLayerFusedVsChain(layer, g, edges, c);
      },
      util::DefaultPropConfig(40));
  EXPECT_TRUE(result.ok) << result.report;
}

TEST_F(SpmmEquivalenceTest, GatLayerFusedMatchesChain) {
  const util::CheckResult result = util::ForAll<EqCase>(
      "spmm-eq:gat", EqCaseDomain(1, 9, /*allow_empty=*/false),
      [](const EqCase& c) -> std::string {
        const graph::Graph g = proptest::MakeGraph(c.spec);
        const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(g);
        util::Rng layer_rng(c.seed ^ 0x9a79a7ULL);
        const bool concat = (c.seed & 1) == 0;
        gnn::GatLayer layer(kFeatDim, 6, /*num_heads=*/2, concat, &layer_rng);
        return CheckLayerFusedVsChain(layer, g, edges, c);
      },
      util::DefaultPropConfig(40));
  EXPECT_TRUE(result.ok) << result.report;
}

// ---------------------------------------------------------------------------
// CSR cache invalidation under graph mutation
// ---------------------------------------------------------------------------

// Warm the cached CSR view, mutate the graph (RemoveEdges -> fresh Graph;
// AddEdge -> in-place invalidation), rebuild the layer edges, and require
// fused == chain on the mutated topology. A stale cached pattern would keep
// the old edge set on the fused side only, so the chain acts as the oracle.
TEST_F(SpmmEquivalenceTest, CsrCacheInvalidationAfterGraphMutation) {
  const util::CheckResult result = util::ForAll<EqCase>(
      "spmm-eq:cache-invalidation", EqCaseDomain(2, 10, /*allow_empty=*/false),
      [](const EqCase& c) -> std::string {
        graph::Graph g = proptest::MakeGraph(c.spec);
        (void)g.InCsr();  // warm the cache before any mutation
        std::string failure =
            CheckWeightedAggregation(gnn::BuildLayerEdges(g), c.seed, c.masked);
        if (!failure.empty()) return "pre-mutation: " + failure;

        util::Rng rng(c.seed ^ 0xca0eULL);
        if (g.num_edges() > 0) {
          std::vector<int> removed;
          for (int e = 0; e < g.num_edges(); ++e) {
            if (rng.Bernoulli(0.4)) removed.push_back(e);
          }
          if (removed.empty()) removed.push_back(rng.UniformInt(g.num_edges()));
          const graph::Graph reduced = g.RemoveEdges(removed);
          failure = CheckWeightedAggregation(gnn::BuildLayerEdges(reduced), c.seed ^ 0x9e9eULL,
                                             c.masked);
          if (!failure.empty()) return "post-RemoveEdges: " + failure;
        }

        const int u = rng.UniformInt(g.num_nodes());
        int v = rng.UniformInt(g.num_nodes());
        if (v == u) v = (v + 1) % g.num_nodes();
        g.AddEdge(u, v);
        const gnn::LayerEdgeSet after = gnn::BuildLayerEdges(g);
        if (after.csr->num_edges != g.num_edges() + g.num_nodes()) {
          return "stale CSR pattern after AddEdge (wrong edge count)";
        }
        failure = CheckWeightedAggregation(after, c.seed ^ 0xadd3ULL, c.masked);
        if (!failure.empty()) return "post-AddEdge: " + failure;
        return "";
      },
      util::DefaultPropConfig(100));
  EXPECT_TRUE(result.ok) << result.report;
}

}  // namespace
}  // namespace revelio
