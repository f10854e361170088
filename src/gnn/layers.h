#ifndef REVELIO_GNN_LAYERS_H_
#define REVELIO_GNN_LAYERS_H_

// Message-passing layers. Each layer implements the three steps of
// Preliminaries III (message calculation, aggregation, node update) and
// accepts an optional per-layer-edge mask applied at MSG time (paper Eq. 6):
//
//   m_ij = MSG(h_i, h_j, e_ij) * mask[e_ij]
//
// The mask hook is the single integration point for Revelio, the
// perturbation-based baselines, and fidelity evaluation.

#include <memory>
#include <vector>

#include "gnn/layer_edges.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "tensor/tensor.h"

namespace revelio::gnn {

class GnnLayer : public nn::Module {
 public:
  GnnLayer(int in_dim, int out_dim) : in_dim_(in_dim), out_dim_(out_dim) {}

  // Pre-activation output (the model applies non-linearities between layers).
  // `edge_mask` is (num_layer_edges x 1) or undefined for an unmasked pass.
  virtual tensor::Tensor Forward(const graph::Graph& graph, const LayerEdgeSet& edges,
                                 const tensor::Tensor& h,
                                 const tensor::Tensor& edge_mask) const = 0;

  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }

 private:
  int in_dim_;
  int out_dim_;
};

// Kipf & Welling GCN with symmetric normalization over the self-loop
// augmented edge set: h'_j = sum_e c_e * mask_e * (h W)_src(e) + b.
// `normalize = false` uses c_e = 1 (plain sum aggregation) — the variant the
// constant-feature graph-classification benchmarks require, matching the
// unnormalized GCN of PGExplainer's original BA-2motifs setup.
class GcnLayer : public GnnLayer {
 public:
  GcnLayer(int in_dim, int out_dim, util::Rng* rng, bool normalize = true);

  tensor::Tensor Forward(const graph::Graph& graph, const LayerEdgeSet& edges,
                         const tensor::Tensor& h, const tensor::Tensor& edge_mask) const override;

  // Accessors used by the GNN-LRP baseline (which re-derives the layer's
  // linear computation to propagate relevance).
  const nn::Linear& linear() const { return *linear_; }
  const tensor::Tensor& bias() const { return bias_added_; }
  bool normalize() const { return normalize_; }

  // The aggregation coefficient per layer edge (1 when unnormalized).
  std::vector<float> Coefficients(const graph::Graph& graph, const LayerEdgeSet& edges) const;

 private:
  std::unique_ptr<nn::Linear> linear_;
  tensor::Tensor bias_added_;  // added after aggregation
  bool normalize_;
};

// Xu et al. GIN: h'_j = MLP( sum_e coeff_e * mask_e * h_src(e) ), where the
// self-loop edge carries coefficient (1 + eps) and base edges coefficient 1.
class GinLayer : public GnnLayer {
 public:
  GinLayer(int in_dim, int out_dim, util::Rng* rng, float eps = 0.0f);

  tensor::Tensor Forward(const graph::Graph& graph, const LayerEdgeSet& edges,
                         const tensor::Tensor& h, const tensor::Tensor& edge_mask) const override;

  const nn::Linear& mlp_first() const { return *mlp_first_; }
  const nn::Linear& mlp_second() const { return *mlp_second_; }
  float eps() const { return eps_; }

 private:
  std::unique_ptr<nn::Linear> mlp_first_;
  std::unique_ptr<nn::Linear> mlp_second_;
  float eps_;
};

// Velickovic et al. GAT with multi-head additive attention over the in-edges
// (self-loop included). Heads are concatenated when `concat` is true (hidden
// layers) and averaged otherwise (final layer). Masks scale the attended
// message, leaving the attention distribution itself intact (Eq. 6 applies
// the mask to MSG output).
class GatLayer : public GnnLayer {
 public:
  GatLayer(int in_dim, int out_dim, int num_heads, bool concat, util::Rng* rng);

  tensor::Tensor Forward(const graph::Graph& graph, const LayerEdgeSet& edges,
                         const tensor::Tensor& h, const tensor::Tensor& edge_mask) const override;

  int num_heads() const { return num_heads_; }
  int head_dim() const { return head_dim_; }
  bool concat() const { return concat_; }

  // Per-head parameter accessors, used by the dense-reference differential
  // suite (tests/prop/dense_reference_test) to rebuild the layer's math over
  // a dense adjacency matrix.
  const nn::Linear& head_projection(int head) const { return *head_projections_[head]; }
  const tensor::Tensor& attention_src(int head) const { return attention_src_[head]; }
  const tensor::Tensor& attention_dst(int head) const { return attention_dst_[head]; }
  const tensor::Tensor& bias() const { return bias_; }

 private:
  int num_heads_;
  bool concat_;
  int head_dim_;
  std::vector<std::unique_ptr<nn::Linear>> head_projections_;  // in -> head_dim, no bias
  std::vector<tensor::Tensor> attention_src_;                  // head_dim x 1 per head
  std::vector<tensor::Tensor> attention_dst_;                  // head_dim x 1 per head
  tensor::Tensor bias_;                                        // 1 x out_dim
};

}  // namespace revelio::gnn

#endif  // REVELIO_GNN_LAYERS_H_
