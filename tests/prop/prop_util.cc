#include "prop/prop_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "flow/flow_scores.h"
#include "flow/message_flow.h"
#include "gnn/layer_edges.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "tensor/simd.h"

namespace revelio::proptest {
namespace {

using tensor::Tensor;

constexpr uint64_t kWeightSeedSalt = 0x77e1677e1677e167ULL;

struct Shape {
  int rows;
  int cols;
  bool fd;  // include in the finite-difference suite
};

std::string ShapeTag(int rows, int cols) {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

// Input styles; shapes stay FD-safe for the op they are used with.
enum class Fill { kUniform, kAwayFromZero, kDistinct, kPositive, kNarrow, kLogProb };

Tensor FillLeaf(util::Rng& rng, int rows, int cols, Fill fill) {
  switch (fill) {
    case Fill::kUniform:
      return RandLeaf(rng, rows, cols);
    case Fill::kAwayFromZero:
      return RandAwayFromZero(rng, rows, cols);
    case Fill::kDistinct:
      return RandDistinct(rng, rows, cols);
    case Fill::kPositive:
      return RandLeaf(rng, rows, cols, 0.5f, 3.0f);
    case Fill::kNarrow:
      return RandLeaf(rng, rows, cols, -1.5f, 1.5f);
    case Fill::kLogProb:
      return RandLeaf(rng, rows, cols, -3.0f, -0.1f);
  }
  return Tensor();
}

}  // namespace

std::vector<OpCase> MakeOpCases(uint64_t seed, bool include_large) {
  std::vector<OpCase> cases;
  util::Rng idx_rng(seed);  // draws every fixed index argument, in order

  auto add = [&cases](std::string op, std::string variant, bool fd,
                      std::function<std::vector<Tensor>(util::Rng&)> make_inputs,
                      std::function<Tensor(const std::vector<Tensor>&)> forward) {
    OpCase c;
    c.op = std::move(op);
    c.variant = std::move(variant);
    c.fd_checkable = fd;
    c.make_inputs = std::move(make_inputs);
    c.forward = std::move(forward);
    cases.push_back(std::move(c));
  };

  // Elementwise unary ops: same shape sweep for all of them.
  auto unary = [&](const std::string& op, Fill fill,
                   std::function<Tensor(const Tensor&)> fn) {
    std::vector<Shape> shapes = {{5, 4, true}, {1, 1, true}, {0, 3, true}};
    if (include_large) shapes.push_back({600, 60, false});
    for (const Shape& s : shapes) {
      // Large instances skip FD, so plain uniform values are fine everywhere.
      const Fill f = s.fd ? fill : Fill::kUniform;
      add(op, ShapeTag(s.rows, s.cols), s.fd,
          [s, f](util::Rng& rng) { return std::vector<Tensor>{FillLeaf(rng, s.rows, s.cols, f)}; },
          [fn](const std::vector<Tensor>& in) { return fn(in[0]); });
    }
  };
  unary("Relu", Fill::kAwayFromZero, [](const Tensor& a) { return tensor::Relu(a); });
  unary("LeakyRelu", Fill::kAwayFromZero,
        [](const Tensor& a) { return tensor::LeakyRelu(a, 0.2f); });
  unary("Tanh", Fill::kUniform, [](const Tensor& a) { return tensor::Tanh(a); });
  unary("Sigmoid", Fill::kUniform, [](const Tensor& a) { return tensor::Sigmoid(a); });
  unary("Exp", Fill::kNarrow, [](const Tensor& a) { return tensor::Exp(a); });
  unary("Log", Fill::kPositive, [](const Tensor& a) { return tensor::Log(a); });
  unary("Softplus", Fill::kUniform, [](const Tensor& a) { return tensor::Softplus(a); });
  unary("Neg", Fill::kUniform, [](const Tensor& a) { return tensor::Neg(a); });
  unary("AddScalar", Fill::kUniform, [](const Tensor& a) { return tensor::AddScalar(a, 0.7f); });
  unary("MulScalar", Fill::kUniform, [](const Tensor& a) { return tensor::MulScalar(a, -1.3f); });
  unary("Sum", Fill::kUniform, [](const Tensor& a) { return tensor::Sum(a); });
  unary("RowSoftmax", Fill::kUniform, [](const Tensor& a) { return tensor::RowSoftmax(a); });
  unary("RowLogSoftmax", Fill::kUniform,
        [](const Tensor& a) { return tensor::RowLogSoftmax(a); });

  // Mean CHECK-fails on empty tensors; no 0-row variant.
  {
    std::vector<Shape> shapes = {{5, 4, true}, {1, 1, true}};
    if (include_large) shapes.push_back({600, 60, false});
    for (const Shape& s : shapes) {
      add("Mean", ShapeTag(s.rows, s.cols), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.rows, s.cols, Fill::kUniform)};
          },
          [](const std::vector<Tensor>& in) { return tensor::Mean(in[0]); });
    }
  }

  // Elementwise binary ops.
  auto binary = [&](const std::string& op,
                    std::function<Tensor(const Tensor&, const Tensor&)> fn) {
    std::vector<Shape> shapes = {{5, 4, true}, {1, 1, true}, {0, 3, true}};
    if (include_large) shapes.push_back({600, 60, false});
    for (const Shape& s : shapes) {
      add(op, ShapeTag(s.rows, s.cols), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.rows, s.cols, Fill::kUniform),
                                       FillLeaf(rng, s.rows, s.cols, Fill::kUniform)};
          },
          [fn](const std::vector<Tensor>& in) { return fn(in[0], in[1]); });
    }
  };
  binary("Add", [](const Tensor& a, const Tensor& b) { return tensor::Add(a, b); });
  binary("Sub", [](const Tensor& a, const Tensor& b) { return tensor::Sub(a, b); });
  binary("Mul", [](const Tensor& a, const Tensor& b) { return tensor::Mul(a, b); });

  // AddRowBroadcast: (N x C) + (1 x C).
  {
    std::vector<Shape> shapes = {{5, 4, true}, {1, 1, true}, {0, 4, true}};
    if (include_large) shapes.push_back({2000, 40, false});
    for (const Shape& s : shapes) {
      add("AddRowBroadcast", ShapeTag(s.rows, s.cols), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.rows, s.cols, Fill::kUniform),
                                       FillLeaf(rng, 1, s.cols, Fill::kUniform)};
          },
          [](const std::vector<Tensor>& in) { return tensor::AddRowBroadcast(in[0], in[1]); });
    }
  }

  // ScaleByScalarTensor: (N x C) scaled by a differentiable 1x1.
  {
    std::vector<Shape> shapes = {{5, 4, true}, {1, 1, true}, {0, 3, true}};
    if (include_large) shapes.push_back({600, 60, false});
    for (const Shape& s : shapes) {
      add("ScaleByScalarTensor", ShapeTag(s.rows, s.cols), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.rows, s.cols, Fill::kUniform),
                                       FillLeaf(rng, 1, 1, Fill::kUniform)};
          },
          [](const std::vector<Tensor>& in) {
            return tensor::ScaleByScalarTensor(in[0], in[1]);
          });
    }
  }

  // MatMul: (N x K) x (K x M).
  {
    struct MatShape {
      int n, k, m;
      bool fd;
    };
    std::vector<MatShape> shapes = {{5, 3, 4, true}, {1, 1, 1, true}, {0, 3, 4, true}};
    if (include_large) shapes.push_back({256, 64, 48, false});
    for (const MatShape& s : shapes) {
      add("MatMul",
          ShapeTag(s.n, s.k) + "*" + ShapeTag(s.k, s.m), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.n, s.k, Fill::kUniform),
                                       FillLeaf(rng, s.k, s.m, Fill::kUniform)};
          },
          [](const std::vector<Tensor>& in) { return tensor::MatMul(in[0], in[1]); });
    }
  }

  // GatherRows.
  {
    struct GatherShape {
      int src_rows, cols, count;
      bool fd;
    };
    // Column vectors (cols == 1) take the kernels' inline per-element path.
    std::vector<GatherShape> shapes = {
        {6, 3, 8, true}, {1, 1, 1, true}, {4, 3, 0, true}, {6, 1, 9, true}};
    if (include_large) {
      shapes.push_back({512, 64, 4000, false});
      shapes.push_back({512, 1, 40000, false});
    }
    for (const GatherShape& s : shapes) {
      std::vector<int> indices(s.count);
      for (auto& i : indices) i = idx_rng.UniformInt(s.src_rows);
      add("GatherRows", ShapeTag(s.src_rows, s.cols) + "/" + std::to_string(s.count), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.src_rows, s.cols, Fill::kUniform)};
          },
          [indices](const std::vector<Tensor>& in) {
            return tensor::GatherRows(in[0], indices);
          });
    }
  }

  // ScatterAddRows (with index collisions).
  {
    struct ScatterShape {
      int src_rows, cols, num_rows;
      bool fd;
    };
    std::vector<ScatterShape> shapes = {
        {6, 3, 4, true}, {1, 1, 2, true}, {0, 3, 3, true}, {9, 1, 4, true}};
    if (include_large) {
      shapes.push_back({4000, 64, 512, false});
      shapes.push_back({40000, 1, 512, false});
    }
    for (const ScatterShape& s : shapes) {
      std::vector<int> indices(s.src_rows);
      for (auto& i : indices) i = idx_rng.UniformInt(s.num_rows);
      add("ScatterAddRows", ShapeTag(s.src_rows, s.cols) + "->" + std::to_string(s.num_rows),
          s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.src_rows, s.cols, Fill::kUniform)};
          },
          [indices, s](const std::vector<Tensor>& in) {
            return tensor::ScatterAddRows(in[0], indices, s.num_rows);
          });
    }
  }

  // Fused SpMM ops: random CSR patterns (with collisions and zero-degree
  // rows), feature matrix differentiable; the weighted variant also
  // differentiates the per-edge weight vector.
  {
    struct SpmmShape {
      int num_rows, num_cols, num_edges, feat;
      bool fd;
    };
    std::vector<SpmmShape> shapes = {{4, 5, 9, 3, true}, {1, 1, 1, 1, true}, {3, 2, 0, 3, true}};
    if (include_large) shapes.push_back({512, 512, 4000, 64, false});
    auto rand_pattern = [&idx_rng](const SpmmShape& s) {
      std::vector<int> rows(s.num_edges);
      std::vector<int> cols(s.num_edges);
      for (int k = 0; k < s.num_edges; ++k) {
        rows[k] = idx_rng.UniformInt(s.num_rows);
        cols[k] = idx_rng.UniformInt(s.num_cols);
      }
      return tensor::BuildCsrPattern(s.num_rows, s.num_cols, rows, cols);
    };
    for (const SpmmShape& s : shapes) {
      const std::string tag =
          ShapeTag(s.num_rows, s.num_cols) + "/" + std::to_string(s.num_edges);
      {
        tensor::CsrPatternRef pattern = rand_pattern(s);
        add("SpmmCsr", tag, s.fd,
            [s](util::Rng& rng) {
              return std::vector<Tensor>{FillLeaf(rng, s.num_cols, s.feat, Fill::kUniform)};
            },
            [pattern](const std::vector<Tensor>& in) {
              return tensor::SpmmCsr(pattern, in[0]);
            });
      }
      {
        tensor::CsrPatternRef pattern = rand_pattern(s);
        add("SpmmCsrWeighted", tag, s.fd,
            [s](util::Rng& rng) {
              return std::vector<Tensor>{FillLeaf(rng, s.num_edges, 1, Fill::kUniform),
                                         FillLeaf(rng, s.num_cols, s.feat, Fill::kUniform)};
            },
            [pattern](const std::vector<Tensor>& in) {
              return tensor::SpmmCsrWeighted(pattern, in[0], in[1]);
            });
      }
      {
        tensor::CsrPatternRef pattern = rand_pattern(s);
        add("SpmmCsrMean", tag, s.fd,
            [s](util::Rng& rng) {
              return std::vector<Tensor>{FillLeaf(rng, s.num_cols, s.feat, Fill::kUniform)};
            },
            [pattern](const std::vector<Tensor>& in) {
              return tensor::SpmmCsrMean(pattern, in[0]);
            });
      }
    }
  }

  // RowScale: both operands differentiable.
  {
    std::vector<Shape> shapes = {{5, 3, true}, {1, 1, true}, {0, 3, true}};
    if (include_large) shapes.push_back({2000, 40, false});
    for (const Shape& s : shapes) {
      add("RowScale", ShapeTag(s.rows, s.cols), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.rows, s.cols, Fill::kUniform),
                                       FillLeaf(rng, s.rows, 1, Fill::kUniform)};
          },
          [](const std::vector<Tensor>& in) { return tensor::RowScale(in[0], in[1]); });
    }
  }

  // ConcatCols.
  {
    struct ConcatShape {
      int rows, a_cols, b_cols;
      bool fd;
    };
    std::vector<ConcatShape> shapes = {{4, 2, 3, true}, {1, 1, 1, true}, {0, 2, 3, true}};
    if (include_large) shapes.push_back({2000, 30, 34, false});
    for (const ConcatShape& s : shapes) {
      add("ConcatCols", ShapeTag(s.rows, s.a_cols) + "|" + ShapeTag(s.rows, s.b_cols), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.rows, s.a_cols, Fill::kUniform),
                                       FillLeaf(rng, s.rows, s.b_cols, Fill::kUniform)};
          },
          [](const std::vector<Tensor>& in) { return tensor::ConcatCols(in[0], in[1]); });
    }
  }

  // Segment ops. Segment ids deliberately include (possibly) empty segments.
  {
    struct SegShape {
      int count, cols, num_segments;
      bool fd;
    };
    // SegmentSoftmax requires (M x 1) values.
    std::vector<SegShape> softmax_shapes = {{8, 1, 3, true}, {1, 1, 1, true}, {0, 1, 2, true}};
    if (include_large) softmax_shapes.push_back({20000, 1, 128, false});
    for (const SegShape& s : softmax_shapes) {
      std::vector<int> ids = RandSegments(idx_rng, s.count, s.num_segments);
      add("SegmentSoftmax", std::to_string(s.count) + "/" + std::to_string(s.num_segments),
          s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.count, 1, Fill::kUniform)};
          },
          [ids, s](const std::vector<Tensor>& in) {
            return tensor::SegmentSoftmax(in[0], ids, s.num_segments);
          });
    }

    std::vector<SegShape> mean_shapes = {{7, 3, 4, true}, {1, 1, 1, true}, {0, 3, 2, true}};
    if (include_large) mean_shapes.push_back({4000, 32, 64, false});
    for (const SegShape& s : mean_shapes) {
      std::vector<int> ids = RandSegments(idx_rng, s.count, s.num_segments);
      add("SegmentMeanRows", std::to_string(s.count) + "/" + std::to_string(s.num_segments),
          s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.count, s.cols, Fill::kUniform)};
          },
          [ids, s](const std::vector<Tensor>& in) {
            return tensor::SegmentMeanRows(in[0], ids, s.num_segments);
          });
    }

    std::vector<SegShape> sum_shapes = {{7, 3, 4, true}, {1, 1, 1, true}, {0, 3, 2, true}};
    if (include_large) sum_shapes.push_back({4000, 32, 64, false});
    for (const SegShape& s : sum_shapes) {
      std::vector<int> ids = RandSegments(idx_rng, s.count, s.num_segments);
      add("SegmentSumRows", std::to_string(s.count) + "/" + std::to_string(s.num_segments),
          s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.count, s.cols, Fill::kUniform)};
          },
          [ids, s](const std::vector<Tensor>& in) {
            return tensor::SegmentSumRows(in[0], ids, s.num_segments);
          });
    }

    // SegmentMaxRows gradient flows to the argmax row, so FD needs pairwise
    // distinct, well-separated values (RandDistinct).
    std::vector<SegShape> max_shapes = {{7, 3, 3, true}, {1, 1, 1, true}, {0, 3, 2, true}};
    if (include_large) max_shapes.push_back({4000, 32, 64, false});
    for (const SegShape& s : max_shapes) {
      std::vector<int> ids = RandSegments(idx_rng, s.count, s.num_segments);
      add("SegmentMaxRows", std::to_string(s.count) + "/" + std::to_string(s.num_segments),
          s.fd,
          [s](util::Rng& rng) {
            const Fill fill = s.fd ? Fill::kDistinct : Fill::kUniform;
            return std::vector<Tensor>{FillLeaf(rng, s.count, s.cols, fill)};
          },
          [ids, s](const std::vector<Tensor>& in) {
            return tensor::SegmentMaxRows(in[0], ids, s.num_segments);
          });
    }
  }

  // Select.
  {
    add("Select", "5x4@(2,3)", true,
        [](util::Rng& rng) { return std::vector<Tensor>{RandLeaf(rng, 5, 4)}; },
        [](const std::vector<Tensor>& in) { return tensor::Select(in[0], 2, 3); });
    add("Select", "1x1@(0,0)", true,
        [](util::Rng& rng) { return std::vector<Tensor>{RandLeaf(rng, 1, 1)}; },
        [](const std::vector<Tensor>& in) { return tensor::Select(in[0], 0, 0); });
  }

  // SelectMany: batched Select with a deliberate duplicate (row 2, col 3)
  // so the backward's in-order accumulation over repeated sources is covered.
  {
    std::vector<int> rows = {2, 0, 4, 2, 1, 2, 3};
    std::vector<int> cols = {3, 1, 0, 3, 2, 0, 3};
    add("SelectMany", "5x4/7picks", true,
        [](util::Rng& rng) { return std::vector<Tensor>{RandLeaf(rng, 5, 4)}; },
        [rows, cols](const std::vector<Tensor>& in) {
          return tensor::SelectMany(in[0], rows, cols);
        });
    add("SelectMany", "1x1/1pick", true,
        [](util::Rng& rng) { return std::vector<Tensor>{RandLeaf(rng, 1, 1)}; },
        [](const std::vector<Tensor>& in) {
          return tensor::SelectMany(in[0], {0}, {0});
        });
    if (include_large) {
      std::vector<int> big_rows(500), big_cols(500);
      for (int k = 0; k < 500; ++k) {
        big_rows[k] = idx_rng.UniformInt(300);
        big_cols[k] = idx_rng.UniformInt(16);
      }
      add("SelectMany", "300x16/500picks", false,
          [](util::Rng& rng) { return std::vector<Tensor>{RandLeaf(rng, 300, 16)}; },
          [big_rows, big_cols](const std::vector<Tensor>& in) {
            return tensor::SelectMany(in[0], big_rows, big_cols);
          });
    }
  }

  // NllLoss (CHECK-fails on zero rows; no empty variant).
  {
    struct NllShape {
      int rows, classes;
      bool fd;
    };
    std::vector<NllShape> shapes = {{5, 4, true}, {1, 1, true}};
    if (include_large) shapes.push_back({3000, 16, false});
    for (const NllShape& s : shapes) {
      std::vector<int> targets(s.rows);
      for (auto& t : targets) t = idx_rng.UniformInt(s.classes);
      add("NllLoss", ShapeTag(s.rows, s.classes), s.fd,
          [s](util::Rng& rng) {
            return std::vector<Tensor>{FillLeaf(rng, s.rows, s.classes, Fill::kLogProb)};
          },
          [targets](const std::vector<Tensor>& in) {
            return tensor::NllLoss(in[0], targets);
          });
    }
  }

  return cases;
}

namespace {

// Fixed random weighting of the op output: reduces any output shape to a
// well-conditioned scalar loss that is linear in the output (so the FD error
// comes from the op alone, not the reduction).
Tensor LossWeights(const Tensor& output, uint64_t value_seed) {
  util::Rng rng(value_seed ^ kWeightSeedSalt);
  return Tensor::Uniform(output.rows(), output.cols(), 0.5f, 1.5f, &rng);
}

double WeightedLoss(const Tensor& output, const Tensor& weights) {
  const std::vector<float>& y = output.values();
  const std::vector<float>& w = weights.values();
  double acc = 0.0;
  for (size_t i = 0; i < y.size(); ++i) acc += static_cast<double>(y[i]) * w[i];
  return acc;
}

}  // namespace

std::vector<float> RunOpCaseBitstream(const OpCase& c, uint64_t value_seed) {
  util::Rng rng(value_seed);
  std::vector<Tensor> inputs = c.make_inputs(rng);
  Tensor output = c.forward(inputs);
  Tensor loss = tensor::Sum(tensor::Mul(output, LossWeights(output, value_seed)));
  if (loss.requires_grad()) loss.Backward();
  std::vector<float> stream = output.values();
  stream.push_back(loss.Value());
  for (const Tensor& t : inputs) {
    const std::vector<float> grad = t.GradData();
    stream.insert(stream.end(), grad.begin(), grad.end());
  }
  return stream;
}

double OpCaseMaxGradError(const OpCase& c, uint64_t value_seed, std::string* detail) {
  util::Rng rng(value_seed);
  std::vector<Tensor> inputs = c.make_inputs(rng);
  Tensor probe = c.forward(inputs);
  Tensor weights = LossWeights(probe, value_seed);

  // Analytic gradients.
  for (Tensor& t : inputs) t.ZeroGrad();
  Tensor loss = tensor::Sum(tensor::Mul(c.forward(inputs), weights));
  if (loss.requires_grad()) loss.Backward();

  const float h = 1e-2f;
  double max_rel_err = 0.0;
  for (size_t input_index = 0; input_index < inputs.size(); ++input_index) {
    Tensor& t = inputs[input_index];
    if (!t.requires_grad()) continue;
    for (int r = 0; r < t.rows(); ++r) {
      for (int col = 0; col < t.cols(); ++col) {
        const float original = t.At(r, col);
        t.SetAt(r, col, original + h);
        const double plus = WeightedLoss(c.forward(inputs), weights);
        t.SetAt(r, col, original - h);
        const double minus = WeightedLoss(c.forward(inputs), weights);
        t.SetAt(r, col, original);
        const double numeric = (plus - minus) / (2.0 * h);
        const double analytic = t.GradAt(r, col);
        const double rel_err = std::fabs(analytic - numeric) /
                               std::max({1.0, std::fabs(analytic), std::fabs(numeric)});
        if (rel_err > max_rel_err) {
          max_rel_err = rel_err;
          if (detail != nullptr) {
            char buffer[160];
            std::snprintf(buffer, sizeof(buffer),
                          "input %zu entry (%d,%d): analytic %.6g vs numeric %.6g",
                          input_index, r, col, analytic, numeric);
            *detail = buffer;
          }
        }
      }
    }
  }
  return max_rel_err;
}

namespace {

using explain::Objective;
using LayerScaling = core::RevelioOptions::LayerScaling;

Tensor ReferenceObjective(const Tensor& logits, const explain::ExplanationTask& task,
                          Objective objective) {
  return objective == Objective::kFactual
             ? nn::FactualObjective(logits, task.logit_row(), task.target_class)
             : nn::CounterfactualObjective(logits, task.logit_row(), task.target_class);
}

// Eq. 5/7: omega[e^l] = sigmoid(sum_{F through (l, e)} omega[F] * scale(w_l)).
std::vector<Tensor> ReferenceLayerMasks(const flow::FlowSet& flows, const Tensor& omega_flows,
                                        const Tensor& layer_weights, LayerScaling scaling) {
  Tensor scale;
  if (scaling == LayerScaling::kExp) scale = tensor::Exp(layer_weights);
  if (scaling == LayerScaling::kSoftplus) scale = tensor::Softplus(layer_weights);
  std::vector<Tensor> masks;
  for (int l = 0; l < flows.num_layers(); ++l) {
    Tensor accumulated =
        tensor::ScatterAddRows(omega_flows, flows.EdgesAtLayer(l), flows.num_layer_edges());
    if (scale.defined()) {
      accumulated = tensor::ScaleByScalarTensor(accumulated, tensor::Select(scale, l, 0));
    }
    masks.push_back(tensor::Sigmoid(accumulated));
  }
  return masks;
}

// Eq. 8: mean mask value over the flow-carrying layer edges.
Tensor ReferenceUsedEdgeMean(const flow::FlowSet& flows, const std::vector<Tensor>& masks) {
  Tensor total;
  int count = 0;
  for (int l = 0; l < flows.num_layers(); ++l) {
    const std::vector<int> used = flows.UsedEdgesAtLayer(l);
    if (used.empty()) continue;
    Tensor layer_sum = tensor::Sum(tensor::GatherRows(masks[l], used));
    total = total.defined() ? tensor::Add(total, layer_sum) : layer_sum;
    count += static_cast<int>(used.size());
  }
  return tensor::MulScalar(total, 1.0f / static_cast<float>(count));
}

}  // namespace

namespace scalar_ref {

void AddF32(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}

void SubF32(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}

void MulF32(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}

void AddScalarF32(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + s;
}

void MulScalarF32(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * s;
}

void AddAccF32(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] += a[i];
}

void AddScalarAccF32(float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] += s;
}

void MulAccF32(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] += s * a[i];
}

void MulPairAccF32(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] += a[i] * b[i];
}

void AxpyF32(float a, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void ReluF32(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

void ReluGradAccF32(const float* g, const float* a, float* ga, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (a[i] > 0.0f) ga[i] += g[i];
  }
}

void LeakyReluF32(const float* a, float slope, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : slope * a[i];
}

void LeakyReluGradAccF32(const float* g, const float* a, float slope, float* ga, int64_t n) {
  for (int64_t i = 0; i < n; ++i) ga[i] += g[i] * (a[i] > 0.0f ? 1.0f : slope);
}

void SigmoidGradAccF32(const float* g, const float* ov, float* ga, int64_t n) {
  for (int64_t i = 0; i < n; ++i) ga[i] += g[i] * ov[i] * (1.0f - ov[i]);
}

void TanhGradAccF32(const float* g, const float* ov, float* ga, int64_t n) {
  for (int64_t i = 0; i < n; ++i) ga[i] += g[i] * (1.0f - ov[i] * ov[i]);
}

float DotF32(const float* a, const float* b, int64_t n) {
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

void MatMulRowsF32(const float* a, const float* b, float* o, int64_t ib, int64_t ie, int k,
                   int m) {
  for (int64_t i = ib; i < ie; ++i) {
    float* orow = o + static_cast<size_t>(i) * m;
    std::fill(orow, orow + m, 0.0f);
    for (int kk = 0; kk < k; ++kk) {
      const float aik = a[static_cast<size_t>(i) * k + kk];
      if (aik == 0.0f) continue;
      const float* brow = b + static_cast<size_t>(kk) * m;
      for (int j = 0; j < m; ++j) orow[j] += aik * brow[j];
    }
  }
}

void MatMulGradARowsF32(const float* g, const float* b, float* ga, int64_t ib, int64_t ie, int k,
                        int m) {
  for (int64_t i = ib; i < ie; ++i) {
    const float* grow = g + static_cast<size_t>(i) * m;
    float* garow = ga + static_cast<size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) garow[kk] += DotF32(grow, b + static_cast<size_t>(kk) * m, m);
  }
}

void MatMulGradBRowsF32(const float* g, const float* a, float* gb, int64_t kb, int64_t ke, int n,
                        int k, int m) {
  for (int i = 0; i < n; ++i) {
    const float* grow = g + static_cast<size_t>(i) * m;
    const float* arow = a + static_cast<size_t>(i) * k;
    for (int64_t kk = kb; kk < ke; ++kk) {
      const float aik = arow[kk];
      if (aik == 0.0f) continue;
      float* gbrow = gb + static_cast<size_t>(kk) * m;
      for (int j = 0; j < m; ++j) gbrow[j] += aik * grow[j];
    }
  }
}

}  // namespace scalar_ref

void ReferenceMatMulGradARows(const float* g, const float* b, float* ga, int n, int k, int m) {
  for (int i = 0; i < n; ++i) {
    const float* grow = g + static_cast<size_t>(i) * m;
    float* garow = ga + static_cast<size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) {
      garow[kk] += tensor::simd::DotF32(grow, b + static_cast<size_t>(kk) * m, m);
    }
  }
}

namespace {

Tensor ChainAggregate(const gnn::LayerEdgeSet& edges, const Tensor& scale, const Tensor& h) {
  return tensor::ScatterAddRows(tensor::RowScale(tensor::GatherRows(h, edges.src), scale),
                                edges.dst, edges.num_nodes);
}

}  // namespace

Tensor ReferenceChainLayerForward(const gnn::GnnLayer& layer, const graph::Graph& graph,
                                  const gnn::LayerEdgeSet& edges, const Tensor& h,
                                  const Tensor& edge_mask) {
  const int m = edges.num_layer_edges();
  if (const auto* gcn = dynamic_cast<const gnn::GcnLayer*>(&layer)) {
    Tensor hw = gcn->linear().Forward(h);
    Tensor scale = Tensor::FromData(m, 1, gcn->Coefficients(graph, edges));
    if (edge_mask.defined()) scale = tensor::Mul(scale, edge_mask);
    return tensor::AddRowBroadcast(ChainAggregate(edges, scale, hw), gcn->bias());
  }
  if (const auto* gin = dynamic_cast<const gnn::GinLayer*>(&layer)) {
    std::vector<float> coefficients(static_cast<size_t>(m), 1.0f);
    for (int e = edges.num_base_edges; e < m; ++e) coefficients[e] = 1.0f + gin->eps();
    Tensor scale = Tensor::FromData(m, 1, std::move(coefficients));
    if (edge_mask.defined()) scale = tensor::Mul(scale, edge_mask);
    return gin->mlp_second().Forward(
        tensor::Relu(gin->mlp_first().Forward(ChainAggregate(edges, scale, h))));
  }
  const auto* gat = dynamic_cast<const gnn::GatLayer*>(&layer);
  CHECK(gat != nullptr) << "ReferenceChainLayerForward: unsupported layer type";
  Tensor combined;
  for (int k = 0; k < gat->num_heads(); ++k) {
    Tensor wh = gat->head_projection(k).Forward(h);
    Tensor score_src = tensor::MatMul(wh, gat->attention_src(k));
    Tensor score_dst = tensor::MatMul(wh, gat->attention_dst(k));
    Tensor edge_logits = tensor::LeakyRelu(
        tensor::Add(tensor::GatherRows(score_src, edges.src),
                    tensor::GatherRows(score_dst, edges.dst)),
        0.2f);
    Tensor attention = tensor::SegmentSoftmax(edge_logits, edges.dst, edges.num_nodes);
    Tensor scale = edge_mask.defined() ? tensor::Mul(attention, edge_mask) : attention;
    Tensor head_out = ChainAggregate(edges, scale, wh);
    if (!combined.defined()) {
      combined = head_out;
    } else if (gat->concat()) {
      combined = tensor::ConcatCols(combined, head_out);
    } else {
      combined = tensor::Add(combined, head_out);
    }
  }
  if (!gat->concat() && gat->num_heads() > 1) {
    combined = tensor::MulScalar(combined, 1.0f / static_cast<float>(gat->num_heads()));
  }
  return tensor::AddRowBroadcast(combined, gat->bias());
}

core::RevelioExplainer::FlowExplanation ReferenceRevelioFlows(
    const explain::ExplanationTask& task, Objective objective,
    const core::RevelioOptions& options) {
  const gnn::GnnModel& model = *task.model;
  const int num_layers = model.num_layers();
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(*task.graph);
  core::RevelioExplainer::FlowExplanation result;
  result.flows = task.is_node_task() ? flow::EnumerateFlowsToTarget(edges, task.target_node,
                                                                    num_layers, options.max_flows)
                                     : flow::EnumerateAllFlows(edges, num_layers, options.max_flows);

  // §VI prefilter: one gradient pass at zero masks scores every flow by
  // |d objective / d M_k|; only the top-k flows are learned.
  if (options.prefilter_top_k > 0 && options.prefilter_top_k < result.flows.num_flows()) {
    Tensor probe = Tensor::Zeros(result.flows.num_flows(), 1).WithRequiresGrad();
    const std::vector<Tensor> masks = ReferenceLayerMasks(
        result.flows, tensor::Tanh(probe), Tensor::Zeros(num_layers, 1), options.layer_scaling);
    Tensor logits = model.Run(*task.graph, edges, task.features, masks).logits;
    ReferenceObjective(logits, task, objective).Backward();
    std::vector<double> saliency(result.flows.num_flows());
    for (int k = 0; k < result.flows.num_flows(); ++k) {
      saliency[k] = std::fabs(probe.GradAt(k, 0));
    }
    flow::FlowSet kept(num_layers, edges.num_layer_edges());
    std::vector<int> path(num_layers);
    for (int k : flow::TopKFlows(saliency, options.prefilter_top_k)) {
      for (int l = 0; l < num_layers; ++l) path[l] = result.flows.EdgeAt(l, k);
      kept.AddFlow(path);
    }
    result.flows = std::move(kept);
  }
  const flow::FlowSet& flows = result.flows;

  util::Rng rng(options.seed);
  Tensor flow_params = Tensor::Randn(flows.num_flows(), 1, &rng);
  for (float& v : *flow_params.mutable_values()) v *= 0.1f;
  flow_params.WithRequiresGrad();
  Tensor layer_weights = Tensor::Zeros(num_layers, 1).WithRequiresGrad();
  nn::Adam optimizer({flow_params, layer_weights}, options.learning_rate);
  auto omega_of = [&options](const Tensor& params) {
    return options.use_tanh_flow_masks ? tensor::Tanh(params) : tensor::Sigmoid(params);
  };
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    optimizer.ZeroGrad();
    const std::vector<Tensor> masks = ReferenceLayerMasks(flows, omega_of(flow_params),
                                                          layer_weights, options.layer_scaling);
    Tensor logits = model.Run(*task.graph, edges, task.features, masks).logits;
    Tensor loss = ReferenceObjective(logits, task, objective);
    Tensor regularizer = ReferenceUsedEdgeMean(flows, masks);
    if (objective == Objective::kCounterfactual) {
      regularizer = tensor::AddScalar(tensor::Neg(regularizer), 1.0f);  // Eq. 9
    }
    loss = tensor::Add(loss, tensor::MulScalar(regularizer, options.alpha));
    loss.Backward();
    optimizer.Step();
  }

  // Readout: counterfactual scores follow §IV-C (-omega[F], 1 - omega[e]).
  const Tensor omega = omega_of(flow_params);
  const std::vector<Tensor> masks =
      ReferenceLayerMasks(flows, omega, layer_weights, options.layer_scaling);
  const float sign = objective == Objective::kCounterfactual ? -1.0f : 1.0f;
  for (int k = 0; k < flows.num_flows(); ++k) {
    result.flow_scores.push_back(sign * omega.At(k, 0));
  }
  result.layer_edge_masks.assign(num_layers, std::vector<double>(edges.num_layer_edges()));
  for (int l = 0; l < num_layers; ++l) {
    for (int e = 0; e < edges.num_layer_edges(); ++e) {
      const double value = masks[l].At(e, 0);
      result.layer_edge_masks[l][e] = objective == Objective::kCounterfactual ? 1.0 - value : value;
    }
  }
  result.edge_scores = flow::LayerEdgeScoresToEdgeScores(flows, edges, result.layer_edge_masks);
  for (int l = 0; l < num_layers; ++l) result.layer_weights.push_back(layer_weights.At(l, 0));
  return result;
}

explain::Explanation ReferenceGnnExplainer(const explain::ExplanationTask& task,
                                           Objective objective,
                                           const explain::GnnExplainerOptions& options) {
  const gnn::LayerEdgeSet edges = gnn::BuildLayerEdges(*task.graph);
  const int num_base = edges.num_base_edges;
  // The base-edge mask expands to the layer edges with self-loops pinned at 1.
  std::vector<int> base_rows(num_base);
  std::iota(base_rows.begin(), base_rows.end(), 0);
  std::vector<float> self_ones(edges.num_layer_edges(), 0.0f);
  for (int e = num_base; e < edges.num_layer_edges(); ++e) self_ones[e] = 1.0f;

  util::Rng rng(options.seed);
  Tensor mask_params = Tensor::Randn(num_base, 1, &rng);
  for (float& v : *mask_params.mutable_values()) v *= 0.1f;
  mask_params.WithRequiresGrad();
  nn::Adam optimizer({mask_params}, options.learning_rate);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    optimizer.ZeroGrad();
    const Tensor mask = tensor::Sigmoid(mask_params);
    const Tensor layer_mask =
        tensor::Add(tensor::ScatterAddRows(mask, base_rows, edges.num_layer_edges()),
                    Tensor::FromVector(self_ones));
    const std::vector<Tensor> masks(task.model->num_layers(), layer_mask);
    Tensor logits = task.model->Run(*task.graph, edges, task.features, masks).logits;
    // Every (1 - mask) is its own node, as in the mask driver's build_loss, so
    // gradients reach the mask through the same accumulation chain.
    Tensor loss = ReferenceObjective(logits, task, objective);
    Tensor size = objective == Objective::kFactual
                      ? tensor::Mean(mask)
                      : tensor::Mean(tensor::AddScalar(tensor::Neg(mask), 1.0f));
    loss = tensor::Add(loss, tensor::MulScalar(size, options.size_penalty));
    Tensor entropy = tensor::Neg(
        tensor::Add(tensor::Mul(mask, tensor::Log(mask)),
                    tensor::Mul(tensor::AddScalar(tensor::Neg(mask), 1.0f),
                                tensor::Log(tensor::AddScalar(tensor::Neg(mask), 1.0f)))));
    loss = tensor::Add(loss, tensor::MulScalar(tensor::Mean(entropy), options.entropy_penalty));
    loss.Backward();
    optimizer.Step();
  }

  explain::Explanation explanation;
  const Tensor final_mask = tensor::Sigmoid(mask_params);
  for (int e = 0; e < num_base; ++e) {
    const double value = final_mask.At(e, 0);
    explanation.edge_scores.push_back(objective == Objective::kFactual ? value : 1.0 - value);
  }
  return explanation;
}

}  // namespace revelio::proptest
