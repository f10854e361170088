// SIMD tier equivalence (src/tensor/simd.h, DESIGN.md §13): every registered
// tensor op must produce the same forward values, loss, and input gradients
// with SIMD dispatch on as the scalar loops produce with it off, under the
// op's DECLARED tolerance class:
//
//   bitwise       everything except the three DotF32 reductions below — the
//                 vector kernels preserve the serial fold order exactly
//                 (separate mul+add, no FMA, owner-computes partitioning);
//   ulp-bounded   MatMul backward dA, SpmmCsrWeighted backward dW, and
//                 RowScale backward dscale, whose shared lane-partial DotF32
//                 reduces in a different order than the serial loop.
//
// The grid runs threads {1, 2, 7, 16} x pool {on, off}; a separate test pins
// the SIMD path itself bitwise across thread counts (chunk boundaries only
// shift the vector-body/tail split, never the bits), another diffs MatMul's
// dA register tiles bitwise against a per-element DotF32 loop, and a
// plan-session test proves replayed tapes honor the runtime toggle because
// dispatch lives inside the recorded chunk closures, not at record time.

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "plan/plan.h"
#include "prop/prop_util.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/simd.h"
#include "util/parallel.h"
#include "util/proptest.h"
#include "util/rng.h"

namespace revelio::proptest {
namespace {

using tensor::Tensor;

constexpr uint64_t kSeed = 20260808;

// The declared tolerance class for comparing an op's SIMD stream against its
// scalar stream. The ulp bound is generous for the reordered reductions; the
// absolute floor absorbs entries where the dot cancels to near zero.
util::Tolerance ToleranceFor(const std::string& op) {
  if (op == "MatMul" || op == "SpmmCsrWeighted" || op == "RowScale") {
    return util::Tolerance::Ulps(256, /*abs_floor=*/1e-3);
  }
  return util::Tolerance::Bitwise();
}

class SimdEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::SetNumThreads(1);
    tensor::SetPoolEnabled(true);
    tensor::simd::SetEnabled(tensor::simd::Lanes() > 1);
    plan::SetExecPlanEnabled(true);
  }
};

TEST_F(SimdEquivalenceTest, AllOpsMatchScalarUnderDeclaredTolerance) {
  const std::vector<OpCase> cases = MakeOpCases(kSeed, /*include_large=*/true);
  ASSERT_FALSE(cases.empty());
  for (const OpCase& c : cases) {
    // Scalar reference: SIMD off, one thread, pool on.
    util::SetNumThreads(1);
    tensor::SetPoolEnabled(true);
    tensor::simd::SetEnabled(false);
    const std::vector<float> reference = RunOpCaseBitstream(c, kSeed ^ 0xabcdULL);

    tensor::simd::SetEnabled(true);
    const util::Tolerance tolerance = ToleranceFor(c.op);
    for (const int threads : {1, 2, 7, 16}) {
      for (const bool pool_on : {true, false}) {
        util::SetNumThreads(threads);
        tensor::SetPoolEnabled(pool_on);
        const std::vector<float> simd = RunOpCaseBitstream(c, kSeed ^ 0xabcdULL);
        ASSERT_EQ(simd.size(), reference.size()) << c.op << " " << c.variant;
        const std::string failure = util::CompareFloatStreams(
            simd.data(), reference.data(), static_cast<int64_t>(simd.size()), tolerance,
            c.op + "/" + c.variant + " threads=" + std::to_string(threads) + " pool=" +
                (pool_on ? "on" : "off"));
        EXPECT_TRUE(failure.empty()) << failure;
      }
    }
  }
}

// The SIMD path must itself be bitwise deterministic across thread counts —
// including the ulp-bounded reductions, whose lane partials are fixed by
// element index, not by chunk assignment. Owner-computes partitioning means a
// chunk boundary landing mid-vector only moves iterations between the vector
// body of one chunk and the tail of another, computing identical bits.
TEST_F(SimdEquivalenceTest, SimdPathIsBitwiseDeterministicAcrossThreads) {
  if (tensor::simd::Lanes() == 1) GTEST_SKIP() << "scalar build: nothing to pin";
  tensor::simd::SetEnabled(true);
  const std::vector<OpCase> cases = MakeOpCases(kSeed + 1, /*include_large=*/true);
  for (const OpCase& c : cases) {
    util::SetNumThreads(1);
    const std::vector<float> serial = RunOpCaseBitstream(c, kSeed ^ 0x5117ULL);
    for (const int threads : {2, 7, 16}) {
      util::SetNumThreads(threads);
      EXPECT_EQ(RunOpCaseBitstream(c, kSeed ^ 0x5117ULL), serial)
          << c.op << "/" << c.variant << " diverged at " << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// MatMul dA: register tiles vs the per-element DotF32 loop (bitwise)
// ---------------------------------------------------------------------------

enum class GradRows { kDense, kAllZero, kReluSparse };

// G (n x m): dense uniform, all zero, or ReLU-sparse (entries clamped to +0
// where a uniform draw is <= 0, and every third row entirely zero).
std::vector<float> MakeGradRows(util::Rng& rng, int n, int m, GradRows kind) {
  std::vector<float> g(static_cast<size_t>(n) * m, 0.0f);
  if (kind == GradRows::kAllZero) return g;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      const float x = static_cast<float>(rng.Uniform(-1.0, 1.0));
      const bool zero_row = kind == GradRows::kReluSparse && i % 3 == 0;
      g[static_cast<size_t>(i) * m + j] =
          kind == GradRows::kDense ? x : (zero_row || x <= 0.0f ? 0.0f : x);
    }
  }
  return g;
}

// B (k x m) uniform; with `specials`, about one entry in five becomes +Inf,
// -Inf or NaN, so zero gradient entries meet Inf (0 * Inf = NaN must survive:
// the kernel may not skip zeros).
std::vector<float> MakeB(util::Rng& rng, int k, int m, bool specials) {
  std::vector<float> b(static_cast<size_t>(k) * m);
  for (float& x : b) {
    x = static_cast<float>(rng.Uniform(-2.0, 2.0));
    if (!specials || rng.UniformInt(5) != 0) continue;
    const int which = rng.UniformInt(3);
    x = which == 0   ? std::numeric_limits<float>::infinity()
        : which == 1 ? -std::numeric_limits<float>::infinity()
                     : std::numeric_limits<float>::quiet_NaN();
  }
  return b;
}

// Every NaN replaced by one quiet NaN. When two NaNs meet in an add, x86
// returns the first operand's payload, and the compiler may commute the
// operands of either kernel's adds, so payload and sign are not part of the
// contract; NaN-ness is, like every other bit.
std::vector<float> CanonicalNans(std::vector<float> values) {
  for (float& v : values) {
    if (std::isnan(v)) v = std::numeric_limits<float>::quiet_NaN();
  }
  return values;
}

// The tiled kernel and MatMul's backward reproduce the per-element DotF32
// loop (prop_util's copy of the kernel the tiles replaced) bit for bit, over
// every (k, m) pair that puts full tiles, leftover columns and serial tails
// in play, at any row split. NaN payloads are canonicalized first.
TEST_F(SimdEquivalenceTest, MatMulGradATilesMatchPerElementDotBitwise) {
  constexpr int kRows = 37;
  const int dims[] = {1, 3, 7, 8, 13, 32, 61};
  util::Rng rng(kSeed + 13);
  tensor::simd::SetEnabled(true);
  for (const int k : dims) {
    for (const int m : dims) {
      for (const GradRows kind : {GradRows::kDense, GradRows::kAllZero, GradRows::kReluSparse}) {
        for (const bool specials : {false, true}) {
          const std::vector<float> g = MakeGradRows(rng, kRows, m, kind);
          const std::vector<float> b = MakeB(rng, k, m, specials);
          std::vector<float> expected(static_cast<size_t>(kRows) * k, 0.0f);
          ReferenceMatMulGradARows(g.data(), b.data(), expected.data(), kRows, k, m);
          expected = CanonicalNans(std::move(expected));
          std::vector<float> bt(b.size());
          for (int kk = 0; kk < k; ++kk) {
            for (int j = 0; j < m; ++j) bt[static_cast<size_t>(j) * k + kk] = b[kk * m + j];
          }
          const std::string shape = "k=" + std::to_string(k) + " m=" + std::to_string(m) +
                                    " grad=" + std::to_string(static_cast<int>(kind)) +
                                    (specials ? " inf/nan" : "");
          for (const int threads : {1, 2, 7, 16}) {
            util::SetNumThreads(threads);
            const std::string label = shape + " threads=" + std::to_string(threads);
            // The kernel itself, one row per chunk at most.
            std::vector<float> tiled(expected.size(), 0.0f);
            util::ParallelFor(0, kRows, 1, [&](int64_t ib, int64_t ie) {
              tensor::simd::MatMulGradARowsF32(g.data(), b.data(), bt.data(), tiled.data(), ib,
                                               ie, k, m);
            });
            tiled = CanonicalNans(std::move(tiled));
            std::string failure =
                util::CompareFloatStreams(tiled.data(), expected.data(), tiled.size(),
                                          util::Tolerance::Bitwise(), "kernel " + label);
            EXPECT_TRUE(failure.empty()) << failure;
            // MatMul's backward: Sum(MatMul(A, B) * G) seeds the product's
            // gradient with exactly G.
            const Tensor a = Tensor::Zeros(kRows, k).WithRequiresGrad();
            tensor::Sum(tensor::Mul(tensor::MatMul(a, Tensor::FromData(k, m, b)),
                                    Tensor::FromData(kRows, m, g)))
                .Backward();
            const std::vector<float> op = CanonicalNans(a.GradData());
            ASSERT_EQ(op.size(), expected.size()) << label;
            failure = util::CompareFloatStreams(op.data(), expected.data(), op.size(),
                                                util::Tolerance::Bitwise(), "MatMul " + label);
            EXPECT_TRUE(failure.empty()) << failure;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Recorded plans honor the runtime toggle
// ---------------------------------------------------------------------------

// A small program with elementwise runs (fusable), a MatMul, and a reduction;
// odd shapes so every kernel has a scalar tail.
Tensor BuildProgram(const Tensor& param, const Tensor& mixer) {
  Tensor h = tensor::AddScalar(param, 0.3f);
  h = tensor::Mul(h, h);
  h = tensor::Relu(h);
  return tensor::Sum(tensor::MatMul(h, mixer));
}

std::vector<float> LossAndGrad(const Tensor& loss, const Tensor& param) {
  std::vector<float> stream = {loss.Value()};
  const std::vector<float> grad = param.GradData();
  stream.insert(stream.end(), grad.begin(), grad.end());
  return stream;
}

// Dispatch checks live inside the recorded chunk lambdas, so a tape recorded
// with SIMD on replays scalar after SetEnabled(false) — bitwise equal to a
// fresh eager run at the same toggle setting, for both settings.
TEST_F(SimdEquivalenceTest, PlanReplayHonorsRuntimeSimdToggle) {
  util::SetNumThreads(1);
  for (const bool replay_simd : {true, false}) {
    // Record with the OPPOSITE setting to prove nothing is baked in.
    tensor::simd::SetEnabled(!replay_simd);
    util::Rng rng(kSeed + 7);
    Tensor planned_param = Tensor::Uniform(5, 7, -1.0f, 1.0f, &rng).WithRequiresGrad();
    const Tensor mixer = Tensor::Uniform(7, 3, -1.0f, 1.0f, &rng);
    plan::PlanSession session;
    Tensor planned_loss;
    {
      plan::PlanSession::RecordScope record(&session);
      planned_loss = BuildProgram(planned_param, mixer);
    }
    planned_loss.Backward();
    session.Seal(planned_loss, plan::PlanKey{{kSeed}});
    planned_param.ZeroGrad();

    // Flip the toggle and replay; eager reference at the replay-time setting.
    tensor::simd::SetEnabled(replay_simd);
    ASSERT_TRUE(session.Replay(plan::PlanKey{{kSeed}}));
    util::Rng eager_rng(kSeed + 7);
    Tensor eager_param = Tensor::Uniform(5, 7, -1.0f, 1.0f, &eager_rng).WithRequiresGrad();
    const Tensor eager_mixer = Tensor::Uniform(7, 3, -1.0f, 1.0f, &eager_rng);
    Tensor eager_loss = BuildProgram(eager_param, eager_mixer);
    eager_loss.Backward();
    EXPECT_EQ(LossAndGrad(planned_loss, planned_param), LossAndGrad(eager_loss, eager_param))
        << "replay with simd=" << (replay_simd ? "on" : "off")
        << " diverged from eager at the same setting";
  }
}

// ---------------------------------------------------------------------------
// Observability: the dispatch counters must track actual dispatch
// ---------------------------------------------------------------------------

TEST_F(SimdEquivalenceTest, VectorOpsCounterTracksDispatch) {
  obs::SetEnabled(true);
  obs::Counter* vector_ops =
      obs::MetricsRegistry::Global().GetCounter("tensor.simd.vector_ops");
  obs::Counter* scalar_tail =
      obs::MetricsRegistry::Global().GetCounter("tensor.simd.scalar_tail");
  util::Rng rng(kSeed + 9);
  // 100x7: 700 elements, never a multiple of any vector width > 1.
  const Tensor a = Tensor::Uniform(100, 7, -1.0f, 1.0f, &rng);
  const Tensor b = Tensor::Uniform(100, 7, -1.0f, 1.0f, &rng);

  tensor::simd::SetEnabled(false);
  const uint64_t ops_before = vector_ops->Total();
  tensor::Add(a, b);
  EXPECT_EQ(vector_ops->Total(), ops_before) << "scalar path swept the SIMD counters";

  tensor::simd::SetEnabled(true);
  const uint64_t tail_before = scalar_tail->Total();
  tensor::Add(a, b);
  if (tensor::simd::Lanes() > 1) {
    EXPECT_GT(vector_ops->Total(), ops_before);
    EXPECT_GT(scalar_tail->Total(), tail_before) << "700 % lanes != 0 must leave a tail";
  }
  obs::SetEnabled(false);
}

}  // namespace
}  // namespace revelio::proptest
