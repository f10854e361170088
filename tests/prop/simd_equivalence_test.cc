// SIMD kernels (src/tensor/simd.h, DESIGN.md §13): each kernel is the only
// body its tensor ops run, so each is diffed directly against its serial
// scalar reference (proptest::scalar_ref in tests/prop/prop_util) under the
// kernel's DECLARED tolerance class:
//
//   bitwise       every kernel except DotF32 — the vector bodies preserve the
//                 serial fold order exactly (separate mul+add, no FMA), and
//                 MatMulGradARowsF32 is bitwise against the per-element
//                 DotF32 loop its register tiles replaced;
//   ulp-bounded   DotF32, and MatMulGradARowsF32 which is built from it,
//                 against serial order: the lane partials reduce in a
//                 different order. On a one-lane build the single partial IS
//                 the serial sum, so there every kernel is bitwise.
//
// Inputs cover every length from 0 to 3 x Lanes() + 7 plus one large length,
// unaligned operand offsets, NaN / +-Inf / -0.0 inputs and accumulators, and
// ParallelFor chunk splits at threads {1, 2, 7, 16}. Operand buffers end
// exactly at the last element, so an ASan build catches any access past n.
// Op-level tests then pin the kernels' callers bitwise across thread counts
// and the vector counters to the compiled lane width.

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "prop/prop_util.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/parallel.h"
#include "util/proptest.h"
#include "util/rng.h"

namespace revelio::proptest {
namespace {

namespace simd = tensor::simd;
using tensor::Tensor;

constexpr uint64_t kSeed = 20260808;
constexpr int kThreadCounts[] = {1, 2, 7, 16};
constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

class SimdEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override { util::SetNumThreads(1); }
};

// ---------------------------------------------------------------------------
// Inputs and comparison
// ---------------------------------------------------------------------------

enum class Values { kPlain, kSpecial };

// Every length from 0 to 3 x Lanes() + 7 (each vector-body / tail split),
// then one large prime length.
std::vector<int64_t> Lengths() {
  std::vector<int64_t> lengths;
  for (int64_t n = 0; n <= 3 * simd::Lanes() + 7; ++n) lengths.push_back(n);
  lengths.push_back(1031);
  return lengths;
}

// `offset + n` floats; the kernel sees data() + offset, so offsets that are
// not multiples of the lane width make every vector access unaligned. Uniform
// in [-2, 2); kSpecial turns about one entry in four into NaN, +-Inf, -0.0 or
// +0.0 (the guard prefix included, which the kernels must leave alone).
std::vector<float> MakeBuffer(util::Rng& rng, int64_t offset, int64_t n, Values values) {
  static constexpr float kSpecials[] = {kNan, kInf, -kInf, -0.0f, 0.0f};
  std::vector<float> buffer(static_cast<size_t>(offset + n));
  for (float& x : buffer) {
    x = static_cast<float>(rng.Uniform(-2.0, 2.0));
    if (values == Values::kSpecial && rng.UniformInt(4) == 0) x = kSpecials[rng.UniformInt(5)];
  }
  return buffer;
}

// Every NaN replaced by one quiet NaN. When two NaNs meet in an add, x86
// returns the first operand's payload, and the compiler may commute the
// operands of either kernel's adds, so payload and sign are not part of the
// contract; NaN-ness is, like every other bit.
std::vector<float> CanonicalNans(std::vector<float> values) {
  for (float& v : values) {
    if (std::isnan(v)) v = kNan;
  }
  return values;
}

void ExpectMatch(const std::vector<float>& actual, const std::vector<float>& expected,
                 const util::Tolerance& tolerance, const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  const std::vector<float> a = CanonicalNans(actual);
  const std::vector<float> e = CanonicalNans(expected);
  const std::string failure = util::CompareFloatStreams(
      a.data(), e.data(), static_cast<int64_t>(a.size()), tolerance, label);
  EXPECT_TRUE(failure.empty()) << failure;
}

// DotF32's class against serial order: bitwise with one lane, else a generous
// ulp bound whose absolute floor absorbs dots that cancel to near zero.
util::Tolerance DotTolerance() {
  return simd::Lanes() == 1 ? util::Tolerance::Bitwise()
                            : util::Tolerance::Ulps(256, /*abs_floor=*/1e-3);
}

// ---------------------------------------------------------------------------
// Flat kernels: [0, n) sweeps, bitwise against the serial loops
// ---------------------------------------------------------------------------

// Every flat kernel through one shape: inputs x and y, scalar s, output or
// accumulator o. A kernel reads only the arguments its call names.
using FlatFn = void (*)(const float* x, const float* y, float s, float* o, int64_t n);

struct FlatKernel {
  const char* name;
  FlatFn kernel;
  FlatFn reference;
  bool takes_scalar;
};

// A FlatKernel for kernel `name` and its reference; the trailing arguments
// pick which of x, y, s, o, n the call passes, in the kernel's order.
#define REVELIO_FLAT_PARAMS \
  [[maybe_unused]] const float *x, [[maybe_unused]] const float *y, [[maybe_unused]] float s, \
      float *o, int64_t n
#define REVELIO_FLAT_KERNEL(name, takes_scalar, ...)                          \
  FlatKernel {                                                                \
    #name, [](REVELIO_FLAT_PARAMS) { simd::name(__VA_ARGS__); },              \
        [](REVELIO_FLAT_PARAMS) { scalar_ref::name(__VA_ARGS__); }, takes_scalar \
  }

const FlatKernel kFlatKernels[] = {
    REVELIO_FLAT_KERNEL(AddF32, false, x, y, o, n),
    REVELIO_FLAT_KERNEL(SubF32, false, x, y, o, n),
    REVELIO_FLAT_KERNEL(MulF32, false, x, y, o, n),
    REVELIO_FLAT_KERNEL(AddScalarF32, true, x, s, o, n),
    REVELIO_FLAT_KERNEL(MulScalarF32, true, x, s, o, n),
    REVELIO_FLAT_KERNEL(AddAccF32, false, x, o, n),
    REVELIO_FLAT_KERNEL(AddScalarAccF32, true, s, o, n),
    REVELIO_FLAT_KERNEL(MulAccF32, true, x, s, o, n),
    REVELIO_FLAT_KERNEL(MulPairAccF32, false, x, y, o, n),
    REVELIO_FLAT_KERNEL(AxpyF32, true, s, x, o, n),
    REVELIO_FLAT_KERNEL(ReluF32, false, x, o, n),
    REVELIO_FLAT_KERNEL(ReluGradAccF32, false, x, y, o, n),
    REVELIO_FLAT_KERNEL(LeakyReluF32, true, x, s, o, n),
    REVELIO_FLAT_KERNEL(LeakyReluGradAccF32, true, x, y, s, o, n),
    REVELIO_FLAT_KERNEL(SigmoidGradAccF32, false, x, y, o, n),
    REVELIO_FLAT_KERNEL(TanhGradAccF32, false, x, y, o, n),
};

#undef REVELIO_FLAT_KERNEL
#undef REVELIO_FLAT_PARAMS

TEST_F(SimdEquivalenceTest, FlatKernelsMatchSerialReferenceBitwise) {
  util::Rng rng(kSeed);
  for (const FlatKernel& k : kFlatKernels) {
    for (const int64_t n : Lengths()) {
      for (const int64_t x_off : {0, 1, 3}) {
        const int64_t y_off = (x_off + 2) % 4;
        const int64_t o_off = (x_off + 1) % 4;
        for (const Values values : {Values::kPlain, Values::kSpecial}) {
          std::vector<float> scalars = {1.0f};
          if (k.takes_scalar) {
            scalars = values == Values::kPlain ? std::vector<float>{1.0f, -0.375f}
                                               : std::vector<float>{0.0f, -0.0f, kInf, kNan};
          }
          const std::vector<float> x = MakeBuffer(rng, x_off, n, values);
          const std::vector<float> y = MakeBuffer(rng, y_off, n, values);
          const std::vector<float> o = MakeBuffer(rng, o_off, n, values);
          for (const float s : scalars) {
            std::vector<float> expected = o;
            k.reference(x.data() + x_off, y.data() + y_off, s, expected.data() + o_off, n);
            for (const int threads : kThreadCounts) {
              util::SetNumThreads(threads);
              std::vector<float> actual = o;
              util::ParallelFor(0, n, 1, [&](int64_t begin, int64_t end) {
                k.kernel(x.data() + x_off + begin, y.data() + y_off + begin, s,
                         actual.data() + o_off + begin, end - begin);
              });
              ExpectMatch(actual, expected, util::Tolerance::Bitwise(),
                          std::string(k.name) + " n=" + std::to_string(n) +
                              " offset=" + std::to_string(x_off) + " s=" + std::to_string(s) +
                              (values == Values::kSpecial ? " specials" : "") +
                              " threads=" + std::to_string(threads));
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DotF32: ulp-bounded against serial order (bitwise with one lane)
// ---------------------------------------------------------------------------

TEST_F(SimdEquivalenceTest, DotMatchesSerialOrderUnderDeclaredTolerance) {
  util::Rng rng(kSeed + 1);
  for (const int64_t n : Lengths()) {
    for (const int64_t a_off : {0, 1, 3}) {
      const int64_t b_off = (a_off + 2) % 4;
      for (const Values values : {Values::kPlain, Values::kSpecial}) {
        const std::vector<float> a = MakeBuffer(rng, a_off, n, values);
        const std::vector<float> b = MakeBuffer(rng, b_off, n, values);
        ExpectMatch({simd::DotF32(a.data() + a_off, b.data() + b_off, n)},
                    {scalar_ref::DotF32(a.data() + a_off, b.data() + b_off, n)}, DotTolerance(),
                    "DotF32 n=" + std::to_string(n) + " offset=" + std::to_string(a_off) +
                        (values == Values::kSpecial ? " specials" : ""));
      }
    }
  }
  // One dot per matrix row, rows split across chunks (the RowScale dscale and
  // SpmmBackwardW shape): each row's bits are fixed by its length alone.
  constexpr int kRows = 37;
  for (const int cols : {3 * simd::Lanes() + 7, 61}) {
    for (const Values values : {Values::kPlain, Values::kSpecial}) {
      const std::vector<float> a = MakeBuffer(rng, 0, int64_t{kRows} * cols, values);
      const std::vector<float> b = MakeBuffer(rng, 0, int64_t{kRows} * cols, values);
      std::vector<float> expected(kRows);
      for (int r = 0; r < kRows; ++r) {
        expected[r] = scalar_ref::DotF32(a.data() + r * cols, b.data() + r * cols, cols);
      }
      for (const int threads : kThreadCounts) {
        util::SetNumThreads(threads);
        std::vector<float> actual(kRows);
        util::ParallelFor(0, kRows, 1, [&](int64_t rb, int64_t re) {
          for (int64_t r = rb; r < re; ++r) {
            actual[r] = simd::DotF32(a.data() + r * cols, b.data() + r * cols, cols);
          }
        });
        ExpectMatch(actual, expected, DotTolerance(),
                    "DotF32 rows cols=" + std::to_string(cols) +
                        (values == Values::kSpecial ? " specials" : "") +
                        " threads=" + std::to_string(threads));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Row-blocked matmul kernels
// ---------------------------------------------------------------------------

// b (k x m, row-major) transposed to m x k, as MatMul's backward builds it.
std::vector<float> Transpose(const float* b, int k, int m) {
  std::vector<float> bt(static_cast<size_t>(k) * m);
  for (int kk = 0; kk < k; ++kk) {
    for (int j = 0; j < m; ++j) bt[static_cast<size_t>(j) * k + kk] = b[kk * m + j];
  }
  return bt;
}

// Forward and both backward kernels over every (k, m) pair that puts 4-vector
// tiles, single vectors, leftover columns and serial tails in play, with
// about a third of A zeroed (the zero-skip path), unaligned operands, a dirty
// forward output, and rows (or dB rows) split across chunks.
TEST_F(SimdEquivalenceTest, MatMulRowKernelsMatchSerialReference) {
  constexpr int kRows = 19;
  constexpr int64_t kOff = 1;
  const int dims[] = {0, 1, 3, 7, 8, 13, 32, 61};
  util::Rng rng(kSeed + 2);
  for (const int k : dims) {
    for (const int m : dims) {
      for (const Values values : {Values::kPlain, Values::kSpecial}) {
        std::vector<float> a = MakeBuffer(rng, kOff, int64_t{kRows} * k, values);
        for (size_t i = kOff; i < a.size(); ++i) {
          if (rng.UniformInt(3) == 0) a[i] = 0.0f;
        }
        const std::vector<float> b = MakeBuffer(rng, kOff, int64_t{k} * m, values);
        const std::vector<float> g = MakeBuffer(rng, kOff, int64_t{kRows} * m, values);
        const std::vector<float> ga0 = MakeBuffer(rng, kOff, int64_t{kRows} * k, values);
        const std::vector<float> gb0 = MakeBuffer(rng, kOff, int64_t{k} * m, values);
        const std::vector<float> o0(kOff + int64_t{kRows} * m, kNan);  // dirty output
        const std::vector<float> bt = Transpose(b.data() + kOff, k, m);
        const float* av = a.data() + kOff;
        const float* bv = b.data() + kOff;
        const float* gv = g.data() + kOff;

        std::vector<float> o_ref = o0;
        scalar_ref::MatMulRowsF32(av, bv, o_ref.data() + kOff, 0, kRows, k, m);
        std::vector<float> ga_serial = ga0;
        scalar_ref::MatMulGradARowsF32(gv, bv, ga_serial.data() + kOff, 0, kRows, k, m);
        std::vector<float> ga_dot = ga0;
        ReferenceMatMulGradARows(gv, bv, ga_dot.data() + kOff, kRows, k, m);
        std::vector<float> gb_ref = gb0;
        scalar_ref::MatMulGradBRowsF32(gv, av, gb_ref.data() + kOff, 0, k, kRows, k, m);

        const std::string shape = "k=" + std::to_string(k) + " m=" + std::to_string(m) +
                                  (values == Values::kSpecial ? " specials" : "");
        for (const int threads : kThreadCounts) {
          util::SetNumThreads(threads);
          const std::string label = shape + " threads=" + std::to_string(threads);
          std::vector<float> o = o0;
          std::vector<float> ga = ga0;
          util::ParallelFor(0, kRows, 1, [&](int64_t ib, int64_t ie) {
            simd::MatMulRowsF32(av, bv, o.data() + kOff, ib, ie, k, m);
            simd::MatMulGradARowsF32(gv, bv, bt.data(), ga.data() + kOff, ib, ie, k, m);
          });
          std::vector<float> gb = gb0;
          util::ParallelFor(0, k, 1, [&](int64_t kb, int64_t ke) {
            simd::MatMulGradBRowsF32(gv, av, gb.data() + kOff, kb, ke, kRows, k, m);
          });
          ExpectMatch(o, o_ref, util::Tolerance::Bitwise(), "MatMulRowsF32 " + label);
          ExpectMatch(ga, ga_dot, util::Tolerance::Bitwise(),
                      "MatMulGradARowsF32 vs per-element DotF32 " + label);
          ExpectMatch(ga, ga_serial, DotTolerance(), "MatMulGradARowsF32 vs serial " + label);
          ExpectMatch(gb, gb_ref, util::Tolerance::Bitwise(), "MatMulGradBRowsF32 " + label);
        }
      }
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
    x = which == 0 ? kInf : which == 1 ? -kInf : kNan;
  }
  return b;
}

// MatMul's backward reproduces the per-element DotF32 loop (prop_util's copy
// of the kernel the tiles replaced) bit for bit, over every (k, m) pair that
// puts full tiles, leftover columns and serial tails in play, for dense,
// all-zero and ReLU-sparse gradients at any thread count. The kernel itself
// is diffed on arbitrary row splits above.
TEST_F(SimdEquivalenceTest, MatMulGradATilesMatchPerElementDotBitwise) {
  constexpr int kRows = 37;
  const int dims[] = {1, 3, 7, 8, 13, 32, 61};
  util::Rng rng(kSeed + 13);
  for (const int k : dims) {
    for (const int m : dims) {
      for (const GradRows kind : {GradRows::kDense, GradRows::kAllZero, GradRows::kReluSparse}) {
        for (const bool specials : {false, true}) {
          const std::vector<float> g = MakeGradRows(rng, kRows, m, kind);
          const std::vector<float> b = MakeB(rng, k, m, specials);
          std::vector<float> expected(static_cast<size_t>(kRows) * k, 0.0f);
          ReferenceMatMulGradARows(g.data(), b.data(), expected.data(), kRows, k, m);
          const std::string shape = "k=" + std::to_string(k) + " m=" + std::to_string(m) +
                                    " grad=" + std::to_string(static_cast<int>(kind)) +
                                    (specials ? " inf/nan" : "");
          for (const int threads : kThreadCounts) {
            util::SetNumThreads(threads);
            const std::string label = shape + " threads=" + std::to_string(threads);
            // Sum(MatMul(A, B) * G) seeds the product's gradient with exactly G.
            const Tensor a = Tensor::Zeros(kRows, k).WithRequiresGrad();
            tensor::Sum(tensor::Mul(tensor::MatMul(a, Tensor::FromData(k, m, b)),
                                    Tensor::FromData(kRows, m, g)))
                .Backward();
            ExpectMatch(a.GradData(), expected, util::Tolerance::Bitwise(), "MatMul " + label);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Op level: thread-count determinism and the vector counters
// ---------------------------------------------------------------------------

// Every registered op must be bitwise deterministic across thread counts —
// including the ulp-bounded reductions, whose lane partials are fixed by
// element index, not by chunk assignment. Owner-computes partitioning means a
// chunk boundary landing mid-vector only moves iterations between the vector
// body of one chunk and the tail of another, computing identical bits.
TEST_F(SimdEquivalenceTest, SimdPathIsBitwiseDeterministicAcrossThreads) {
  const std::vector<OpCase> cases = MakeOpCases(kSeed + 1, /*include_large=*/true);
  ASSERT_FALSE(cases.empty());
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

// An op sweep advances tensor.simd.{vector_ops,scalar_tail} when vectors run,
// and a one-lane build, which runs none, leaves both flat.
TEST_F(SimdEquivalenceTest, VectorOpsCounterTracksDispatch) {
  obs::SetEnabled(true);
  obs::Counter* vector_ops = obs::MetricsRegistry::Global().GetCounter("tensor.simd.vector_ops");
  obs::Counter* scalar_tail =
      obs::MetricsRegistry::Global().GetCounter("tensor.simd.scalar_tail");
  util::Rng rng(kSeed + 9);
  // 100x7: 700 elements, never a multiple of any vector width > 1.
  const Tensor a = Tensor::Uniform(100, 7, -1.0f, 1.0f, &rng);
  const Tensor b = Tensor::Uniform(100, 7, -1.0f, 1.0f, &rng);
  const uint64_t ops_before = vector_ops->Total();
  const uint64_t tail_before = scalar_tail->Total();
  tensor::Add(a, b);
  if (simd::Lanes() > 1) {
    EXPECT_EQ(vector_ops->Total(), ops_before + 700 / simd::Lanes());
    EXPECT_EQ(scalar_tail->Total(), tail_before + 700 % simd::Lanes())
        << "700 % lanes != 0 must leave a tail";
  } else {
    EXPECT_EQ(vector_ops->Total(), ops_before) << "a one-lane build counted vector work";
    EXPECT_EQ(scalar_tail->Total(), tail_before);
  }
  obs::SetEnabled(false);
}

}  // namespace
}  // namespace revelio::proptest
