// Vector mul+add kernel behind host.peak_gflops (host_probe.cc). Built with
// the SIMD tier's ISA flags and without any #include (see CMakeLists.txt).

typedef float PeakVec __attribute__((vector_size(32)));

namespace perfbench {

constexpr int kPeakChains = 12;

// `iters` rounds of kPeakChains independent acc = acc * m + a steps on
// 8-lane vectors: 2 flops per lane per step, kept as a separate multiply and
// add (-mno-fma -ffp-contract=off, as in the kernels). m < 1 keeps the
// accumulators bounded and normal. The return value depends on every
// accumulator so the loop cannot be dropped.
float PeakMulAddKernel(long long iters, float seed) {
  PeakVec acc[kPeakChains];
  for (int k = 0; k < kPeakChains; ++k) acc[k] = PeakVec{} + (seed + static_cast<float>(k));
  const PeakVec m = PeakVec{} + 0.999f;
  const PeakVec a = PeakVec{} + 0.001f;
  for (long long it = 0; it < iters; ++it) {
    for (int k = 0; k < kPeakChains; ++k) acc[k] = acc[k] * m + a;
  }
  float total = 0.0f;
  for (int k = 0; k < kPeakChains; ++k) {
    for (int lane = 0; lane < 8; ++lane) total += acc[k][lane];
  }
  return total;
}

long long PeakFlopsPerIter() { return static_cast<long long>(kPeakChains) * 8 * 2; }

}  // namespace perfbench
