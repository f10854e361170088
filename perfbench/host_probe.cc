#include "host_probe.h"

#include <algorithm>
#include <cstring>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common.h"
#include "tensor/simd.h"
#include "util/parallel.h"

namespace perfbench {

float PeakMulAddKernel(long long iters, float seed);  // peak_kernel.cc
long long PeakFlopsPerIter();

namespace {

// 16 MiB per array: three arrays are several times any last-level cache the
// benchmark hosts have, so the triad streams from DRAM.
constexpr int64_t kTriadElements = int64_t{1} << 22;
constexpr int kTriadSweeps = 5;
constexpr long long kPeakIters = 1'000'000;
constexpr int kPeakTrials = 3;

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      unsigned int r[4] = {};
      __get_cpuid(0x80000002u + leaf, &r[0], &r[1], &r[2], &r[3]);
      std::memcpy(brand + 16 * leaf, r, sizeof(r));
    }
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

// Best of kTriadSweeps; 12 bytes per element (two loads, one store; the
// write-allocate read of `a` is not counted, as in STREAM).
double TriadGbps() {
  std::vector<float> a(kTriadElements), b(kTriadElements), c(kTriadElements);
  const int64_t grain = kTriadElements / revelio::util::NumThreads() + 1;
  revelio::util::ParallelFor(0, kTriadElements, grain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      a[i] = 0.0f;
      b[i] = 1.0f;
      c[i] = 2.0f;
    }
  });
  double best_seconds = 1e30;
  for (int sweep = 0; sweep < kTriadSweeps; ++sweep) {
    const float scalar = 0.5f + static_cast<float>(sweep);
    const int64_t start = NowNanos();
    revelio::util::ParallelFor(0, kTriadElements, grain, [&](int64_t begin, int64_t end) {
      float* __restrict out = a.data();
      const float* __restrict x = b.data();
      const float* __restrict y = c.data();
      for (int64_t i = begin; i < end; ++i) out[i] = x[i] + scalar * y[i];
    });
    best_seconds = std::min(best_seconds, static_cast<double>(NowNanos() - start) * 1e-9);
  }
  // a[k] is read back so the sweeps stay observable.
  if (a[kTriadElements / 2] < 0.0f) return 0.0;
  return 12.0 * static_cast<double>(kTriadElements) / best_seconds * 1e-9;
}

double PeakGflops() {
  const int threads = revelio::util::NumThreads();
  std::vector<float> sinks(threads, 0.0f);
  double best_seconds = 1e30;
  for (int trial = 0; trial < kPeakTrials; ++trial) {
    const int64_t start = NowNanos();
    revelio::util::ParallelFor(0, threads, 1, [&](int64_t begin, int64_t end) {
      for (int64_t t = begin; t < end; ++t) {
        sinks[t] += PeakMulAddKernel(kPeakIters, static_cast<float>(t + trial));
      }
    });
    best_seconds = std::min(best_seconds, static_cast<double>(NowNanos() - start) * 1e-9);
  }
  float total = 0.0f;
  for (float s : sinks) total += s;
  if (total < 0.0f) return 0.0;  // keeps the kernel results live
  return static_cast<double>(PeakFlopsPerIter()) * kPeakIters * threads / best_seconds * 1e-9;
}

}  // namespace

HostInfo ProbeHost(int nproc) {
  HostInfo info;
  info.cpu_model = CpuModel();
  info.nproc = nproc;
  info.simd_isa = revelio::tensor::simd::IsaName();
  info.simd_lanes = revelio::tensor::simd::Lanes();
  info.probe_threads = revelio::util::NumThreads();
  info.triad_gbps = TriadGbps();
  info.peak_gflops = PeakGflops();
  return info;
}

}  // namespace perfbench
