#include "util/proptest.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

namespace revelio::util {
namespace {

// SplitMix64 finalizer: decorrelates consecutive case indices into
// independent-looking 64-bit seeds.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool ParseUint64(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const uint64_t value = std::strtoull(text, &end, 0);  // base 0: decimal or 0x-hex
  if (end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

PropConfig DefaultPropConfig(int num_cases, uint64_t seed) {
  PropConfig config;
  config.num_cases = num_cases;
  config.seed = seed;
  uint64_t env_value = 0;
  if (ParseUint64(std::getenv("REVELIO_PROP_SEED"), &env_value)) {
    config.seed = env_value;
    config.replay = true;  // the env seed is a printed case seed; use it directly
  }
  if (ParseUint64(std::getenv("REVELIO_PROP_CASES"), &env_value) && env_value > 0) {
    config.num_cases = static_cast<int>(env_value);
  }
  return config;
}

uint64_t PropCaseSeed(uint64_t base_seed, int case_index) {
  return SplitMix64(base_seed ^ SplitMix64(static_cast<uint64_t>(case_index)));
}

std::string FormatSeed(uint64_t seed) {
  std::ostringstream out;
  out << "0x" << std::hex << seed;
  return out.str();
}

namespace {

// Maps the float's bit pattern onto an unsigned key that is monotone in the
// real-number ordering: negative floats flip all bits, non-negative floats
// set the sign bit. Adjacent representable floats then differ by exactly 1.
uint32_t OrderedFloatKey(float f) {
  uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  return (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
}

bool BitwiseEqual(float a, float b) {
  uint32_t ab = 0;
  uint32_t bb = 0;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

std::string FormatFloat(float f) {
  uint32_t bits = 0;
  std::memcpy(&bits, &f, sizeof(bits));
  std::ostringstream out;
  out.precision(9);
  out << f << " (0x" << std::hex << bits << ")";
  return out.str();
}

}  // namespace

std::string Tolerance::Name() const {
  std::ostringstream out;
  switch (cls) {
    case ToleranceClass::kBitwise:
      out << "bitwise";
      break;
    case ToleranceClass::kUlpBounded:
      out << "ulp-bounded(<=" << max_ulps;
      if (abs_epsilon > 0.0) out << ",abs<=" << abs_epsilon;
      out << ")";
      break;
  }
  return out.str();
}

int64_t UlpDistance(float a, float b) {
  if (BitwiseEqual(a, b)) return 0;
  if (std::isnan(a) || std::isnan(b)) return std::numeric_limits<int64_t>::max();
  const int64_t ka = static_cast<int64_t>(OrderedFloatKey(a));
  const int64_t kb = static_cast<int64_t>(OrderedFloatKey(b));
  return ka > kb ? ka - kb : kb - ka;
}

std::string CompareFloatStreams(const float* actual, const float* expected, int64_t n,
                                const Tolerance& tol, const std::string& label) {
  for (int64_t i = 0; i < n; ++i) {
    const float a = actual[i];
    const float e = expected[i];
    bool ok = false;
    int64_t ulps = 0;
    switch (tol.cls) {
      case ToleranceClass::kBitwise:
        ok = BitwiseEqual(a, e);
        break;
      case ToleranceClass::kUlpBounded:
        ulps = UlpDistance(a, e);
        ok = ulps <= tol.max_ulps ||
             (!std::isnan(a) && !std::isnan(e) &&
              std::abs(static_cast<double>(a) - static_cast<double>(e)) <= tol.abs_epsilon);
        break;
    }
    if (ok) continue;
    std::ostringstream out;
    if (!label.empty()) out << label << ": ";
    out << "element " << i << " of " << n << " violates " << tol.Name() << ": actual "
        << FormatFloat(a) << " vs expected " << FormatFloat(e);
    if (tol.cls == ToleranceClass::kUlpBounded) out << ", distance " << ulps << " ulps";
    return out.str();
  }
  return "";
}

}  // namespace revelio::util
