// Standalone validator for the SIMD tier bench result, used as a ctest
// fixture after `bench_micro_kernels --simd-sweep --quick`:
//   simd_bench_check <BENCH_simd.json>
// Exit 0 when the file carries the shared BENCH_*.json envelope, every sweep
// point's SIMD output was bitwise-equal to the scalar loop, the SIMD path is
// at least 1.3x faster than scalar on the LARGEST elementwise and matmul
// sizes at 1 thread. On a scalar build (lanes == 1) the speedup gates
// are vacuous and skipped — there is no vector tier to regress. Exit 1 on
// validation failure, 2 on usage/IO errors.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace {

using revelio::obs::JsonValue;

const JsonValue* RequireNumber(const JsonValue& object, const char* key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_number()) {
    std::fprintf(stderr, "simd_bench_check: missing numeric \"%s\"\n", key);
    return nullptr;
  }
  return value;
}

bool HasPrefix(const std::string& s, const char* prefix) {
  return s.compare(0, std::strlen(prefix), prefix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: simd_bench_check <BENCH_simd.json>\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "simd_bench_check: cannot open %s\n", argv[1]);
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  JsonValue root;
  std::string error;
  if (!revelio::obs::ParseJson(buffer.str(), &root, &error)) {
    std::fprintf(stderr, "simd_bench_check: %s is malformed JSON: %s\n", argv[1], error.c_str());
    return 1;
  }
  if (!root.is_object()) {
    std::fprintf(stderr, "simd_bench_check: top level is not an object\n");
    return 1;
  }

  // Shared envelope (bench/bench_common.h WriteBenchJson).
  const JsonValue* schema = root.Find("schema_version");
  if (schema == nullptr || !schema->is_number() || schema->number_value != 1) {
    std::fprintf(stderr, "simd_bench_check: missing schema_version 1\n");
    return 1;
  }
  const JsonValue* bench = root.Find("bench");
  if (bench == nullptr || !bench->is_string() || bench->string_value != "simd_sweep") {
    std::fprintf(stderr, "simd_bench_check: bench name is not simd_sweep\n");
    return 1;
  }
  const JsonValue* data = root.Find("data");
  if (data == nullptr || !data->is_object()) {
    std::fprintf(stderr, "simd_bench_check: missing data object\n");
    return 1;
  }
  const JsonValue* lanes = RequireNumber(*data, "lanes");
  if (lanes == nullptr) return 1;
  const JsonValue* points = data->Find("points");
  if (points == nullptr || !points->is_array() || points->array_items.empty()) {
    std::fprintf(stderr, "simd_bench_check: missing non-empty data.points array\n");
    return 1;
  }

  // Per-family largest point (by flat element count) and its speedup.
  double largest_ew = -1.0, ew_speedup = 0.0;
  double largest_mm = -1.0, mm_speedup = 0.0;
  for (size_t i = 0; i < points->array_items.size(); ++i) {
    const JsonValue& point = points->array_items[i];
    if (!point.is_object()) {
      std::fprintf(stderr, "simd_bench_check: point %zu is not an object\n", i);
      return 1;
    }
    const JsonValue* kernel = point.Find("kernel");
    if (kernel == nullptr || !kernel->is_string()) {
      std::fprintf(stderr, "simd_bench_check: point %zu lacks kernel name\n", i);
      return 1;
    }
    const JsonValue* elements = RequireNumber(point, "elements");
    const JsonValue* scalar_s = RequireNumber(point, "scalar_seconds");
    const JsonValue* simd_s = RequireNumber(point, "simd_seconds");
    const JsonValue* speedup = RequireNumber(point, "simd_speedup");
    if (elements == nullptr || scalar_s == nullptr || simd_s == nullptr || speedup == nullptr) {
      return 1;
    }
    if (scalar_s->number_value <= 0.0 || simd_s->number_value <= 0.0) {
      std::fprintf(stderr, "simd_bench_check: point %zu has non-positive timings\n", i);
      return 1;
    }
    const JsonValue* bitwise = point.Find("bitwise_equal");
    if (bitwise == nullptr || bitwise->type != JsonValue::Type::kBool) {
      std::fprintf(stderr, "simd_bench_check: point %zu lacks bool bitwise_equal\n", i);
      return 1;
    }
    if (!bitwise->bool_value) {
      std::fprintf(stderr, "simd_bench_check: %s: SIMD output diverged from the scalar loop\n",
                   kernel->string_value.c_str());
      return 1;
    }
    if (HasPrefix(kernel->string_value, "elementwise_") &&
        elements->number_value > largest_ew) {
      largest_ew = elements->number_value;
      ew_speedup = speedup->number_value;
    }
    if (HasPrefix(kernel->string_value, "matmul_") && elements->number_value > largest_mm) {
      largest_mm = elements->number_value;
      mm_speedup = speedup->number_value;
    }
  }

  constexpr double kMinSpeedup = 1.3;
  if (lanes->number_value > 1.0) {
    if (largest_ew < 0.0 || largest_mm < 0.0) {
      std::fprintf(stderr, "simd_bench_check: sweep lacks elementwise or matmul points\n");
      return 1;
    }
    if (ew_speedup < kMinSpeedup) {
      std::fprintf(stderr,
                   "simd_bench_check: elementwise speedup %.3fx < %.1fx at the largest size "
                   "(%.0f elements, 1 thread)\n",
                   ew_speedup, kMinSpeedup, largest_ew);
      return 1;
    }
    if (mm_speedup < kMinSpeedup) {
      std::fprintf(stderr,
                   "simd_bench_check: matmul speedup %.3fx < %.1fx at the largest size "
                   "(%.0f flops, 1 thread)\n",
                   mm_speedup, kMinSpeedup, largest_mm);
      return 1;
    }
  } else {
    std::printf("simd_bench_check: scalar build (lanes=1), speedup gates skipped\n");
  }

  std::printf("simd_bench_check: %s ok (%zu points, elementwise %.2fx, matmul %.2fx)\n",
              argv[1], points->array_items.size(), ew_speedup, mm_speedup);
  return 0;
}
