// Standalone validator for per-explanation audit JSONL, used as a ctest
// fixture after `bench_table5_runtime --audit-out`:
//   audit_jsonl_check <audit.jsonl> [min_records]
// Exit 0 when every line is a schema-valid audit record:
//   - well-formed single-line JSON with the documented fields,
//   - loss_curve and mask_entropy the same length with every entry finite
//     (the JSON writer nulls non-finite doubles, so a null here means an
//     Inf/NaN leaked out of an audit hook),
//   - numeric_fault a string, and a record naming a fault carries no
//     top_scores (the driver clears a faulted instance's scores),
//   - instance_in_group in [0, group_size) with complete per-instance
//     attribution: every group size observed contributes the same number of
//     records at each instance slot (no instance silently dropped or
//     double-counted by the mega-batched path),
//   - record_id unique and strictly increasing down the file.
// Exit 1 on validation failure, 2 on usage/IO errors.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

using revelio::obs::JsonValue;

bool Fail(size_t line_no, const char* message) {
  std::fprintf(stderr, "audit_jsonl_check: line %zu: %s\n", line_no, message);
  return false;
}

const JsonValue* FiniteNumber(const JsonValue& object, const char* key, size_t line_no) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_number() || !std::isfinite(value->number_value)) {
    std::fprintf(stderr, "audit_jsonl_check: line %zu: missing finite numeric \"%s\"\n",
                 line_no, key);
    return nullptr;
  }
  return value;
}

bool FiniteArray(const JsonValue& object, const char* key, size_t line_no, size_t* length) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_array()) {
    std::fprintf(stderr, "audit_jsonl_check: line %zu: missing array \"%s\"\n", line_no, key);
    return false;
  }
  for (size_t i = 0; i < value->array_items.size(); ++i) {
    const JsonValue& entry = value->array_items[i];
    if (!entry.is_number() || !std::isfinite(entry.number_value)) {
      std::fprintf(stderr,
                   "audit_jsonl_check: line %zu: %s[%zu] is not a finite number "
                   "(a null here means Inf/NaN leaked from an audit hook)\n",
                   line_no, key, i);
      return false;
    }
  }
  *length = value->array_items.size();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr, "usage: audit_jsonl_check <audit.jsonl> [min_records]\n");
    return 2;
  }
  const long min_records = argc == 3 ? std::strtol(argv[2], nullptr, 10) : 1;
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "audit_jsonl_check: cannot open %s\n", argv[1]);
    return 2;
  }

  size_t records = 0;
  size_t line_no = 0;
  bool have_prev_id = false;
  double prev_id = -1.0;
  // (group_size, instance_in_group) -> count, for the attribution check.
  std::map<std::pair<long, long>, long> slot_counts;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;

    JsonValue record;
    std::string error;
    if (!revelio::obs::ParseJson(line, &record, &error)) {
      std::fprintf(stderr, "audit_jsonl_check: line %zu: malformed JSON: %s\n", line_no,
                   error.c_str());
      return 1;
    }
    if (!record.is_object()) return Fail(line_no, "record is not an object"), 1;

    const JsonValue* record_id = FiniteNumber(record, "record_id", line_no);
    const JsonValue* group_size = FiniteNumber(record, "group_size", line_no);
    const JsonValue* instance = FiniteNumber(record, "instance_in_group", line_no);
    const JsonValue* wall = FiniteNumber(record, "wall_seconds", line_no);
    if (record_id == nullptr || group_size == nullptr || instance == nullptr ||
        wall == nullptr) {
      return 1;
    }
    const JsonValue* method = record.Find("method");
    if (method == nullptr || !method->is_string() || method->string_value.empty()) {
      return Fail(line_no, "missing non-empty string \"method\""), 1;
    }
    const JsonValue* objective = record.Find("objective");
    if (objective == nullptr || !objective->is_string()) {
      return Fail(line_no, "missing string \"objective\""), 1;
    }
    const JsonValue* megabatched = record.Find("megabatched");
    if (megabatched == nullptr || megabatched->type != JsonValue::Type::kBool) {
      return Fail(line_no, "missing bool \"megabatched\""), 1;
    }
    const JsonValue* task = record.Find("task");
    if (task == nullptr || !task->is_object()) {
      return Fail(line_no, "missing object \"task\""), 1;
    }
    if (FiniteNumber(*task, "num_nodes", line_no) == nullptr ||
        FiniteNumber(*task, "num_edges", line_no) == nullptr) {
      return 1;
    }
    const JsonValue* pool = record.Find("pool");
    if (pool == nullptr || !pool->is_object() ||
        FiniteNumber(*pool, "hits", line_no) == nullptr ||
        FiniteNumber(*pool, "misses", line_no) == nullptr) {
      return Fail(line_no, "missing pool {hits, misses}"), 1;
    }

    // Convergence curves: one loss and one entropy sample per epoch, finite.
    size_t loss_len = 0;
    size_t entropy_len = 0;
    if (!FiniteArray(record, "loss_curve", line_no, &loss_len)) return 1;
    if (!FiniteArray(record, "mask_entropy", line_no, &entropy_len)) return 1;
    size_t scores_len = 0;
    if (!FiniteArray(record, "top_scores", line_no, &scores_len)) return 1;
    if (loss_len != entropy_len) {
      return Fail(line_no, "loss_curve and mask_entropy lengths differ"), 1;
    }
    const JsonValue* fault = record.Find("numeric_fault");
    if (fault == nullptr || !fault->is_string()) {
      return Fail(line_no, "missing string \"numeric_fault\""), 1;
    }
    if (!fault->string_value.empty() && scores_len != 0) {
      return Fail(line_no, "a record with a numeric_fault kept its top_scores"), 1;
    }

    // Identity / attribution invariants.
    const long g = static_cast<long>(group_size->number_value);
    const long k = static_cast<long>(instance->number_value);
    if (g < 1) return Fail(line_no, "group_size < 1"), 1;
    if (k < 0 || k >= g) return Fail(line_no, "instance_in_group outside [0, group_size)"), 1;
    ++slot_counts[{g, k}];
    if (have_prev_id && record_id->number_value <= prev_id) {
      return Fail(line_no, "record_id not strictly increasing"), 1;
    }
    prev_id = record_id->number_value;
    have_prev_id = true;
    ++records;
  }

  // Per-instance attribution completeness: within each group size, every
  // instance slot must appear the same number of times.
  for (const auto& [slot, count] : slot_counts) {
    const auto expected = slot_counts.find({slot.first, 0});
    if (expected == slot_counts.end() || expected->second != count) {
      std::fprintf(stderr,
                   "audit_jsonl_check: group_size %ld instance %ld appears %ld times, "
                   "instance 0 appears %ld times (incomplete per-instance attribution)\n",
                   slot.first, slot.second, count,
                   expected == slot_counts.end() ? 0L : expected->second);
      return 1;
    }
  }
  if (records < static_cast<size_t>(min_records)) {
    std::fprintf(stderr, "audit_jsonl_check: %zu records < required %ld\n", records,
                 min_records);
    return 1;
  }
  std::printf("audit_jsonl_check: %s ok (%zu records)\n", argv[1], records);
  return 0;
}
