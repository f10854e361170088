#ifndef REVELIO_OBS_AUDIT_H_
#define REVELIO_OBS_AUDIT_H_

// Per-explanation audit records: every Explainer::Explain call (and every
// instance of a mega-batched ExplainBatch) can emit one AuditRecord capturing
// how the explanation was produced — the loss/convergence curve, mask entropy
// per epoch, the top-k score distribution, pool hit/miss deltas, per-phase
// wall time, and the config that drove the run. Records are exported as JSON
// Lines (one object per line) so long runs stream instead of buffering.
//
// Collection is pull-free: the non-virtual Explainer::Explain wrapper opens
// an AuditScope; explainer internals call AuditScope::Current(i) and get
// nullptr when auditing is off (one thread-local load — no allocation, no
// formatting). Everything the hooks do is *read-only* with respect to the
// numerics: audit on vs off is bitwise-identical by construction, pinned by
// tests/prop/audit_equivalence_test.cc.
//
// Enabling: AuditSink::Global().OpenFile(path) (bench --audit-out),
// AuditSink::Global().CollectInMemory() (tests), or the REVELIO_AUDIT_OUT
// environment variable picked up on first use.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace revelio::obs {

struct AuditRecord {
  // Identity. `record_id` is assigned by the sink at submit time and is
  // unique per process; `instance_in_group` is the position inside a
  // mega-batched group (0 for sequential calls).
  uint64_t record_id = 0;
  std::string method;
  std::string objective;
  bool megabatched = false;
  int group_size = 1;
  int instance_in_group = 0;

  // Task shape.
  int num_nodes = 0;
  int num_edges = 0;
  int target_node = -1;
  int target_class = 0;

  // Convergence: one entry per optimizer epoch (empty for non-learning
  // methods). Entropy is the mean binary entropy of the method's mask
  // distribution that epoch — a falling curve means masks are binarizing.
  std::vector<double> loss_curve;
  std::vector<double> mask_entropy;

  // Final score distribution: the top-k scores, sorted descending (flow
  // scores when the method produces them, base-edge scores otherwise).
  std::vector<double> top_scores;

  // The mask driver's non-OK status message ("numeric fault: ..." when a
  // loss row or the extracted scores went non-finite; the scores are then
  // cleared). Empty when the explanation came back OK.
  std::string numeric_fault;

  // Pool delta over the call. For a mega-batched group the delta is
  // group-scoped (the fused step shares one pool), recorded on each record.
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;

  // Wall time. Phases are method-reported (enumerate/prefilter/optimize/...);
  // for mega-batched groups each phase is the group's shared wall time.
  double wall_seconds = 0.0;
  std::vector<std::pair<std::string, double>> phase_seconds;

  // The config that produced this explanation (method options plus the
  // process-level switches that affect the execution path).
  std::vector<std::pair<std::string, std::string>> config;
};

// Serializes one record as a single-line JSON object (no trailing newline).
std::string AuditRecordToJson(const AuditRecord& record);

class AuditSink {
 public:
  static AuditSink& Global();

  bool enabled() const;

  // Streams records to `path` as JSONL. Creates/truncates the file; returns
  // false (sink disabled) when the file cannot be opened.
  bool OpenFile(const std::string& path);
  // Collects records in memory instead (tests). TakeRecords drains them.
  void CollectInMemory();
  std::vector<AuditRecord> TakeRecords();
  // Flushes and disables the sink.
  void Close();

  // Stamps record_id, then writes or retains the record. Thread-safe.
  void Submit(AuditRecord record);

  uint64_t records_submitted() const;

 private:
  AuditSink() = default;
};

// RAII collection scope for one Explain/ExplainBatch call. When the sink is
// disabled, constructing a scope is a no-op and Current() stays nullptr, so
// per-epoch hooks cost one thread-local load. Scopes do not nest: an
// explainer that recursively explains (SubgraphX fidelity probes) keeps
// writing into the outermost scope's records.
class AuditScope {
 public:
  explicit AuditScope(size_t group_size);
  ~AuditScope();
  AuditScope(const AuditScope&) = delete;
  AuditScope& operator=(const AuditScope&) = delete;

  bool active() const { return active_; }
  size_t group_size() const;
  AuditRecord* record(size_t i);

  // The (base + i)-th record of the innermost active scope on this thread, or
  // nullptr when auditing is off. Explainer hooks use this so they need no
  // plumbing: a fused batch step passes its own instance index, a
  // single-instance optimizer passes nothing.
  static AuditRecord* Current(size_t i = 0);

  // Shifts Current(i) to record(base + i). Per-task loops (the sequential
  // Explainer::ExplainBatchImpl, a rejected mega-batch group running as
  // groups of one) set this before each task so its hooks land on the right
  // record.
  static void SetInstanceBase(size_t base);

  // Appends a phase timing to the records Current(0) .. Current(count - 1)
  // (no-op when auditing is off): a fused group's phases are shared by its
  // `count` instances.
  static void AddPhase(const char* name, double seconds, size_t count = 1);

  // Submits every record of this scope to the sink now (called by the
  // Explain wrapper after it finishes stamping totals).
  void SubmitAll();

 private:
  bool active_ = false;
  bool owns_slot_ = false;
  size_t instance_base_ = 0;
  std::vector<AuditRecord> records_;
};

}  // namespace revelio::obs

#endif  // REVELIO_OBS_AUDIT_H_
