#ifndef REVELIO_EXPLAIN_MASK_DRIVER_H_
#define REVELIO_EXPLAIN_MASK_DRIVER_H_

// The mask-optimization driver (DESIGN.md §10): the one epoch loop behind
// Revelio's (Eqs. 4-9) and GNNExplainer's learned masks. A group of tasks
// trains per-instance parameter segments with Adam on a loss built over its
// block-diagonal mega-graph; a single explanation is a group of one. The
// driver owns the parameters and optimizer, the recorded execution plan, the
// spans, counter and audit readback, and the finite-output postcondition; a
// learner supplies only a MaskLearner.

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "explain/batch_runner.h"
#include "explain/explainer.h"
#include "obs/audit.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace revelio::explain {

// One learnable (total x 1) parameter, as concatenated per-instance segments.
// Instance i's segment is Randn(rows[i], 1) from a fresh Rng(seed) times
// init_scale, or zeros when init_scale is 0.
struct MaskParam {
  std::vector<int> rows;  // segment length per instance, in group order
  float init_scale = 0.0f;
};

struct MaskLearner {
  const char* optimize_span = "";
  const char* extract_span = "";
  int epochs = 0;
  float learning_rate = 0.0f;
  uint64_t seed = 0;
  std::vector<MaskParam> params;
  // Plan-key parts beyond the group size, segment totals and graph stamps:
  // every option the recorded step depends on.
  std::vector<uint64_t> plan_key;

  // Builds one epoch's forward over the mega-graph from the concatenated
  // parameters: the per-instance loss rows (group x 1), whose sum the driver
  // minimizes, and the mask the audit reads (row-aligned with params[0]).
  // Runs inside a recording scope on recorded epochs, so it must be a pure
  // tensor program over `params`.
  struct Step {
    tensor::Tensor loss_rows;
    tensor::Tensor mask;
  };
  std::function<Step(const std::vector<tensor::Tensor>& params)> build_loss;
  // Audit readout after each step: the mean mask entropy over rows
  // [begin, end) of the step's mask (a replay refreshes it in place).
  std::function<double(const tensor::Tensor& mask, int begin, int end)> mask_entropy;
  // Extract step: fills instance i's result from its trained segments (one
  // detached (rows x 1) tensor per MaskParam) and returns the score vectors
  // the driver checks; they are cleared when the instance comes back non-OK.
  std::function<std::vector<std::vector<double>*>(int instance,
                                                  const std::vector<tensor::Tensor>& segments)>
      extract;
};

// Per-instance sums of the (n x 1) column `rows`, where instance_of_row[r]
// names row r's instance. A group of one is a plain Sum: the same
// double-accumulated float as SegmentSumRows, without its dispatch.
tensor::Tensor InstanceSums(const tensor::Tensor& rows, const std::vector<int>& instance_of_row,
                            int num_instances);

// A (values.size() x 1) constant backed by a pooled buffer. Tensor::FromData
// adopts a foreign vector, which inflates pool retention past the in-use
// high-water mark; MemoryScope then trims whole size classes and the next
// explanation misses.
tensor::Tensor PooledColumn(const std::vector<float>& values);

// Trains the whole group with one forward/backward per Adam step and runs
// the extract step per instance. Returns one status per task: Internal
// ("numeric fault", naming the first bad epoch) when the instance's loss row
// or extracted scores are non-finite, whose scores are then cleared.
std::vector<util::Status> RunMaskDriver(const std::vector<const ExplanationTask*>& tasks,
                                        const MaskLearner& learner);

// Group dispatch shared by the mask learners: runs `run_group(tasks, plan)`
// when BuildMegaBatchPlan accepts the group. A rejected group of one comes
// back with the rejection as its status; a rejected larger group runs each
// task as its own group of one (audit hooks shifted to that task's record),
// so a malformed task fails alone and its batch-mates keep their solo bits.
// `Result` must have a util::Status `status` member.
template <typename Result, typename RunGroup>
std::vector<Result> RunInGroups(const std::vector<const ExplanationTask*>& tasks,
                                const RunGroup& run_group) {
  util::StatusOr<MegaBatchPlan> plan = BuildMegaBatchPlan(tasks);
  if (plan.ok()) return run_group(tasks, plan.value());
  std::vector<Result> results(tasks.size());
  if (tasks.size() == 1) {
    results[0].status = plan.status();
    return results;
  }
  for (size_t i = 0; i < tasks.size(); ++i) {
    obs::AuditScope::SetInstanceBase(i);
    results[i] = std::move(RunInGroups<Result>({tasks[i]}, run_group)[0]);
  }
  obs::AuditScope::SetInstanceBase(0);
  return results;
}

}  // namespace revelio::explain

#endif  // REVELIO_EXPLAIN_MASK_DRIVER_H_
