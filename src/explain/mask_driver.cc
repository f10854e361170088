#include "explain/mask_driver.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace revelio::explain {

using tensor::Tensor;

namespace {

bool AllFinite(const std::vector<std::vector<double>*>& scores) {
  for (const std::vector<double>* vector : scores) {
    for (double value : *vector) {
      if (!std::isfinite(value)) return false;
    }
  }
  return true;
}

}  // namespace

Tensor InstanceSums(const Tensor& rows, const std::vector<int>& instance_of_row,
                    int num_instances) {
  return num_instances == 1 ? tensor::Sum(rows)
                            : tensor::SegmentSumRows(rows, instance_of_row, num_instances);
}

Tensor PooledColumn(const std::vector<float>& values) {
  Tensor column = Tensor::Empty(static_cast<int>(values.size()), 1);
  std::copy(values.begin(), values.end(), column.mutable_values()->begin());
  return column;
}

std::vector<util::Status> RunMaskDriver(const std::vector<const ExplanationTask*>& tasks,
                                        const MaskLearner& learner) {
  const int num_instances = static_cast<int>(tasks.size());

  // Concatenated parameters: instance i owns rows [offset[i], offset[i+1]) of
  // every parameter, initialized exactly as a group of one would be.
  std::vector<Tensor> params;
  std::vector<std::vector<int>> offsets;
  plan::PlanKey key;
  key.parts = {static_cast<uint64_t>(num_instances)};
  for (const MaskParam& spec : learner.params) {
    std::vector<int> offset(num_instances + 1, 0);
    for (int i = 0; i < num_instances; ++i) offset[i + 1] = offset[i] + spec.rows[i];
    Tensor param = Tensor::Zeros(offset[num_instances], 1);
    if (spec.init_scale != 0.0f) {
      std::vector<float>* values = param.mutable_values();
      for (int i = 0; i < num_instances; ++i) {
        util::Rng rng(learner.seed);
        const Tensor init = Tensor::Randn(spec.rows[i], 1, &rng);
        for (int k = 0; k < spec.rows[i]; ++k) {
          (*values)[offset[i] + k] = init.values()[k] * spec.init_scale;
        }
      }
    }
    key.parts.push_back(static_cast<uint64_t>(offset[num_instances]));
    params.push_back(param.WithRequiresGrad());
    offsets.push_back(std::move(offset));
  }
  key.parts.insert(key.parts.end(), learner.plan_key.begin(), learner.plan_key.end());
  for (const ExplanationTask* task : tasks) key.parts.push_back(task->graph->structure_version());
  nn::Adam optimizer(params, learner.learning_rate);

  // First epoch whose loss row went non-finite, per instance (-1: none).
  std::vector<int> bad_epoch(num_instances, -1);
  {
    obs::ScopedSpan optimize_span(learner.optimize_span);
    static obs::Counter* steps = obs::MetricsRegistry::Global().GetCounter("megabatch.steps");
    // Recorded execution plan (DESIGN.md §12): epoch 0 records the op tape
    // while running eagerly; later epochs replay it (fused + level-parallel,
    // no pool traffic) with bitwise-identical results. Retained handles read
    // this epoch's values in place after a replay.
    const bool use_plan = plan::ExecPlanEnabled();
    plan::PlanSession plan_session;
    MaskLearner::Step step;
    Tensor loss;
    for (int epoch = 0; epoch < learner.epochs; ++epoch) {
      optimizer.ZeroGrad();
      const bool replayed = use_plan && plan_session.Replay(key);
      if (!replayed) {
        {
          plan::PlanSession::RecordScope record(use_plan ? &plan_session : nullptr);
          step = learner.build_loss(params);
          // The sum seeds every instance's row with exactly 1.0, so gradients
          // of disjoint parameter segments never mix.
          loss = tensor::Sum(step.loss_rows);
        }
        loss.Backward();
        if (use_plan) plan_session.Seal(loss, key);
      }
      optimizer.Step();
      steps->Increment();
      for (int i = 0; i < num_instances; ++i) {
        const double loss_i = step.loss_rows.At(i, 0);
        if (bad_epoch[i] < 0 && !std::isfinite(loss_i)) bad_epoch[i] = epoch;
        if (obs::AuditRecord* audit = obs::AuditScope::Current(i)) {
          audit->loss_curve.push_back(loss_i);
          audit->mask_entropy.push_back(
              learner.mask_entropy(step.mask, offsets[0][i], offsets[0][i + 1]));
        }
      }
      // Eager epochs recycle their intermediates (after the first epoch primes
      // the pool's size classes the loop runs allocation-free); the plan path
      // keeps the tape pinned for replay instead.
      if (!use_plan) loss.ReleaseTape();
    }
    obs::AuditScope::AddPhase("optimize", optimize_span.ElapsedSeconds(), tasks.size());
  }

  std::vector<util::Status> status(num_instances);
  obs::ScopedSpan extract_span(learner.extract_span);
  for (int i = 0; i < num_instances; ++i) {
    std::vector<Tensor> segments;
    for (size_t p = 0; p < params.size(); ++p) {
      const std::vector<float>& trained = params[p].values();
      segments.push_back(PooledColumn(
          {trained.begin() + offsets[p][i], trained.begin() + offsets[p][i + 1]}));
    }
    const std::vector<std::vector<double>*> scores = learner.extract(i, segments);
    if (bad_epoch[i] >= 0) {
      status[i] = util::Status::Internal("numeric fault: non-finite loss at epoch " +
                                         std::to_string(bad_epoch[i]));
    } else if (!AllFinite(scores)) {
      status[i] = util::Status::Internal("numeric fault: non-finite scores after epoch " +
                                         std::to_string(learner.epochs - 1));
    }
    if (!status[i].ok()) {
      for (std::vector<double>* vector : scores) vector->clear();
      if (obs::AuditRecord* audit = obs::AuditScope::Current(i)) {
        audit->numeric_fault = status[i].message();
      }
    }
  }
  obs::AuditScope::AddPhase("extract", extract_span.ElapsedSeconds(), tasks.size());
  return status;
}

}  // namespace revelio::explain
