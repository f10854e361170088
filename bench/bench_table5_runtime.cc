// Reproduces paper Table V: average running time (seconds) per explanation
// method per dataset. PGExplainer is reported as "training (inference)".
// The headline shape: traditional gradient methods are fastest; SubgraphX is
// slowest by orders of magnitude; among flow-based methods Revelio is the
// fastest and scales with T*T_Phi instead of |F|*T_Phi (Table II).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>

#include "bench_common.h"
#include "eval/runner.h"
#include "explain/batch_runner.h"
#include "explain/pgexplainer.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "tensor/pool.h"
#include "util/timer.h"

namespace {

using namespace revelio;          // NOLINT
using namespace revelio::bench;   // NOLINT

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  BenchScope scope = ParseScope(
      flags, {"ba_shapes", "tree_cycles", "mutag_like", "ba_2motifs"}, 3, 60);
  // Table V uses GCN targets; override with --archs to measure others.
  if (!flags.Has("archs")) scope.archs = {gnn::GnnArch::kGcn};

  std::printf("== Table V: average explanation time in seconds (lower is better) ==\n");
  PrintScope("table5", scope);

  std::vector<std::string> header{"Method"};
  for (const auto& dataset : scope.datasets) header.push_back(dataset);
  util::TablePrinter table(header);

  const gnn::GnnArch arch = scope.archs[0];
  // Prepare models/instances once per dataset.
  std::vector<eval::PreparedModel> prepared;
  std::vector<std::vector<eval::EvalInstance>> instances;
  for (const auto& dataset : scope.datasets) {
    prepared.push_back(eval::PrepareModel(dataset, arch, scope.config));
    instances.push_back(
        eval::SelectInstances(prepared.back(), scope.config, eval::InstanceFilter::kAny));
    LOG_INFO << dataset << " ready (" << instances.back().size() << " instances)";
  }

  for (const std::string& method : scope.methods) {
    std::vector<std::string> row{method};
    for (size_t d = 0; d < scope.datasets.size(); ++d) {
      if (!MethodSupportsArch(method, arch) ||
          !eval::ArchSupportsDataset(arch, scope.datasets[d])) {
        row.push_back("N/A");
        continue;
      }
      auto explainer = eval::MakeExplainer(method, scope.config);
      // Amortized methods: report "training (inference)" like the paper.
      double train_seconds = 0.0;
      if (eval::NeedsAmortizedTraining(*explainer)) {
        obs::ScopedSpan train_span("table5.train_amortized");
        eval::TrainAmortized(explainer.get(), prepared[d], instances[d],
                             explain::Objective::kFactual, scope.config);
        train_seconds = train_span.ElapsedSeconds();
      }
      std::vector<explain::ExplanationTask> tasks;
      tasks.reserve(instances[d].size());
      for (const auto& instance : instances[d]) {
        tasks.push_back(instance.MakeTask(prepared[d].model.get()));
      }
      double explain_seconds = 0.0;
      {
        // The span doubles as the wall clock; it also lands in --trace-out.
        obs::ScopedSpan explain_span("table5.explain_all");
        // Instances run concurrently under --threads > 1; the reported number
        // is wall-clock per instance, i.e. throughput including the speedup.
        (void)eval::ExplainAll(explainer.get(), tasks, explain::Objective::kFactual);
        explain_seconds = explain_span.ElapsedSeconds();
      }
      const int count = static_cast<int>(tasks.size());
      const double per_instance = count > 0 ? explain_seconds / count : 0.0;
      if (eval::NeedsAmortizedTraining(*explainer)) {
        row.push_back(util::TablePrinter::FormatDouble(train_seconds, 2) + " (" +
                      util::TablePrinter::FormatDouble(per_instance, 3) + ")");
      } else {
        row.push_back(util::TablePrinter::FormatDouble(per_instance, 3));
      }
      LOG_INFO << method << " on " << scope.datasets[d] << ": " << per_instance << "s/inst";
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\nNote: per-instance seconds; the paper reports totals over 50 instances\n"
              "with 500 epochs. Shapes to compare: GradCAM/DeepLIFT fastest, SubgraphX\n"
              "slowest, Revelio fastest among flow-based methods on flow-heavy datasets.\n");

  // --pool-out FILE: re-run the Revelio column with the tensor pool disabled
  // and enabled and write the per-dataset comparison (the Table V counterpart
  // of the micro-kernel pool sweep; scores must match bitwise).
  const std::string pool_out = flags.GetString("pool-out", "");
  if (!pool_out.empty()) {
    struct PoolRow {
      std::string dataset;
      int instances = 0;
      double unpooled_seconds = 0.0;
      double pooled_seconds = 0.0;
      double pool_speedup = 0.0;
      bool bitwise_equal = false;
    };
    std::vector<PoolRow> rows;
    const bool pool_was_enabled = tensor::PoolEnabled();
    std::printf("\n== Revelio pooled vs unpooled (writes %s) ==\n", pool_out.c_str());
    for (size_t d = 0; d < scope.datasets.size(); ++d) {
      auto explainer = eval::MakeExplainer("Revelio", scope.config);
      std::vector<explain::ExplanationTask> tasks;
      tasks.reserve(instances[d].size());
      for (const auto& instance : instances[d]) {
        tasks.push_back(instance.MakeTask(prepared[d].model.get()));
      }
      auto run = [&] {
        util::Timer timer;
        std::vector<explain::Explanation> explanations =
            eval::ExplainAll(explainer.get(), tasks, explain::Objective::kFactual);
        return std::pair<std::vector<explain::Explanation>, double>(std::move(explanations),
                                                                    timer.ElapsedSeconds());
      };
      PoolRow row;
      row.dataset = scope.datasets[d];
      row.instances = static_cast<int>(tasks.size());
      tensor::SetPoolEnabled(false);
      (void)run();  // warm model/graph caches
      auto [unpooled, unpooled_seconds] = run();
      row.unpooled_seconds = unpooled_seconds;
      tensor::SetPoolEnabled(true);
      (void)run();  // prime each worker thread's pool
      auto [pooled, pooled_seconds] = run();
      row.pooled_seconds = pooled_seconds;
      row.pool_speedup = pooled_seconds > 0.0 ? unpooled_seconds / pooled_seconds : 0.0;
      row.bitwise_equal = true;
      for (size_t i = 0; i < pooled.size(); ++i) {
        if (pooled[i].edge_scores != unpooled[i].edge_scores) row.bitwise_equal = false;
      }
      std::printf("%-12s instances=%-3d  unpooled %8.4fs  pooled %8.4fs  speedup=%5.2fx  "
                  "bitwise_equal=%s\n",
                  row.dataset.c_str(), row.instances, row.unpooled_seconds, row.pooled_seconds,
                  row.pool_speedup, row.bitwise_equal ? "yes" : "NO");
      rows.push_back(std::move(row));
    }
    tensor::SetPoolEnabled(pool_was_enabled);
    bench::WriteBenchJson(pool_out, "table5_pool", [&](obs::JsonWriter* w) {
      w->BeginObject();
      w->Key("points");
      w->BeginArray();
      for (const PoolRow& r : rows) {
        w->BeginObject();
        w->Key("dataset");
        w->String(r.dataset);
        w->Key("instances");
        w->Int(r.instances);
        w->Key("unpooled_seconds");
        w->Double(r.unpooled_seconds);
        w->Key("pooled_seconds");
        w->Double(r.pooled_seconds);
        w->Key("pool_speedup");
        w->Double(r.pool_speedup);
        w->Key("bitwise_equal");
        w->Bool(r.bitwise_equal);
        w->EndObject();
      }
      w->EndArray();
      w->EndObject();
    });
  }

  // --batch-sweep FILE: measure mega-batched Revelio throughput against the
  // sequential per-instance loop at increasing group sizes, verifying every
  // point stays bitwise-equal to the sequential explanations. The speedup
  // comes from amortizing per-op dispatch over the fused block-diagonal
  // graph (see DESIGN.md section 10); run with --threads 1 for the paper
  // comparison.
  const std::string batch_sweep_out = flags.GetString("batch-sweep", "");
  if (!batch_sweep_out.empty()) {
    struct SweepRow {
      std::string dataset;
      int instances = 0;
      int batch_size = 0;  // 0 = the sequential baseline row
      double seconds = 0.0;
      double explanations_per_sec = 0.0;
      double speedup = 1.0;  // vs the sequential baseline
      bool bitwise_equal = true;
    };
    std::vector<SweepRow> rows;
    const int megabatch_old_size = explain::MegaBatchSize();
    // Pin execution plans off: replay would accelerate the sequential
    // baseline far more than the fused groups (small per-instance tensors are
    // dispatch-dominated), compressing the ratio this sweep isolates. The
    // plan x megabatch composition is measured by --plan-sweep instead.
    const bool batch_sweep_plans = plan::ExecPlanEnabled();
    plan::SetExecPlanEnabled(false);
    std::printf("\n== Revelio mega-batched vs sequential (writes %s) ==\n",
                batch_sweep_out.c_str());
    for (size_t d = 0; d < scope.datasets.size(); ++d) {
      auto explainer = eval::MakeExplainer("Revelio", scope.config);
      std::vector<explain::ExplanationTask> tasks;
      tasks.reserve(instances[d].size());
      for (const auto& instance : instances[d]) {
        tasks.push_back(instance.MakeTask(prepared[d].model.get()));
      }
      const int count = static_cast<int>(tasks.size());
      if (count == 0) continue;
      auto run = [&] {
        util::Timer timer;
        std::vector<explain::Explanation> explanations =
            eval::ExplainAll(explainer.get(), tasks, explain::Objective::kFactual);
        return std::pair<std::vector<explain::Explanation>, double>(std::move(explanations),
                                                                    timer.ElapsedSeconds());
      };
      // The baseline explains one task at a time: each Explain call is a
      // group of one.
      auto run_sequential = [&] {
        util::Timer timer;
        std::vector<explain::Explanation> explanations;
        explanations.reserve(tasks.size());
        for (const explain::ExplanationTask& task : tasks) {
          explanations.push_back(explainer->Explain(task, explain::Objective::kFactual));
        }
        return std::pair<std::vector<explain::Explanation>, double>(std::move(explanations),
                                                                    timer.ElapsedSeconds());
      };
      (void)run_sequential();  // warm model/graph caches and the tensor pool
      auto [sequential, sequential_seconds] = run_sequential();
      SweepRow baseline;
      baseline.dataset = scope.datasets[d];
      baseline.instances = count;
      baseline.seconds = sequential_seconds;
      baseline.explanations_per_sec =
          sequential_seconds > 0.0 ? count / sequential_seconds : 0.0;
      std::printf("%-12s instances=%-3d sequential %8.4fs (%7.2f expl/s)\n",
                  baseline.dataset.c_str(), count, baseline.seconds,
                  baseline.explanations_per_sec);
      rows.push_back(baseline);

      for (const int batch_size : {1, 2, 4, 8, 16, 32}) {
        if (batch_size > count && batch_size != 32) continue;
        explain::SetMegaBatchSize(batch_size);
        (void)run();  // prime the pool size classes for this group geometry
        auto [batched, batched_seconds] = run();
        SweepRow row;
        row.dataset = scope.datasets[d];
        row.instances = count;
        row.batch_size = batch_size;
        row.seconds = batched_seconds;
        row.explanations_per_sec = batched_seconds > 0.0 ? count / batched_seconds : 0.0;
        row.speedup = batched_seconds > 0.0 ? sequential_seconds / batched_seconds : 0.0;
        row.bitwise_equal = batched.size() == sequential.size();
        for (size_t i = 0; i < batched.size() && row.bitwise_equal; ++i) {
          if (batched[i].edge_scores != sequential[i].edge_scores ||
              batched[i].flow_scores != sequential[i].flow_scores) {
            row.bitwise_equal = false;
          }
        }
        std::printf("%-12s batch=%-3d %8.4fs (%7.2f expl/s)  speedup=%5.2fx  "
                    "bitwise_equal=%s\n",
                    row.dataset.c_str(), row.batch_size, row.seconds,
                    row.explanations_per_sec, row.speedup, row.bitwise_equal ? "yes" : "NO");
        rows.push_back(std::move(row));
      }
    }
    explain::SetMegaBatchSize(megabatch_old_size);
    plan::SetExecPlanEnabled(batch_sweep_plans);
    bench::WriteBenchJson(batch_sweep_out, "megabatch_sweep", [&](obs::JsonWriter* w) {
      w->BeginObject();
      w->Key("points");
      w->BeginArray();
      for (const SweepRow& r : rows) {
        w->BeginObject();
        w->Key("dataset");
        w->String(r.dataset);
        w->Key("instances");
        w->Int(r.instances);
        w->Key("batch_size");
        w->Int(r.batch_size);
        w->Key("seconds");
        w->Double(r.seconds);
        w->Key("explanations_per_sec");
        w->Double(r.explanations_per_sec);
        w->Key("speedup");
        w->Double(r.speedup);
        w->Key("bitwise_equal");
        w->Bool(r.bitwise_equal);
        w->EndObject();
      }
      w->EndArray();
      w->EndObject();
    });
  }

  // --plan-sweep FILE: measure the recorded-execution-plan replay path
  // (REVELIO_EXEC_PLAN, DESIGN.md section 12) against the fully eager loop at
  // increasing epoch counts. Epoch 0 records the tape either way; every
  // further epoch replays it (fused elementwise chains, level-parallel
  // steps, zero pool traffic), so the speedup grows as the record cost
  // amortizes — the largest epoch count is the gated point. Every point must
  // stay bitwise-equal and report zero replay-time pool acquisitions. Run
  // with --threads 1 for the paper comparison.
  const std::string plan_sweep_out = flags.GetString("plan-sweep", "");
  if (!plan_sweep_out.empty()) {
    struct PlanRow {
      std::string dataset;
      int instances = 0;
      int epochs = 0;
      double eager_seconds = 0.0;
      double plan_seconds = 0.0;
      double plan_speedup = 0.0;
      bool bitwise_equal = true;
      uint64_t replays = 0;
      uint64_t replay_pool_acquires = 0;
    };
    std::vector<PlanRow> rows;
    const bool plan_was_enabled = plan::ExecPlanEnabled();
    const bool metrics_were_enabled = obs::Enabled();
    obs::SetEnabled(true);  // the sweep reads the plan.* counters
    obs::Counter* replays_counter = obs::MetricsRegistry::Global().GetCounter("plan.replays");
    obs::Counter* acquires_counter =
        obs::MetricsRegistry::Global().GetCounter("plan.replay_pool_acquires");
    constexpr int kPlanReps = 5;
    std::printf("\n== Revelio plan replay vs eager (writes %s) ==\n", plan_sweep_out.c_str());
    for (size_t d = 0; d < scope.datasets.size(); ++d) {
      std::vector<int> epoch_points{scope.config.explainer_epochs / 10,
                                    scope.config.explainer_epochs / 2,
                                    scope.config.explainer_epochs};
      for (int& e : epoch_points) e = std::max(e, 2);
      epoch_points.erase(std::unique(epoch_points.begin(), epoch_points.end()),
                         epoch_points.end());
      for (const int epochs : epoch_points) {
        eval::RunnerConfig config = scope.config;
        config.explainer_epochs = epochs;
        auto explainer = eval::MakeExplainer("Revelio", config);
        std::vector<explain::ExplanationTask> tasks;
        tasks.reserve(instances[d].size());
        for (const auto& instance : instances[d]) {
          tasks.push_back(instance.MakeTask(prepared[d].model.get()));
        }
        if (tasks.empty()) continue;
        auto run = [&] {
          util::Timer timer;
          std::vector<explain::Explanation> explanations =
              eval::ExplainAll(explainer.get(), tasks, explain::Objective::kFactual);
          return std::pair<std::vector<explain::Explanation>, double>(std::move(explanations),
                                                                      timer.ElapsedSeconds());
        };
        PlanRow row;
        row.dataset = scope.datasets[d];
        row.instances = static_cast<int>(tasks.size());
        row.epochs = epochs;
        // Warm both modes (model/graph caches, pool size classes), then take
        // the best of interleaved reps so scheduler drift hits both equally.
        plan::SetExecPlanEnabled(false);
        (void)run();
        plan::SetExecPlanEnabled(true);
        (void)run();
        std::vector<explain::Explanation> eager_explanations;
        std::vector<explain::Explanation> plan_explanations;
        double eager_best = 0.0;
        double plan_best = 0.0;
        for (int rep = 0; rep < kPlanReps; ++rep) {
          plan::SetExecPlanEnabled(false);
          auto [eager, eager_seconds] = run();
          plan::SetExecPlanEnabled(true);
          const uint64_t replays_before = replays_counter->Total();
          const uint64_t acquires_before = acquires_counter->Total();
          auto [planned, plan_seconds] = run();
          row.replays = replays_counter->Total() - replays_before;
          row.replay_pool_acquires += acquires_counter->Total() - acquires_before;
          if (rep == 0 || eager_seconds < eager_best) eager_best = eager_seconds;
          if (rep == 0 || plan_seconds < plan_best) plan_best = plan_seconds;
          if (rep == 0) {
            eager_explanations = std::move(eager);
            plan_explanations = std::move(planned);
          }
        }
        row.eager_seconds = eager_best;
        row.plan_seconds = plan_best;
        row.plan_speedup = plan_best > 0.0 ? eager_best / plan_best : 0.0;
        row.bitwise_equal = eager_explanations.size() == plan_explanations.size();
        for (size_t i = 0; i < eager_explanations.size() && row.bitwise_equal; ++i) {
          if (eager_explanations[i].edge_scores != plan_explanations[i].edge_scores ||
              eager_explanations[i].flow_scores != plan_explanations[i].flow_scores) {
            row.bitwise_equal = false;
          }
        }
        std::printf("%-12s epochs=%-3d  eager %8.4fs  plan %8.4fs  speedup=%5.2fx  "
                    "replays=%llu  replay_acquires=%llu  bitwise_equal=%s\n",
                    row.dataset.c_str(), row.epochs, row.eager_seconds, row.plan_seconds,
                    row.plan_speedup, static_cast<unsigned long long>(row.replays),
                    static_cast<unsigned long long>(row.replay_pool_acquires),
                    row.bitwise_equal ? "yes" : "NO");
        rows.push_back(std::move(row));
      }
    }
    plan::SetExecPlanEnabled(plan_was_enabled);
    obs::SetEnabled(metrics_were_enabled);
    bench::WriteBenchJson(plan_sweep_out, "plan_sweep", [&](obs::JsonWriter* w) {
      w->BeginObject();
      w->Key("points");
      w->BeginArray();
      for (const PlanRow& r : rows) {
        w->BeginObject();
        w->Key("dataset");
        w->String(r.dataset);
        w->Key("instances");
        w->Int(r.instances);
        w->Key("epochs");
        w->Int(r.epochs);
        w->Key("eager_seconds");
        w->Double(r.eager_seconds);
        w->Key("plan_seconds");
        w->Double(r.plan_seconds);
        w->Key("plan_speedup");
        w->Double(r.plan_speedup);
        w->Key("bitwise_equal");
        w->Bool(r.bitwise_equal);
        w->Key("replays");
        w->Uint(r.replays);
        w->Key("replay_pool_acquires");
        w->Uint(r.replay_pool_acquires);
        w->EndObject();
      }
      w->EndArray();
      w->EndObject();
    });
  }

  // --obs-out FILE: measure the flight recorder's overhead on the Revelio
  // column. Runs the same task list with the recorder disabled and enabled,
  // interleaved min-of-N so drift hits both modes equally, and verifies the
  // explanations stay bitwise-equal — the observability layer must never
  // touch the numerics. obs_bench_check gates overhead_ratio in CI.
  const std::string obs_out = flags.GetString("obs-out", "");
  if (!obs_out.empty()) {
    struct ObsRow {
      std::string dataset;
      int instances = 0;
      double off_seconds = 0.0;  // REVELIO_FLIGHT_RECORDER=0 path, best of N
      double on_seconds = 0.0;   // recorder enabled, best of N
      double overhead_ratio = 0.0;
      bool bitwise_equal = false;
      uint64_t flight_events = 0;
    };
    std::vector<ObsRow> rows;
    const bool flight_was_enabled = obs::FlightEnabled();
    constexpr int kReps = 3;
    std::printf("\n== Revelio flight recorder on vs off (writes %s) ==\n", obs_out.c_str());
    for (size_t d = 0; d < scope.datasets.size(); ++d) {
      auto explainer = eval::MakeExplainer("Revelio", scope.config);
      std::vector<explain::ExplanationTask> tasks;
      tasks.reserve(instances[d].size());
      for (const auto& instance : instances[d]) {
        tasks.push_back(instance.MakeTask(prepared[d].model.get()));
      }
      if (tasks.empty()) continue;
      auto run = [&] {
        util::Timer timer;
        std::vector<explain::Explanation> explanations =
            eval::ExplainAll(explainer.get(), tasks, explain::Objective::kFactual);
        return std::pair<std::vector<explain::Explanation>, double>(std::move(explanations),
                                                                    timer.ElapsedSeconds());
      };
      ObsRow row;
      row.dataset = scope.datasets[d];
      row.instances = static_cast<int>(tasks.size());
      // Warm both modes: caches/pool for off, name interning + ring shards
      // for on, so neither mode pays first-touch costs inside the timing.
      obs::SetFlightEnabled(false);
      (void)run();
      obs::SetFlightEnabled(true);
      (void)run();
      std::vector<explain::Explanation> off_explanations;
      std::vector<explain::Explanation> on_explanations;
      double off_best = 0.0;
      double on_best = 0.0;
      for (int rep = 0; rep < kReps; ++rep) {
        obs::SetFlightEnabled(false);
        auto [off, off_seconds] = run();
        obs::SetFlightEnabled(true);
        auto [on, on_seconds] = run();
        if (rep == 0 || off_seconds < off_best) off_best = off_seconds;
        if (rep == 0 || on_seconds < on_best) on_best = on_seconds;
        if (rep == 0) {
          off_explanations = std::move(off);
          on_explanations = std::move(on);
        }
      }
      row.off_seconds = off_best;
      row.on_seconds = on_best;
      row.overhead_ratio = off_best > 0.0 ? on_best / off_best : 0.0;
      row.flight_events = obs::FlightRecorder::Global().total_recorded();
      row.bitwise_equal = off_explanations.size() == on_explanations.size();
      for (size_t i = 0; i < off_explanations.size() && row.bitwise_equal; ++i) {
        if (off_explanations[i].edge_scores != on_explanations[i].edge_scores ||
            off_explanations[i].flow_scores != on_explanations[i].flow_scores) {
          row.bitwise_equal = false;
        }
      }
      std::printf("%-12s instances=%-3d  off %8.4fs  on %8.4fs  overhead=%5.3fx  "
                  "events=%llu  bitwise_equal=%s\n",
                  row.dataset.c_str(), row.instances, row.off_seconds, row.on_seconds,
                  row.overhead_ratio, static_cast<unsigned long long>(row.flight_events),
                  row.bitwise_equal ? "yes" : "NO");
      rows.push_back(std::move(row));
    }
    obs::SetFlightEnabled(flight_was_enabled);
    bench::WriteBenchJson(obs_out, "table5_obs", [&](obs::JsonWriter* w) {
      w->BeginObject();
      w->Key("flight_capacity");
      w->Uint(obs::FlightRecorder::Global().capacity());
      w->Key("points");
      w->BeginArray();
      for (const ObsRow& r : rows) {
        w->BeginObject();
        w->Key("dataset");
        w->String(r.dataset);
        w->Key("instances");
        w->Int(r.instances);
        w->Key("off_seconds");
        w->Double(r.off_seconds);
        w->Key("on_seconds");
        w->Double(r.on_seconds);
        w->Key("overhead_ratio");
        w->Double(r.overhead_ratio);
        w->Key("bitwise_equal");
        w->Bool(r.bitwise_equal);
        w->Key("flight_events");
        w->Uint(r.flight_events);
        w->EndObject();
      }
      w->EndArray();
      w->EndObject();
    });
  }
  return 0;
}
