// batch_flows: offline explanation of the instances the seed
// draws, in whole rounds, interleaved with timed Fidelity- rounds over the
// quality panel (explained and scored for AUC off the timed path). Times
// are each job's or round's fastest repeat.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/runner.h"
#include "obs/trace.h"
#include "instances.h"
#include "layer_probe.h"
#include "quality.h"
#include "util/check.h"
#include "util/parallel.h"
#include "workloads.h"

namespace perfbench {

namespace rv = revelio;
using rv::explain::Objective;

namespace {

constexpr int kExplainerEpochs = 100;
constexpr double kFidelityShare = 0.25;  // of the measured time
constexpr int kProbeInstances = 8;      // per target set, traced run
// Tasks per ExplainAll call: one offline batch job, the unit whose latency
// is reported (the serving engine's default coalescing limit).
constexpr size_t kJobSize = 8;

struct BatchSpec {
  std::vector<TargetSpec> targets;
  std::vector<std::string> methods;
};

BatchSpec SpecFor(const std::string& workload) {
  CHECK(workload == "batch_flows") << workload;
  return {{{"mutag_like", 24, 12}, {"ba_2motifs", 24, 12, 200}}, {"Revelio"}};
}

struct Job {
  size_t target = 0;  // index into BatchState::sets
  std::string method;
  Objective objective = Objective::kFactual;
};

struct BatchState {
  std::vector<TargetSet> sets;
  std::vector<std::vector<rv::explain::ExplanationTask>> tasks;  // per set
  std::map<std::string, std::unique_ptr<rv::explain::Explainer>> explainers;
  std::vector<Job> jobs;
};

std::unique_ptr<BatchState> SetUp(const BatchSpec& spec, uint64_t seed) {
  auto state = std::make_unique<BatchState>();
  for (const TargetSpec& target : spec.targets) {
    state->sets.push_back(PrepareTargets(target, seed));
    const TargetSet& set = state->sets.back();
    state->tasks.push_back(MakeTasks(set.instances, set.prepared.model.get()));
  }
  rv::eval::RunnerConfig config;
  config.seed = seed;
  config.explainer_epochs = kExplainerEpochs;
  for (const std::string& method : spec.methods) {
    state->explainers[method] = rv::eval::MakeExplainer(method, config);
  }
  for (size_t t = 0; t < state->sets.size(); ++t) {
    for (const std::string& method : spec.methods) {
      for (Objective objective : {Objective::kFactual, Objective::kCounterfactual}) {
        state->jobs.push_back({t, method, objective});
      }
    }
  }
  // Warm-up: one batch job per job kind primes the thread pool and the
  // tensor pools before anything is timed.
  for (const Job& job : state->jobs) {
    const auto& all = state->tasks[job.target];
    const std::vector<rv::explain::ExplanationTask> first(
        all.begin(), all.begin() + std::min(kJobSize, all.size()));
    rv::eval::ExplainAll(state->explainers[job.method].get(), first, job.objective);
  }
  return state;
}

bool SameBits(const rv::explain::Explanation& a, const rv::explain::Explanation& b) {
  return a.status.ok() == b.status.ok() && a.edge_scores == b.edge_scores &&
         a.has_flow_scores == b.has_flow_scores && a.flow_scores == b.flow_scores;
}

}  // namespace

WorkloadResult RunBatchWorkload(const RunConfig& config) {
  WorkloadResult result;
  const BatchSpec spec = SpecFor(config.workload);
  // Kernels run on this thread alone. On the reference host, nproc
  // ParallelFor threads explained fewer instances per second than one did,
  // and their run-to-run spread was wider (README.md, "Thread budget").
  rv::util::SetNumThreads(1);

  // --- Set-up, repeated for a median; the last one is measured.
  std::vector<double> setup_seconds;
  std::unique_ptr<BatchState> state;
  const int repeats = config.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    state.reset();
    const int64_t start = NowNanos();
    state = SetUp(spec, config.seed);
    setup_seconds.push_back(static_cast<double>(NowNanos() - start) * 1e-9);
  }

  // --- Quality panel, explained off the timed path.
  std::vector<PanelExplanation> panel;
  for (const Job& job : state->jobs) {
    const TargetSet& set = state->sets[job.target];
    const std::vector<rv::explain::ExplanationTask> tasks =
        MakeTasks(set.panel, set.prepared.model.get());
    std::vector<rv::explain::Explanation> out =
        rv::eval::ExplainAll(state->explainers[job.method].get(), tasks, job.objective);
    for (size_t i = 0; i < tasks.size(); ++i) {
      panel.push_back({tasks[i], &set.panel[i], set.panel_auc_eligible[i] != 0, job.objective,
                       std::move(out[i])});
    }
  }
  PanelScorer scorer(std::move(panel), &result);

  std::vector<double> khop;
  std::vector<const TargetSet*> sets;
  std::vector<const rv::gnn::GnnModel*> models;
  for (const TargetSet& set : state->sets) {
    khop.insert(khop.end(), set.khop_ms.begin(), set.khop_ms.end());
    sets.push_back(&set);
    models.push_back(set.prepared.model.get());
  }
  // --- Traced run: the tracing overhead on one job, then the trace window
  // opens over the layer probe, one Fidelity- round and the first job of the
  // measured phase.
  double trace_overhead = 0.0;
  LayerProbe probe;
  if (config.trace) {
    const Job& job = state->jobs.front();
    const auto& all = state->tasks[job.target];
    const std::vector<rv::explain::ExplanationTask> first(
        all.begin(), all.begin() + std::min(kJobSize, all.size()));
    trace_overhead = TraceOverheadFrac([&] {
      rv::obs::ScopedSpan span("eval.ExplainAll");
      rv::eval::ExplainAll(state->explainers[job.method].get(), first, job.objective);
    });
    OpenTraceWindow();
    probe = ProbeLayers(sets, models, kProbeInstances);
    scorer.RunRound();
  }

  // --- Measured phase: whole explain rounds over every job, in ExplainAll
  // calls of kJobSize consecutive tasks, each followed by Fidelity- rounds
  // until those have their share of the time. Interleaving spreads both over
  // the whole window, so a host stall cannot land on one phase only, and
  // the rounds take turns over the CPUs.
  // Every round must reproduce the first.
  ObsReading explain_counts;  // obs counter increments over the explain rounds
  const int64_t phase_start = NowNanos();
  const int64_t budget = static_cast<int64_t>(config.seconds * 1e9);
  std::vector<std::vector<rv::explain::Explanation>> first_round(state->jobs.size());
  std::vector<double> round_eps, job_ms;  // job_ms: every job of every round, in order
  std::map<std::string, double> method_ms, method_count;
  double explain_seconds = 0.0;
  uint64_t ok = 0;
  int rounds = 0;
  while (rounds == 0 || NowNanos() - phase_start < budget) {
    const CpuPin pin(rounds);  // each round and its Fidelity- rounds on the next CPU
    const ObsReading round_obs = ReadObs();
    const int64_t round_start = NowNanos();
    uint64_t explained = 0;
    for (size_t j = 0; j < state->jobs.size(); ++j) {
      const Job& job = state->jobs[j];
      const auto& tasks = state->tasks[job.target];
      rv::explain::Explainer* explainer = state->explainers[job.method].get();
      for (size_t begin = 0; begin < tasks.size(); begin += kJobSize) {
        const std::vector<rv::explain::ExplanationTask> chunk(
            tasks.begin() + begin, tasks.begin() + std::min(tasks.size(), begin + kJobSize));
        const int64_t start = NowNanos();
        std::vector<rv::explain::Explanation> out;
        {
          rv::obs::ScopedSpan span("eval.ExplainAll");
          out = rv::eval::ExplainAll(explainer, chunk, job.objective);
        }
        const double ms = static_cast<double>(NowNanos() - start) * 1e-6;
        if (config.trace && job_ms.empty()) {
          CloseTraceWindow("layer probe, one Fidelity- round, then the first explain job",
                           &result);
        }
        job_ms.push_back(ms);
        method_ms[job.method] += ms;
        method_count[job.method] += static_cast<double>(chunk.size());
        for (size_t i = 0; i < out.size(); ++i) {
          ++result.attempted;
          if (out[i].status.ok() &&
              ScoresWellFormed(out[i].edge_scores, chunk[i].graph->num_edges())) {
            ++ok;
          } else {
            ++result.failed;
            if (out[i].status.ok()) result.Fail("OK explanation with malformed scores");
          }
          if (rounds == 0) {
            first_round[j].push_back(std::move(out[i]));
          } else if (!SameBits(out[i], first_round[j][begin + i])) {
            result.Fail("explanation differs between rounds of the same tasks");
          }
        }
        explained += out.size();
      }
    }
    const double round_seconds = static_cast<double>(NowNanos() - round_start) * 1e-9;
    AccumulateObs(ReadObs(), round_obs, &explain_counts);
    explain_seconds += round_seconds;
    round_eps.push_back(static_cast<double>(explained) / round_seconds);
    ++rounds;
    const double fidelity_target = explain_seconds * kFidelityShare / (1.0 - kFidelityShare);
    while (scorer.rounds() == 0 || scorer.seconds() < fidelity_target) scorer.RunRound();
  }

  result.report.push_back({"targets", DescribeTargets(state->sets)});
  result.report.push_back({"round_eps", JsonArray(round_eps)});
  result.report.push_back({"fidelity_rounds", std::to_string(scorer.rounds())});
  result.report.push_back({"latency_samples", std::to_string(job_ms.size())});
  result.report.push_back({"auc_samples", std::to_string(scorer.auc_samples())});
  result.report.push_back(
      {"threads", "{\"parallel_for\":" + std::to_string(rv::util::NumThreads()) +
                      ",\"total\":" + std::to_string(rv::util::NumThreads()) + "}"});

  if (!config.trace) {
    result.Add("setup_s", Median(setup_seconds), "s");
    // Every round repeats the same jobs, and the host only ever adds time to
    // a job, so each job's latency is its fastest round (README.md, "Noise");
    // the percentiles run over those per-job latencies, and the explain rate
    // is a round's explanations over the sum of them.
    const size_t jobs_per_round = job_ms.size() / rounds;
    std::vector<double> per_job_ms;
    for (size_t j = 0; j < jobs_per_round; ++j) {
      double fastest = job_ms[j];
      for (int r = 1; r < rounds; ++r) fastest = std::min(fastest, job_ms[r * jobs_per_round + j]);
      per_job_ms.push_back(fastest);
    }
    double round_ms = 0.0;
    for (double ms : per_job_ms) round_ms += ms;
    result.Add("latency_p50_ms", Percentile(per_job_ms, 0.50), "ms");
    result.Add("latency_p99_ms", Percentile(per_job_ms, 0.99), "ms");
    result.Add("explain_eps",
               static_cast<double>(result.attempted / rounds) / (round_ms * 1e-3), "1/s");
    result.Add("fidelity_eps", scorer.fidelity_eps(), "1/s");
    result.Add("fid_minus", scorer.fid_minus(), "ratio");
    result.Add("auc", scorer.auc(), "ratio");
    result.Add("ok_frac", Ratio(static_cast<double>(ok), static_cast<double>(result.attempted)),
               "ratio");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    return result;
  }

  // --- Traced run: counters across the explain phase and the layer probes.
  AddCounterMetrics(explain_counts, ObsValue(ReadObs(), "tensor.pool.bytes_peak"),
                    static_cast<double>(result.attempted), explain_seconds,
                    rv::util::NumThreads(), &result);
  result.Add("explain.revelio_ms_per_inst", Ratio(method_ms["Revelio"], method_count["Revelio"]),
             "ms");
  result.Add("explain.gnnexplainer_ms_per_inst",
             Ratio(method_ms["GNNExplainer"], method_count["GNNExplainer"]), "ms");
  result.Add("eval.fidelity_ms_per_probe", scorer.ms_per_probe(), "ms");
  result.Add("graph.khop_ms_per_inst", Mean(khop), "ms");
  AddProbeMetrics(probe, &result);
  result.Add("obs.trace_overhead_frac", trace_overhead, "ratio");
  return result;
}

}  // namespace perfbench
