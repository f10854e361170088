// serve_mixed: an open loop against a running ExplanationServer. Requests
// are due on a seeded schedule — Poisson arrivals plus a burst every second
// — at a fixed offered rate, whether or not earlier ones have finished, and
// each is timed on the benchmark's clock from when it was due to when its
// response is seen ready. The schedule is sent in several passes, and a
// request's latency is its fastest pass. Two resident GCNs (ba_shapes,
// tree_cycles) serve k-hop instances; most requests ask for Revelio, the
// rest for GNNExplainer, with both objectives. After each pass, a capacity
// replay submits a fixed mix at once, timed to its last response. The
// quality panel is served through the same server before the loop and
// scored off it.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "eval/runner.h"
#include "instances.h"
#include "layer_probe.h"
#include "obs/trace.h"
#include "quality.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace rv = revelio;
using rv::explain::Objective;

namespace {

constexpr int kExplainerEpochs = 100;
constexpr int kInstancesPerModel = 32;
// About a third of the server's saturated capacity on the reference host
// (README.md records the calibration), so queues stay short even while the
// shared host runs slow, and p50/p99 follow service time, not backlog. At
// this rate a pass of 8 s carries over 1,000 requests, so p99 has at least
// 10 samples beyond it.
constexpr double kOfferedRate = 130.0;  // requests per second, bursts included
// The open loop replays one schedule this many times, each pass an equal
// share of the run, with a capacity replay and a Fidelity- chunk after each.
// The host only ever adds time, so each request's latency is its fastest
// pass (README.md, "Noise").
constexpr int kPasses = 4;
constexpr double kBurstShare = 0.25;    // of the offered rate, sent in bursts
constexpr double kBurstGapMs = 2.0;     // mean gap inside a burst
constexpr double kHubShare = 0.04;      // requests against the ba_shapes model
constexpr double kRevelioShare = 0.8;   // the rest ask for GNNExplainer
constexpr int64_t kDeadlineNanos = 2'000'000'000;
// Capacity replay: requests submitted at once after each open-loop pass, the
// same mix in every replay and run (no deadline, so none expires while they
// queue).
constexpr int kCapacityRequests = 512;
// Outstanding responses are polled this often, so a completion is stamped
// on the benchmark's clock within about this much of happening.
constexpr int64_t kPollNanos = 50'000;
constexpr int kWarmupRequests = 16;
constexpr int kEquivalenceSample = 24;
// Fidelity- rounds, in one chunk per pass, each on another CPU (CpuPin).
constexpr double kFidelitySeconds = 6.0;
constexpr int kProbeInstances = 8;  // per model, traced run
// The traced run's trace window ends this far into the open loop.
constexpr int64_t kTraceWindowNanos = 250'000'000;
// 3-hop ba_shapes subgraphs are either small or reach most of the graph
// (about 3,000 edges); this floor keeps only the latter, the slow cases that
// set p99. tree_cycles' subgraphs have tens of edges.
constexpr int kHubMinEdges = 1000;
const char* const kModels[] = {"ba_shapes", "tree_cycles"};
const char* const kMethods[] = {"Revelio", "GNNExplainer"};

struct Planned {
  int64_t due_offset_ns = 0;
  int model = 0;  // index into kModels
  int instance = 0;
  std::string method;
  Objective objective = Objective::kFactual;
};

// `n` labels, round(n * share) of them 1, in seeded order.
std::vector<int> ExactLabels(int n, double share, rv::util::Rng* rng) {
  std::vector<int> labels(n, 0);
  std::fill(labels.begin(), labels.begin() + std::lround(n * share), 1);
  rng->Shuffle(&labels);
  return labels;
}

const char* MethodFor(int revelio) { return revelio ? "Revelio" : "GNNExplainer"; }
Objective ObjectiveFor(int factual) {
  return factual ? Objective::kFactual : Objective::kCounterfactual;
}

// Gives each request one of its model's instances, which are one per
// flow-count stratum (instances.h). The n requests against a model get a
// systematic sample of the strata, instance floor((k + u) * N / n) for
// k < n and one seeded u in [0, 1), dealt out in seeded order. Every stratum
// is asked for equally often (to within one).
void AssignInstances(std::vector<Planned>* requests, rv::util::Rng* rng) {
  std::vector<int> picks[2];
  for (const Planned& p : *requests) picks[p.model].push_back(0);
  const double u = rng->Uniform();
  for (std::vector<int>& model_picks : picks) {
    const double n = static_cast<double>(model_picks.size());
    for (size_t k = 0; k < model_picks.size(); ++k) {
      model_picks[k] = static_cast<int>((static_cast<double>(k) + u) * kInstancesPerModel / n);
    }
    rng->Shuffle(&model_picks);
  }
  size_t next[2] = {0, 0};
  for (Planned& p : *requests) p.instance = picks[p.model][next[p.model]++];
}

// Gives each request a method and an objective. Ordered by instance, each
// model's requests take them from systematic 0/1 sequences, Revelio at
// density kRevelioShare and factual at 1/2, with seeded phases. GNNExplainer
// and each objective are then spread evenly over the strata, so every seed
// sends the same mix of (stratum, method, objective), and the hubs that set
// p99 do not depend on which of them a lucky draw paired with GNNExplainer.
void AssignExplainers(std::vector<Planned>* requests, rv::util::Rng* rng) {
  auto step = [](size_t k, double share, double phase) {
    return std::floor((static_cast<double>(k) + 1.0) * share + phase) >
           std::floor(static_cast<double>(k) * share + phase);
  };
  for (int model = 0; model < 2; ++model) {
    std::vector<Planned*> ordered;
    for (Planned& p : *requests) {
      if (p.model == model) ordered.push_back(&p);
    }
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Planned* a, const Planned* b) { return a->instance < b->instance; });
    const double revelio_phase = rng->Uniform(), factual_phase = rng->Uniform();
    for (size_t k = 0; k < ordered.size(); ++k) {
      ordered[k]->method = MethodFor(step(k, kRevelioShare, revelio_phase));
      ordered[k]->objective = ObjectiveFor(step(k, 0.5, factual_phase));
    }
  }
}

// Base traffic: a Poisson process at (1 - kBurstShare) of the rate, drawn
// given its expected count (that many arrival times, uniform over the pass),
// with an exact share of hubs in seeded order and instances, methods and
// objectives as above. Bursts: once per second, kBurstShare of a second's
// requests from one batch client on the tree_cycles model, sharing method
// and objective so they can coalesce into one mega-batch; the bursts split
// exactly between methods and objectives. Keeping the ba_shapes hubs out of
// the bursts leaves p99 to the many independent hub requests rather than to
// whether a burst happened to draw them. The seed draws arrival times, order
// and instances; the mix and its cost profile are the same in every run.
std::vector<Planned> MakeSchedule(uint64_t seed, double seconds) {
  rv::util::Rng rng(seed + 101);
  const int base = static_cast<int>(std::lround(kOfferedRate * (1.0 - kBurstShare) * seconds));
  const std::vector<int> hub = ExactLabels(base, kHubShare, &rng);
  std::vector<Planned> plan(base);
  for (int i = 0; i < base; ++i) {
    plan[i].due_offset_ns = static_cast<int64_t>(rng.Uniform() * seconds * 1e9);
    plan[i].model = hub[i] ? 0 : 1;
  }
  AssignInstances(&plan, &rng);
  AssignExplainers(&plan, &rng);
  const int bursts = static_cast<int>(seconds);
  const int burst_size = static_cast<int>(std::lround(kOfferedRate * kBurstShare));
  const std::vector<int> burst_revelio = ExactLabels(bursts, kRevelioShare, &rng),
                         burst_factual = ExactLabels(bursts, 0.5, &rng);
  std::vector<Planned> burst_plan;
  for (int second = 0; second < bursts; ++second) {
    double t = second + rng.Uniform();
    for (int i = 0; i < burst_size; ++i) {
      Planned p;
      t += -std::log(1.0 - rng.Uniform()) * kBurstGapMs * 1e-3;
      p.due_offset_ns = static_cast<int64_t>(t * 1e9);
      p.model = 1;
      p.method = MethodFor(burst_revelio[second]);
      p.objective = ObjectiveFor(burst_factual[second]);
      burst_plan.push_back(p);
    }
  }
  AssignInstances(&burst_plan, &rng);
  plan.insert(plan.end(), burst_plan.begin(), burst_plan.end());
  std::stable_sort(plan.begin(), plan.end(), [](const Planned& a, const Planned& b) {
    return a.due_offset_ns < b.due_offset_ns;
  });
  return plan;
}

// The capacity phase's requests: exactly kHubShare hubs in seeded order,
// with instances, methods and objectives assigned as in the schedule, so
// every seed offers the same mix.
std::vector<Planned> MakeCapacityMix(uint64_t seed) {
  rv::util::Rng rng(seed + 404);
  const std::vector<int> hub = ExactLabels(kCapacityRequests, kHubShare, &rng);
  std::vector<Planned> mix(kCapacityRequests);
  for (int i = 0; i < kCapacityRequests; ++i) mix[i].model = hub[i] ? 0 : 1;
  AssignInstances(&mix, &rng);
  AssignExplainers(&mix, &rng);
  return mix;
}

struct ServeState {
  std::vector<TargetSet> sets;  // index-aligned with kModels
  rv::serve::ModelRegistry registry;
  std::unique_ptr<rv::serve::ExplanationServer> server;
};

rv::eval::RunnerConfig ExplainerConfig(uint64_t seed) {
  rv::eval::RunnerConfig config;
  config.seed = seed;
  config.explainer_epochs = kExplainerEpochs;
  return config;
}

rv::serve::ExplainRequest MakeRequest(const rv::eval::EvalInstance& instance, int model,
                                      const std::string& method, Objective objective) {
  rv::serve::ExplainRequest request;
  request.model = kModels[model];
  request.method = method;
  request.objective = objective;
  request.graph = instance.graph;
  request.features = instance.features;
  request.target_node = instance.target_node;
  request.target_class = instance.target_class;
  return request;
}

// Request counts of one phase.
struct PhaseCounts {
  uint64_t sent = 0, ok = 0, shed = 0, expired = 0, failed = 0;
  std::string Json() const {
    return "{\"sent\":" + std::to_string(sent) + ",\"succeeded\":" + std::to_string(ok) +
           ",\"shed\":" + std::to_string(shed) + ",\"expired\":" + std::to_string(expired) +
           ",\"failed\":" + std::to_string(failed) + "}";
  }
};

std::unique_ptr<ServeState> SetUp(uint64_t seed, int workers, PhaseCounts* warmup) {
  auto state = std::make_unique<ServeState>();
  state->sets.push_back(PrepareTargets({kModels[0], kInstancesPerModel, 8, 0, kHubMinEdges}, seed));
  state->sets.push_back(PrepareTargets({kModels[1], kInstancesPerModel, 16}, seed));
  for (size_t m = 0; m < state->sets.size(); ++m) {
    CHECK(state->registry.Register(kModels[m], std::move(state->sets[m].prepared.model)).ok());
  }
  rv::serve::ServeOptions options;
  options.queue_capacity = 4096;
  options.num_workers = workers;
  options.warmup_requests = kWarmupRequests;
  options.explainer_epochs = kExplainerEpochs;
  options.seed = seed;
  state->server = std::make_unique<rv::serve::ExplanationServer>(&state->registry, options);
  for (const char* method : kMethods) {
    state->server->RegisterExplainer(method, rv::eval::MakeExplainer(method, ExplainerConfig(seed)));
  }
  state->server->Start();
  // Warm-up: every (model, method, objective) twice, each waited for before
  // the next is sent.
  rv::util::Rng rng(seed + 202);
  for (int i = 0; i < kWarmupRequests; ++i) {
    const int model = i % 2;
    const auto& instances = state->sets[model].instances;
    ++warmup->sent;
    auto submitted = state->server->Submit(
        MakeRequest(instances[rng.UniformInt(static_cast<int>(instances.size()))], model,
                    kMethods[(i / 2) % 2],
                    (i / 4) % 2 == 0 ? Objective::kFactual : Objective::kCounterfactual));
    const bool ok = submitted.ok() && submitted.value().get().status.ok();
    ++(ok ? warmup->ok : warmup->failed);
  }
  return state;
}

bool SameBits(const rv::explain::Explanation& a, const rv::explain::Explanation& b) {
  return a.edge_scores == b.edge_scores && a.has_flow_scores == b.has_flow_scores &&
         a.flow_scores == b.flow_scores;
}

struct Sent {
  int64_t due_ns = 0;
  int64_t submit_ns = 0;    // TrySubmit called
  int64_t admitted_ns = 0;  // TrySubmit returned
  int64_t done_ns = 0;      // the response was seen ready
  bool admitted = false;
  rv::util::StatusCode refused = rv::util::StatusCode::kOk;  // when not admitted
  std::future<rv::serve::ExplainResponse> future;
  rv::serve::ExplainResponse response;
};

// Submits `request` now and, when admitted, adds it to `outstanding`.
void Submit(rv::serve::ExplanationServer* server, rv::serve::ExplainRequest request, size_t index,
            std::vector<Sent>* sent, std::vector<size_t>* outstanding) {
  Sent& s = (*sent)[index];
  s.submit_ns = NowNanos();
  auto submitted = server->TrySubmit(std::move(request));
  s.admitted_ns = NowNanos();
  if (submitted.ok()) {
    s.admitted = true;
    s.future = std::move(submitted).value();
    outstanding->push_back(index);
  } else {
    s.refused = submitted.status().code();
  }
}

// Takes every outstanding response that is ready, stamping it with the
// benchmark's clock.
void CollectReady(std::vector<Sent>* sent, std::vector<size_t>* outstanding) {
  for (size_t k = 0; k < outstanding->size();) {
    Sent& s = (*sent)[(*outstanding)[k]];
    if (s.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++k;
      continue;
    }
    s.done_ns = NowNanos();
    s.response = s.future.get();
    (*outstanding)[k] = outstanding->back();
    outstanding->pop_back();
  }
}

// Sleeps until `until_ns` (all outstanding responses taken, when 0) in
// slices of kPollNanos, collecting ready responses between slices.
void PollUntil(int64_t until_ns, std::vector<Sent>* sent, std::vector<size_t>* outstanding) {
  for (int64_t now = NowNanos(); until_ns == 0 ? !outstanding->empty() : now < until_ns;
       now = NowNanos()) {
    CollectReady(sent, outstanding);
    const int64_t slice = until_ns == 0 ? kPollNanos : std::min(kPollNanos, until_ns - now);
    if (slice > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(slice));
  }
}

// The quality panel, served through the same server before the open loop.
std::vector<PanelExplanation> ServePanel(ServeState* state) {
  struct Pending {
    PanelExplanation item;
    std::future<rv::serve::ExplainResponse> future;
  };
  std::vector<Pending> pending;
  for (int m = 0; m < 2; ++m) {
    const TargetSet& set = state->sets[m];
    const rv::gnn::GnnModel* model = state->registry.Lookup(kModels[m]);
    for (const char* method : kMethods) {
      for (Objective objective : {Objective::kFactual, Objective::kCounterfactual}) {
        for (size_t i = 0; i < set.panel.size(); ++i) {
          auto submitted = state->server->Submit(MakeRequest(set.panel[i], m, method, objective));
          CHECK(submitted.ok()) << submitted.status().ToString();
          pending.push_back({{set.panel[i].MakeTask(model), &set.panel[i],
                              set.panel_auc_eligible[i] != 0, objective, {}},
                             std::move(submitted).value()});
        }
      }
    }
  }
  std::vector<PanelExplanation> panel;
  for (Pending& p : pending) {
    p.item.explanation = p.future.get().explanation;
    panel.push_back(std::move(p.item));
  }
  return panel;
}

std::vector<rv::serve::ExplainRequest> MakeRequests(const ServeState& state,
                                                    const std::vector<Planned>& plan) {
  std::vector<rv::serve::ExplainRequest> requests;
  requests.reserve(plan.size());
  for (const Planned& p : plan) {
    requests.push_back(
        MakeRequest(state.sets[p.model].instances[p.instance], p.model, p.method, p.objective));
  }
  return requests;
}

// Counts `s` into `counts` and tells whether it was served OK. An OK
// response must have finite scores, one per edge, or the run fails.
bool CountResponse(const Sent& s, const Planned& planned, const ServeState& state,
                   PhaseCounts* counts, WorkloadResult* result) {
  ++counts->sent;
  const rv::util::Status& status = s.response.status;
  if (!s.admitted) {
    ++(s.refused == rv::util::StatusCode::kResourceExhausted ? counts->shed : counts->failed);
  } else if (status.code() == rv::util::StatusCode::kDeadlineExceeded) {
    ++counts->expired;
  } else if (!status.ok()) {
    ++counts->failed;
  } else if (!ScoresWellFormed(
                 s.response.explanation.edge_scores,
                 state.sets[planned.model].instances[planned.instance].graph.num_edges())) {
    ++counts->failed;
    result->Fail("OK response with malformed scores");
  } else {
    ++counts->ok;
    return true;
  }
  return false;
}

void RunFidelityRounds(PanelScorer* scorer, double seconds) {
  const int64_t start = NowNanos();
  do {
    scorer->RunRound();
  } while (NowNanos() - start < seconds * 1e9);
}

}  // namespace

WorkloadResult RunServeWorkload(const RunConfig& config) {
  WorkloadResult result;
  // Thread budget: the generator (this thread) plus one server worker per
  // remaining CPU. Kernels run on the worker's own thread (ParallelFor at 1
  // thread): a third worker keeps the small requests from queueing behind
  // two hubs, which is what made p99 unsteady with 2 workers x 2 threads.
  const int workers = std::max(1, config.nproc - 1);
  const int parallel_threads = 1;
  rv::util::SetNumThreads(parallel_threads);

  std::vector<double> setup_seconds;
  std::unique_ptr<ServeState> state;
  PhaseCounts warmup;
  const int repeats = config.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    state.reset();
    warmup = PhaseCounts{};
    const int64_t start = NowNanos();
    state = SetUp(config.seed, workers, &warmup);
    setup_seconds.push_back(static_cast<double>(NowNanos() - start) * 1e-9);
  }
  rv::serve::ExplanationServer& server = *state->server;

  // --- Quality panel, served before the open loop and scored off it.
  PanelScorer scorer(ServePanel(state.get()), &result);

  std::vector<double> khop;
  std::vector<const TargetSet*> sets;
  std::vector<const rv::gnn::GnnModel*> models;
  for (size_t m = 0; m < state->sets.size(); ++m) {
    khop.insert(khop.end(), state->sets[m].khop_ms.begin(), state->sets[m].khop_ms.end());
    sets.push_back(&state->sets[m]);
    models.push_back(state->registry.Lookup(kModels[m]));
  }
  // --- Traced run: the tracing overhead on 8 factual Revelio explanations
  // of tree_cycles, then the trace window opens over the layer probe and the
  // start of the open loop.
  double trace_overhead = 0.0;
  LayerProbe probe;
  if (config.trace) {
    const std::vector<rv::eval::EvalInstance> eight(state->sets[1].instances.begin(),
                                                    state->sets[1].instances.begin() + 8);
    const std::vector<rv::explain::ExplanationTask> tasks = MakeTasks(eight, models[1]);
    const auto revelio = rv::eval::MakeExplainer("Revelio", ExplainerConfig(config.seed));
    trace_overhead = TraceOverheadFrac([&] {
      rv::obs::ScopedSpan span("eval.ExplainAll");
      rv::eval::ExplainAll(revelio.get(), tasks, Objective::kFactual);
    });
    OpenTraceWindow();
    probe = ProbeLayers(sets, models, kProbeInstances);
  }

  // --- Measured phase: kPasses rounds of an open-loop pass, a capacity
  // replay and a Fidelity- chunk, so the repeats of every metric spread over
  // the whole run, and a host slowdown that covers part of it leaves the
  // fastest repeat alone.
  //
  // Open loop: every pass sends the same schedule. Its requests are built
  // before the pass's clock starts, so the generator only sleeps, polls and
  // submits. Each response is timed on the benchmark's clock, when the
  // generator sees it ready. A pass ends when its last response is taken.
  //
  // Capacity: the same fixed mix submitted at once in every replay, each
  // timed from its first submission to its last response. Capacity is the
  // replays' OK responses over their summed time. (Their fastest would not
  // do: how a burst of 512 coalesces depends on thread timing, and some
  // replays finish fast by that luck alone.)
  const std::vector<Planned> plan = MakeSchedule(config.seed, config.seconds / kPasses);
  const std::vector<Planned> mix = MakeCapacityMix(config.seed);
  std::vector<std::vector<Sent>> passes(kPasses), replays(kPasses);
  std::vector<double> replay_seconds;
  std::vector<size_t> outstanding;
  ObsReading loop_counts;  // obs counter increments over the open-loop passes
  rv::serve::ServerStats loop_stats;  // ServerStats increments over the passes
  const rv::serve::ServerStats stats_before = server.stats();
  int64_t loop_nanos = 0;  // the passes' wall time
  bool window_open = config.trace;
  for (int pass = 0; pass < kPasses; ++pass) {
    std::vector<Sent>& sent = passes[pass];
    std::vector<rv::serve::ExplainRequest> requests = MakeRequests(*state, plan);
    sent.resize(plan.size());
    const ObsReading obs_before = ReadObs();
    const rv::serve::ServerStats pass_before = server.stats();
    const int64_t origin = NowNanos() + 10'000'000;
    for (size_t i = 0; i < plan.size(); ++i) {
      if (window_open && plan[i].due_offset_ns >= kTraceWindowNanos) {
        CloseTraceWindow("layer probe, then the open loop's first 0.25 s", &result);
        window_open = false;
      }
      sent[i].due_ns = origin + plan[i].due_offset_ns;
      PollUntil(sent[i].due_ns, &sent, &outstanding);
      requests[i].deadline_nanos = sent[i].due_ns + kDeadlineNanos;
      Submit(&server, std::move(requests[i]), i, &sent, &outstanding);
    }
    PollUntil(0, &sent, &outstanding);
    loop_nanos += NowNanos() - origin;
    if (window_open) {
      CloseTraceWindow("layer probe, then the open loop's whole first pass", &result);
      window_open = false;
    }
    AccumulateObs(ReadObs(), obs_before, &loop_counts);
    const rv::serve::ServerStats pass_after = server.stats();
    loop_stats.warm_pool_misses += pass_after.warm_pool_misses - pass_before.warm_pool_misses;
    loop_stats.coalesced_instances +=
        pass_after.coalesced_instances - pass_before.coalesced_instances;
    loop_stats.completed += pass_after.completed - pass_before.completed;

    std::vector<Sent>& mix_sent = replays[pass];
    std::vector<rv::serve::ExplainRequest> mix_requests = MakeRequests(*state, mix);
    mix_sent.resize(mix.size());
    const int64_t start = NowNanos();
    for (size_t i = 0; i < mix.size(); ++i) {
      Submit(&server, std::move(mix_requests[i]), i, &mix_sent, &outstanding);
    }
    PollUntil(0, &mix_sent, &outstanding);
    int64_t done = start;
    for (const Sent& s : mix_sent) done = std::max(done, s.done_ns);
    replay_seconds.push_back(static_cast<double>(done - start) * 1e-9);

    const CpuPin pin(pass);  // the server idles: only this thread runs
    RunFidelityRounds(&scorer, kFidelitySeconds / kPasses);
  }
  const rv::serve::ServerStats stats = server.stats();

  // --- Responses and accounting. Each scheduled request's latency is its
  // fastest pass; one that was not served in every pass counts as missing
  // the deadline. A request served in two passes must get the same
  // explanation bit for bit.
  const double deadline_ms = static_cast<double>(kDeadlineNanos) * 1e-6;
  PhaseCounts measured, capacity;
  std::vector<double> latency_ms, late_ms, queue_ms, run_ms, batch_sizes;
  std::map<std::string, std::vector<double>> method_run_ms;
  for (size_t i = 0; i < plan.size(); ++i) {
    double fastest_ms = deadline_ms;
    bool served_every_pass = true;
    const Sent* first_ok = nullptr;
    for (const std::vector<Sent>& sent : passes) {
      const Sent& s = sent[i];
      late_ms.push_back(static_cast<double>(s.submit_ns - s.due_ns) * 1e-6);
      if (!CountResponse(s, plan[i], *state, &measured, &result)) {
        served_every_pass = false;
        continue;
      }
      const rv::serve::ExplainResponse& r = s.response;
      if (first_ok == nullptr) {
        first_ok = &s;
      } else if (!SameBits(first_ok->response.explanation, r.explanation)) {
        result.Fail("served explanation differs between passes of the same request");
      }
      fastest_ms = std::min(fastest_ms, static_cast<double>(s.done_ns - s.due_ns) * 1e-6);
      queue_ms.push_back(r.queue_seconds * 1e3);
      run_ms.push_back(r.run_seconds * 1e3);
      batch_sizes.push_back(r.batch_size);
      method_run_ms[plan[i].method].push_back(r.run_seconds * 1e3 / r.batch_size);
    }
    latency_ms.push_back(served_every_pass ? fastest_ms : deadline_ms);
  }
  for (const std::vector<Sent>& mix_sent : replays) {
    for (size_t i = 0; i < mix.size(); ++i) {
      CountResponse(mix_sent[i], mix[i], *state, &capacity, &result);
    }
  }
  double capacity_seconds = 0.0;
  for (double seconds : replay_seconds) capacity_seconds += seconds;
  result.attempted = measured.sent + capacity.sent;
  result.failed = result.attempted - measured.ok - capacity.ok;

  // --- Output check: the server's accounting must match what the benchmark
  // sent and saw answered, and every admitted request must have its own id.
  std::set<uint64_t> ids;
  uint64_t admitted = 0;
  std::vector<const std::vector<Sent>*> phases;
  for (const std::vector<Sent>& sent : passes) phases.push_back(&sent);
  for (const std::vector<Sent>& mix_sent : replays) phases.push_back(&mix_sent);
  for (const std::vector<Sent>* phase : phases) {
    for (const Sent& s : *phase) {
      if (!s.admitted) continue;
      ++admitted;
      ids.insert(s.response.request_id);
      if (config.trace) {
        const rv::serve::ExplainResponse& r = s.response;
        result.requests.push_back({r.request_id, s.due_ns, s.submit_ns, s.admitted_ns,
                                   r.queue_seconds, r.run_seconds, s.done_ns});
      }
    }
  }
  if (ids.size() != admitted) result.Fail("admitted requests share a request id");
  if (stats.accepted - stats_before.accepted != admitted ||
      stats.rejected_full - stats_before.rejected_full != measured.shed + capacity.shed ||
      stats.timed_out - stats_before.timed_out != measured.expired + capacity.expired) {
    result.Fail("server accounting disagrees with the requests sent and answered");
  }

  // --- Output check: a seeded sample of the first pass's OK responses must
  // be bitwise-equal to eval::ExplainAll on the same task (the
  // serve_equivalence_test contract).
  const std::vector<Sent>& sent = passes.front();
  rv::util::Rng sample_rng(config.seed + 303);
  std::map<std::string, std::unique_ptr<rv::explain::Explainer>> reference;
  for (const char* method : kMethods) {
    reference[method] = rv::eval::MakeExplainer(method, ExplainerConfig(config.seed));
  }
  int checked = 0;
  for (int attempt = 0; attempt < 4 * kEquivalenceSample && checked < kEquivalenceSample;
       ++attempt) {
    const size_t i = static_cast<size_t>(sample_rng.UniformInt(static_cast<int>(sent.size())));
    if (!sent[i].admitted || !sent[i].response.status.ok()) continue;
    const rv::eval::EvalInstance& instance = state->sets[plan[i].model].instances[plan[i].instance];
    const std::vector<rv::explain::ExplanationTask> task = {
        instance.MakeTask(state->registry.Lookup(kModels[plan[i].model]))};
    const std::vector<rv::explain::Explanation> expected =
        rv::eval::ExplainAll(reference[plan[i].method].get(), task, plan[i].objective);
    if (!expected[0].status.ok() || !SameBits(expected[0], sent[i].response.explanation)) {
      result.Fail("served explanation differs from eval::ExplainAll");
    }
    ++checked;
  }
  if (checked == 0) result.Fail("no served response to check against eval::ExplainAll");

  server.Shutdown(rv::serve::ExplanationServer::DrainMode::kDrain);

  result.report.push_back({"targets", DescribeTargets(state->sets)});
  result.report.push_back({"warmup", warmup.Json()});
  result.report.push_back({"measured", measured.Json()});
  result.report.push_back({"capacity", capacity.Json()});
  result.report.push_back({"offered_rps", std::to_string(kOfferedRate)});
  result.report.push_back({"passes", std::to_string(kPasses)});
  result.report.push_back({"capacity_seconds", JsonArray(replay_seconds)});
  result.report.push_back({"latency_samples", std::to_string(latency_ms.size())});
  result.report.push_back({"equivalence_checked", std::to_string(checked)});
  result.report.push_back({"fidelity_rounds", std::to_string(scorer.rounds())});
  result.report.push_back({"auc_samples", std::to_string(scorer.auc_samples())});
  result.report.push_back(
      {"threads", "{\"generator\":1,\"server_workers\":" + std::to_string(workers) +
                      ",\"parallel_for\":" + std::to_string(parallel_threads) +
                      ",\"total\":" + std::to_string(workers + parallel_threads) + "}"});

  if (!config.trace) {
    result.Add("setup_s", Median(setup_seconds), "s");
    result.Add("latency_p50_ms", Percentile(latency_ms, 0.50), "ms");
    result.Add("latency_p99_ms", Percentile(latency_ms, 0.99), "ms");
    result.Add("explain_eps", Ratio(static_cast<double>(capacity.ok), capacity_seconds), "1/s");
    result.Add("fidelity_eps", scorer.fidelity_eps(), "1/s");
    result.Add("fid_minus", scorer.fid_minus(), "ratio");
    result.Add("auc", scorer.auc(), "ratio");
    result.Add("ok_frac",
               Ratio(static_cast<double>(result.attempted - result.failed),
                     static_cast<double>(result.attempted)),
               "ratio");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    return result;
  }

  // Per-layer serve metrics cover the open loop.
  const double sent_count = static_cast<double>(measured.sent);
  result.Add("serve.queue_wait_ms_p50", Percentile(queue_ms, 0.50), "ms");
  result.Add("serve.queue_wait_ms_p99", Percentile(queue_ms, 0.99), "ms");
  result.Add("serve.run_ms_p50", Percentile(run_ms, 0.50), "ms");
  result.Add("serve.run_ms_p99", Percentile(run_ms, 0.99), "ms");
  result.Add("serve.warm_pool_misses", static_cast<double>(loop_stats.warm_pool_misses), "count");
  result.Add("serve.batch_size_mean", Mean(batch_sizes), "count");
  result.Add("serve.coalesced_frac",
             Ratio(static_cast<double>(loop_stats.coalesced_instances),
                   static_cast<double>(loop_stats.completed)),
             "ratio");
  result.Add("serve.shed_frac", Ratio(static_cast<double>(measured.shed), sent_count), "ratio");
  result.Add("serve.expired_frac", Ratio(static_cast<double>(measured.expired), sent_count), "ratio");
  result.Add("serve.gen_late_ms_p99", Percentile(late_ms, 0.99), "ms");
  result.Add("explain.revelio_ms_per_inst", Mean(method_run_ms["Revelio"]), "ms");
  result.Add("explain.gnnexplainer_ms_per_inst", Mean(method_run_ms["GNNExplainer"]), "ms");
  result.Add("eval.fidelity_ms_per_probe", scorer.ms_per_probe(), "ms");
  result.Add("graph.khop_ms_per_inst", Mean(khop), "ms");
  AddProbeMetrics(probe, &result);
  result.Add("obs.trace_overhead_frac", trace_overhead, "ratio");
  AddCounterMetrics(loop_counts, ObsValue(ReadObs(), "tensor.pool.bytes_peak"),
                    static_cast<double>(measured.ok),
                    static_cast<double>(loop_nanos) * 1e-9, workers, &result);
  return result;
}

}  // namespace perfbench
