// Unit tests for the pooled tensor allocator (tensor/pool.h): exact-size
// free-list reuse, zeroed acquisition on recycled buffers, poisoning,
// disabled-mode fallback, MemoryScope accounting, ReleaseTape semantics, and
// the steady-state contract — after a two-explanation warmup a Revelio
// explanation performs zero pool misses (checked both through the pool's own
// stats and through the tensor.pool.miss obs counter).

#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/revelio.h"
#include "explain/explainer.h"
#include "gnn/model.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace revelio {
namespace {

using tensor::MemoryScope;
using tensor::PoolStats;
using tensor::Tensor;
using tensor::TensorPool;

class PoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::SetNumThreads(1);
    tensor::SetPoolEnabled(true);
    tensor::SetPoolPoison(false);
    ASSERT_NE(TensorPool::ThreadLocal(), nullptr);
    TensorPool::ThreadLocal()->Trim();  // start from empty free lists
  }
  void TearDown() override {
    tensor::SetPoolEnabled(true);
    tensor::SetPoolPoison(false);
  }
};

TEST_F(PoolTest, ReleaseThenAcquireReusesTheExactBuffer) {
  TensorPool* pool = TensorPool::ThreadLocal();
  const PoolStats before = pool->stats();

  std::vector<float> buffer = tensor::AcquireBuffer(1234);
  ASSERT_EQ(buffer.size(), 1234u);
  const float* storage = buffer.data();
  buffer[0] = 42.0f;
  tensor::ReleaseBuffer(&buffer);
  EXPECT_TRUE(buffer.empty());

  std::vector<float> again = tensor::AcquireBuffer(1234);
  EXPECT_EQ(again.data(), storage) << "second acquisition did not recycle the buffer";
  EXPECT_EQ(again[0], 42.0f) << "recycled buffers are handed out dirty";

  const PoolStats after = pool->stats();
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.releases - before.releases, 1u);
  tensor::ReleaseBuffer(&again);
}

TEST_F(PoolTest, AcquireZeroedClearsRecycledBuffers) {
  std::vector<float> buffer = tensor::AcquireBuffer(512);
  for (auto& v : buffer) v = 7.0f;
  tensor::ReleaseBuffer(&buffer);

  const std::vector<float> zeroed = tensor::AcquireZeroedBuffer(512);
  for (float v : zeroed) ASSERT_EQ(v, 0.0f);
}

TEST_F(PoolTest, PoisonFillsRecycledBuffersWithNan) {
  tensor::SetPoolPoison(true);
  std::vector<float> buffer = tensor::AcquireBuffer(256);
  for (auto& v : buffer) v = 1.0f;
  tensor::ReleaseBuffer(&buffer);

  const std::vector<float> recycled = tensor::AcquireBuffer(256);
  for (float v : recycled) {
    ASSERT_EQ(std::bit_cast<uint32_t>(v), uint32_t{0x7fbadbad});
  }
  // AcquireZeroed must still produce clean zeros from a poisoned free list.
  std::vector<float> repoisoned(recycled);
  tensor::ReleaseBuffer(&repoisoned);
  const std::vector<float> zeroed = tensor::AcquireZeroedBuffer(256);
  for (float v : zeroed) ASSERT_EQ(v, 0.0f);
}

TEST_F(PoolTest, DisabledModeFallsBackToPlainZeroedAllocation) {
  // Park a dirty buffer, then disable: the legacy path must not serve it.
  std::vector<float> buffer = tensor::AcquireBuffer(2048);
  for (auto& v : buffer) v = 3.0f;
  tensor::ReleaseBuffer(&buffer);

  tensor::SetPoolEnabled(false);
  const std::vector<float> fresh = tensor::AcquireBuffer(2048);
  for (float v : fresh) ASSERT_EQ(v, 0.0f) << "disabled pool must allocate fresh zeroed storage";

  TensorPool* pool = TensorPool::ThreadLocal();
  const PoolStats before = pool->stats();
  std::vector<float> released(fresh);
  tensor::ReleaseBuffer(&released);
  EXPECT_TRUE(released.empty());
  EXPECT_EQ(pool->stats().releases, before.releases)
      << "disabled-mode releases must bypass the pool";
}

TEST_F(PoolTest, ZeroCountAndForeignBuffersAreSafe) {
  EXPECT_TRUE(tensor::AcquireBuffer(0).empty());
  std::vector<float> empty;
  tensor::ReleaseBuffer(&empty);  // no-op

  // A foreign buffer (never acquired from the pool) releases more bytes than
  // the pool thinks are in use; the accounting clamps instead of wrapping.
  TensorPool* pool = TensorPool::ThreadLocal();
  std::vector<float> foreign(100000, 1.0f);
  pool->Release(&foreign);
  EXPECT_LT(pool->stats().bytes_in_use, uint64_t{1} << 40) << "bytes_in_use underflowed";
}

TEST_F(PoolTest, MemoryScopeReportsTheScopedDelta) {
  MemoryScope scope("pool_test");
  std::vector<float> a = tensor::AcquireBuffer(64);
  tensor::ReleaseBuffer(&a);
  std::vector<float> b = tensor::AcquireBuffer(64);  // hit
  tensor::ReleaseBuffer(&b);
  const PoolStats delta = scope.Delta();
  EXPECT_GE(delta.hits, 1u);
  EXPECT_GE(delta.releases, 2u);
}

TEST_F(PoolTest, ReleaseTapeKeepsLeavesAndValues) {
  util::Rng rng(7);
  Tensor w = Tensor::Randn(4, 4, &rng).WithRequiresGrad();
  Tensor x = Tensor::Randn(4, 4, &rng);
  Tensor loss = tensor::Sum(tensor::Relu(tensor::MatMul(x, w)));
  loss.Backward();
  const std::vector<float> w_grad = w.GradData();
  ASSERT_FALSE(w_grad.empty());
  const float loss_value = loss.Value();

  loss.ReleaseTape();
  EXPECT_EQ(loss.Value(), loss_value) << "values must survive ReleaseTape";
  EXPECT_EQ(w.GradData(), w_grad) << "leaf parameter grads must survive ReleaseTape";
  loss.ReleaseTape();  // second release is a no-op
  EXPECT_EQ(loss.Value(), loss_value);
}

// The tentpole contract: once two warmup explanations primed the size
// classes, a further Revelio explanation — more epochs than the warmup, so
// the per-epoch loop dominates — allocates nothing: every buffer comes from
// the free lists (0 misses), visible both in the thread's own stats and in
// the cross-thread obs counter.
TEST_F(PoolTest, RevelioSteadyStateRunsWithZeroPoolMisses) {
  util::Rng rng(11);
  const int n = 20;
  graph::Graph g(n);
  for (int v = 0; v < n; ++v) g.AddUndirectedEdge(v, (v + 1) % n);
  for (int i = 0; i < 8; ++i) {
    const int u = rng.UniformInt(n);
    const int v = rng.UniformInt(n);
    if (u != v && !g.HasEdge(u, v)) g.AddEdge(u, v);
  }
  gnn::GnnConfig config;
  config.arch = gnn::GnnArch::kGcn;
  config.task = gnn::TaskType::kNodeClassification;
  config.input_dim = 5;
  config.hidden_dim = 8;
  config.num_classes = 2;
  config.seed = 12;
  gnn::GnnModel model(config);
  model.Freeze();
  explain::ExplanationTask task;
  task.model = &model;
  task.graph = &g;
  task.features = Tensor::Uniform(n, 5, -1.0f, 1.0f, &rng);
  task.target_node = 3;
  task.target_class = 1;

  {
    core::RevelioOptions warmup_options;
    warmup_options.epochs = 2;
    core::RevelioExplainer warmup(warmup_options);
    (void)warmup.Explain(task, explain::Objective::kFactual);
    (void)warmup.Explain(task, explain::Objective::kFactual);
  }

  const bool obs_was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::Counter* miss_counter = obs::MetricsRegistry::Global().GetCounter("tensor.pool.miss");
  const uint64_t obs_misses_before = miss_counter->Total();
  TensorPool* pool = TensorPool::ThreadLocal();
  const PoolStats before = pool->stats();

  core::RevelioOptions options;
  options.epochs = 6;
  core::RevelioExplainer explainer(options);
  const explain::Explanation explanation = explainer.Explain(task, explain::Objective::kFactual);
  EXPECT_FALSE(explanation.edge_scores.empty());

  const PoolStats after = pool->stats();
  EXPECT_EQ(after.misses, before.misses)
      << "a post-warmup Revelio explanation performed pool misses";
  EXPECT_GT(after.hits, before.hits) << "the explanation did not go through the pool at all";
  EXPECT_EQ(miss_counter->Total(), obs_misses_before)
      << "tensor.pool.miss advanced during a steady-state explanation";
  obs::SetEnabled(obs_was_enabled);
}

// Pool accounting across a mega-batch: every buffer the group's explanation
// builds (the mega-graph features included) comes from the pool, so what the
// pool retains afterwards never exceeds its in-use high-water mark, and the
// trim on scope exit drops no size class the next identical batch needs. The
// scenario runs on a fresh thread, whose pool starts with zeroed accounting.
TEST_F(PoolTest, ExplainBatchRetainsAtMostPeakAndRepeatsWithZeroMisses) {
  std::thread([] {
    util::Rng rng(23);
    const int n = 12;
    graph::Graph g(n);
    for (int v = 0; v < n; ++v) g.AddUndirectedEdge(v, (v + 1) % n);
    g.AddEdge(0, 6);
    g.AddEdge(4, 9);
    gnn::GnnConfig config;
    config.arch = gnn::GnnArch::kGcn;
    config.task = gnn::TaskType::kNodeClassification;
    config.input_dim = 5;
    config.hidden_dim = 8;
    config.num_classes = 2;
    config.seed = 24;
    gnn::GnnModel model(config);
    model.Freeze();
    constexpr int kTasks = 8;
    std::vector<explain::ExplanationTask> tasks(kTasks);
    std::vector<const explain::ExplanationTask*> pointers;
    for (int i = 0; i < kTasks; ++i) {
      tasks[i].model = &model;
      tasks[i].graph = &g;
      tasks[i].features = Tensor::Uniform(n, 5, -1.0f, 1.0f, &rng);
      tasks[i].target_node = i;
      tasks[i].target_class = i % 2;
      pointers.push_back(&tasks[i]);
    }
    core::RevelioOptions options;
    options.epochs = 4;
    core::RevelioExplainer explainer(options);
    TensorPool* pool = TensorPool::ThreadLocal();

    const std::vector<explain::Explanation> first =
        explainer.ExplainBatch(pointers, explain::Objective::kFactual);
    ASSERT_EQ(first.size(), static_cast<size_t>(kTasks));
    EXPECT_LE(pool->stats().bytes_retained, pool->stats().bytes_peak)
        << "the pool parks more bytes than were ever in use";

    const PoolStats before = pool->stats();
    const std::vector<explain::Explanation> second =
        explainer.ExplainBatch(pointers, explain::Objective::kFactual);
    const PoolStats after = pool->stats();
    EXPECT_EQ(after.misses - before.misses, 0u)
        << "an identical second batch allocated: the first batch's trim dropped buffers it "
           "needs";
    EXPECT_GT(after.hits, before.hits);
    for (int i = 0; i < kTasks; ++i) EXPECT_EQ(first[i].edge_scores, second[i].edge_scores);
  }).join();
}

}  // namespace
}  // namespace revelio
