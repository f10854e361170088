#include "tensor/pool.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace revelio::tensor {

namespace {

// Exponent all-ones + nonzero mantissa: a NaN that survives arithmetic, so a
// stale read of a recycled buffer poisons everything downstream of it.
const float kPoisonValue = std::bit_cast<float>(uint32_t{0x7fbadbad});

// Tiny workloads still deserve reuse: retain at least this much even before
// the in-use high-water mark has grown past it.
constexpr uint64_t kMinRetainBytes = uint64_t{1} << 20;

bool EnvFlagDisabled(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return false;
  const std::string value(env);
  return value == "0" || value == "false" || value == "off";
}

bool EnvFlagEnabled(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return false;
  const std::string value(env);
  return !(value.empty() || value == "0" || value == "false" || value == "off");
}

std::atomic<bool>& PoolEnabledFlag() {
  static std::atomic<bool> flag(!EnvFlagDisabled("REVELIO_TENSOR_POOL"));
  return flag;
}

std::atomic<bool>& PoolPoisonFlag() {
  static std::atomic<bool> flag(EnvFlagEnabled("REVELIO_POISON_POOL"));
  return flag;
}

// Mirrors of the per-thread stats in the process-wide registry (sharded
// atomics; no-ops while obs::Enabled() is false).
struct PoolMetrics {
  obs::Counter* hit;
  obs::Counter* miss;
  obs::Gauge* bytes_in_use;
  obs::Gauge* bytes_peak;
};

PoolMetrics& Metrics() {
  static PoolMetrics metrics = [] {
    PoolMetrics m{
        obs::MetricsRegistry::Global().GetCounter("tensor.pool.hit"),
        obs::MetricsRegistry::Global().GetCounter("tensor.pool.miss"),
        obs::MetricsRegistry::Global().GetGauge("tensor.pool.bytes_in_use"),
        obs::MetricsRegistry::Global().GetGauge("tensor.pool.bytes_peak"),
    };
    // Per-Acquire ticks are cheaper than a flight-ring record; the ring gets
    // the rare kPoolHighWater transitions instead of a flood of hit/miss.
    m.hit->DisableFlightRecording();
    m.miss->DisableFlightRecording();
    return m;
  }();
  return metrics;
}

// thread_local teardown guard: TensorNode destructors can run during thread
// exit after this thread's pool is gone; ThreadLocal() must then return null
// instead of resurrecting a destroyed object. Tri-state because the flag is
// also false before first use.
thread_local int t_pool_state = 0;  // 0 = not created, 1 = alive, 2 = destroyed

struct PoolHolder {
  TensorPool pool;
  PoolHolder() { t_pool_state = 1; }
  ~PoolHolder() { t_pool_state = 2; }
};

TensorPool* HolderPool() {
  thread_local PoolHolder holder;
  return &holder.pool;
}

}  // namespace

bool PoolEnabled() { return PoolEnabledFlag().load(std::memory_order_relaxed); }

void SetPoolEnabled(bool enabled) {
  PoolEnabledFlag().store(enabled, std::memory_order_relaxed);
  // Disabling must also stop serving from already-parked buffers, otherwise
  // "legacy allocator" mode would still be pool-backed for a while.
  if (!enabled) {
    if (TensorPool* pool = TensorPool::ThreadLocal()) pool->Trim();
  }
}

bool PoolPoisonEnabled() { return PoolPoisonFlag().load(std::memory_order_relaxed); }

void SetPoolPoison(bool enabled) {
  PoolPoisonFlag().store(enabled, std::memory_order_relaxed);
}

TensorPool* TensorPool::ThreadLocal() {
  if (t_pool_state == 2) return nullptr;
  return HolderPool();
}

std::vector<float> TensorPool::Acquire(size_t count) {
  if (count == 0) return {};
  const uint64_t bytes = uint64_t{count} * sizeof(float);
  auto it = buckets_.find(count);
  if (it != buckets_.end() && !it->second.empty()) {
    std::vector<float> buffer = std::move(it->second.back());
    it->second.pop_back();
    ++stats_.hits;
    stats_.bytes_retained -= bytes;
    stats_.bytes_in_use += bytes;
    if (stats_.bytes_in_use > stats_.bytes_peak) {
      stats_.bytes_peak = stats_.bytes_in_use;
      obs::RecordFlightEvent(obs::FlightEventKind::kPoolHighWater, "tensor.pool.high_water",
                             static_cast<double>(stats_.bytes_peak));
    }
    Metrics().hit->Increment();
    Metrics().bytes_in_use->Set(static_cast<double>(stats_.bytes_in_use));
    Metrics().bytes_peak->Set(static_cast<double>(stats_.bytes_peak));
    return buffer;
  }
  ++stats_.misses;
  stats_.bytes_in_use += bytes;
  if (stats_.bytes_in_use > stats_.bytes_peak) {
    stats_.bytes_peak = stats_.bytes_in_use;
    obs::RecordFlightEvent(obs::FlightEventKind::kPoolHighWater, "tensor.pool.high_water",
                           static_cast<double>(stats_.bytes_peak));
  }
  Metrics().miss->Increment();
  Metrics().bytes_in_use->Set(static_cast<double>(stats_.bytes_in_use));
  Metrics().bytes_peak->Set(static_cast<double>(stats_.bytes_peak));
  // The span marks only real allocations; steady-state epochs stay span-free.
  obs::ScopedSpan span("tensor.pool.Acquire", obs::FlightPolicy::kSkip);
  return std::vector<float>(count);
}

std::vector<float> TensorPool::AcquireZeroed(size_t count) {
  const bool recycled = [&] {
    auto it = buckets_.find(count);
    return it != buckets_.end() && !it->second.empty();
  }();
  std::vector<float> buffer = Acquire(count);
  // Fresh std::vector storage is already value-initialized; only recycled
  // buffers carry stale (or poisoned) contents.
  if (recycled) std::fill(buffer.begin(), buffer.end(), 0.0f);
  return buffer;
}

void TensorPool::Release(std::vector<float>* buffer) {
  if (buffer->empty()) return;
  const size_t count = buffer->size();
  const uint64_t bytes = uint64_t{count} * sizeof(float);
  ++stats_.releases;
  // Foreign buffers (FromData inputs) release more than was acquired; clamp.
  stats_.bytes_in_use -= std::min(stats_.bytes_in_use, bytes);
  Metrics().bytes_in_use->Set(static_cast<double>(stats_.bytes_in_use));
  const uint64_t cap = std::max(stats_.bytes_peak, kMinRetainBytes);
  if (stats_.bytes_retained + bytes > cap) {
    ++stats_.discards;
    std::vector<float>().swap(*buffer);
    return;
  }
  if (PoolPoisonEnabled()) std::fill(buffer->begin(), buffer->end(), kPoisonValue);
  stats_.bytes_retained += bytes;
  buckets_[count].push_back(std::move(*buffer));
  buffer->clear();
}

void TensorPool::Trim() {
  buckets_.clear();
  stats_.bytes_retained = 0;
}

void TensorPool::TrimToHighWater() { DiscardUntil(stats_.bytes_peak); }

void TensorPool::DiscardUntil(uint64_t target_retained_bytes) {
  if (stats_.bytes_retained <= target_retained_bytes) return;
  // Drop the largest size classes first: they pin the most memory and are
  // the least likely to recur once a big one-off explanation finished.
  std::vector<size_t> counts;
  counts.reserve(buckets_.size());
  for (const auto& [count, unused] : buckets_) counts.push_back(count);
  std::sort(counts.begin(), counts.end(), std::greater<size_t>());
  for (size_t count : counts) {
    auto it = buckets_.find(count);
    while (!it->second.empty() && stats_.bytes_retained > target_retained_bytes) {
      it->second.pop_back();
      stats_.bytes_retained -= uint64_t{count} * sizeof(float);
    }
    if (it->second.empty()) buckets_.erase(it);
    if (stats_.bytes_retained <= target_retained_bytes) break;
  }
}

std::vector<float> AcquireBuffer(size_t count) {
  if (PoolEnabled()) {
    if (TensorPool* pool = TensorPool::ThreadLocal()) return pool->Acquire(count);
  }
  return std::vector<float>(count);
}

std::vector<float> AcquireZeroedBuffer(size_t count) {
  if (PoolEnabled()) {
    if (TensorPool* pool = TensorPool::ThreadLocal()) return pool->AcquireZeroed(count);
  }
  return std::vector<float>(count);
}

void ReleaseBuffer(std::vector<float>* buffer) {
  if (buffer->empty()) return;
  if (PoolEnabled()) {
    if (TensorPool* pool = TensorPool::ThreadLocal()) {
      pool->Release(buffer);
      return;
    }
  }
  std::vector<float>().swap(*buffer);
}

MemoryScope::MemoryScope(const char* label) : label_(label) {
  if (TensorPool* pool = TensorPool::ThreadLocal()) entry_ = pool->stats();
}

MemoryScope::~MemoryScope() {
  TensorPool* pool = TensorPool::ThreadLocal();
  if (pool == nullptr) return;
  pool->TrimToHighWater();
  Metrics().bytes_in_use->Set(static_cast<double>(pool->stats().bytes_in_use));
  Metrics().bytes_peak->Set(static_cast<double>(pool->stats().bytes_peak));
  (void)label_;
}

PoolStats MemoryScope::Delta() const {
  TensorPool* pool = TensorPool::ThreadLocal();
  if (pool == nullptr) return PoolStats{};
  const PoolStats& now = pool->stats();
  PoolStats delta;
  delta.hits = now.hits - entry_.hits;
  delta.misses = now.misses - entry_.misses;
  delta.releases = now.releases - entry_.releases;
  delta.discards = now.discards - entry_.discards;
  delta.bytes_in_use = now.bytes_in_use;
  delta.bytes_peak = now.bytes_peak;
  delta.bytes_retained = now.bytes_retained;
  return delta;
}

}  // namespace revelio::tensor
