#ifndef REVELIO_TENSOR_POOL_H_
#define REVELIO_TENSOR_POOL_H_

// Pooled tensor storage with per-thread size-class free lists.
//
// Revelio's mask learning rebuilds the full autograd tape every Adam epoch
// from tensors of the *same* shapes, so the allocator sees the same exact
// sequence of sizes hundreds of times per explained instance. The pool turns
// that churn into free-list reuse: every TensorNode buffer (values and grad)
// is acquired from the current thread's pool and returned to it when the
// node dies. Buckets are keyed by exact element count; after a short warmup
// an explanation epoch performs zero pool misses (asserted in tests via the
// tensor.pool.miss counter).
//
// Threading: each thread owns an independent pool (no locks). A buffer
// released on a different thread than it was acquired on simply lands in the
// releasing thread's free lists — safe, and irrelevant in practice because
// ExplainAll parallelizes per instance, so each worker's explanations are
// self-contained. Per-thread PoolStats are plain counters read only by the
// owning thread; cross-thread visibility goes through the obs counters
// tensor.pool.{hit,miss,bytes_in_use,bytes_peak} instead.
//
// Toggles:
//   REVELIO_TENSOR_POOL=0  (env) or SetPoolEnabled(false): every acquisition
//     falls back to a plain zero-initialized allocation and releases free
//     immediately — the legacy allocator, bitwise-identical numerics.
//   REVELIO_POISON_POOL=1  (env) or SetPoolPoison(true): recycled buffers
//     are filled with a signaling NaN pattern on release, so any kernel that
//     reads an "uninitialized" acquisition before writing it propagates NaNs
//     into results the test suites catch.

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace revelio::tensor {

// Process-wide switches (relaxed atomics; defaults read the environment once).
bool PoolEnabled();
void SetPoolEnabled(bool enabled);
bool PoolPoisonEnabled();
void SetPoolPoison(bool enabled);

// Counters for one thread's pool. Plain (non-atomic) — owner-thread reads
// only. Byte figures track float payload (count * sizeof(float)).
struct PoolStats {
  uint64_t hits = 0;      // acquisitions served from a free list
  uint64_t misses = 0;    // acquisitions that had to allocate
  uint64_t releases = 0;  // buffers returned (retained or discarded)
  uint64_t discards = 0;  // releases dropped by the retention cap
  uint64_t bytes_in_use = 0;    // acquired minus released (clamped at 0)
  uint64_t bytes_peak = 0;      // high-water mark of bytes_in_use
  uint64_t bytes_retained = 0;  // currently parked in free lists
};

// One thread's free lists. Use the free functions below on hot paths; they
// handle the disabled/teardown fallbacks.
class TensorPool {
 public:
  // The calling thread's pool, or nullptr after the thread's pool has been
  // destroyed (thread_local teardown order) — callers must fall back to
  // plain allocation then.
  static TensorPool* ThreadLocal();

  // A buffer of exactly `count` floats with unspecified contents: recycled
  // (dirty, or poisoned under REVELIO_POISON_POOL) on a hit, zero-filled on
  // a miss (std::vector value-initializes fresh storage).
  std::vector<float> Acquire(size_t count);
  // Same, but guaranteed all-zero.
  std::vector<float> AcquireZeroed(size_t count);

  // Parks `*buffer` in its size bucket (or frees it when the retention cap
  // is reached) and leaves `*buffer` empty. Accepts foreign buffers that
  // were never acquired from any pool.
  void Release(std::vector<float>* buffer);

  // Drops every free list (bytes_retained -> 0).
  void Trim();
  // Drops retained buffers until bytes_retained <= bytes_peak. MemoryScope
  // calls this on exit so a one-off large explanation cannot pin memory.
  void TrimToHighWater();

  const PoolStats& stats() const { return stats_; }

 private:
  void DiscardUntil(uint64_t target_retained_bytes);

  std::unordered_map<size_t, std::vector<std::vector<float>>> buckets_;
  PoolStats stats_;
};

// Hot-path entry points used by TensorNode and the op helpers. When the pool
// is disabled (or this thread's pool is already torn down) they degrade to a
// plain zero-initialized allocation / normal free.
std::vector<float> AcquireBuffer(size_t count);        // unspecified contents
std::vector<float> AcquireZeroedBuffer(size_t count);  // all zeros
void ReleaseBuffer(std::vector<float>* buffer);

// RAII scope for one explanation / training run: publishes the scope's pool
// delta to the obs gauges and trims the thread's retention back to its
// in-use high-water mark on exit.
class MemoryScope {
 public:
  explicit MemoryScope(const char* label);
  ~MemoryScope();
  MemoryScope(const MemoryScope&) = delete;
  MemoryScope& operator=(const MemoryScope&) = delete;

  // Stats accumulated since the scope opened (zeros if the pool is gone).
  PoolStats Delta() const;

 private:
  const char* label_;
  PoolStats entry_;
};

}  // namespace revelio::tensor

#endif  // REVELIO_TENSOR_POOL_H_
