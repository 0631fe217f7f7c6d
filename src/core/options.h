// Construction options for a GODIVA database (GBO).
#ifndef GODIVA_CORE_OPTIONS_H_
#define GODIVA_CORE_OPTIONS_H_

#include <chrono>
#include <cstdint>

#include "common/clock.h"
#include "common/status.h"

namespace godiva {

// Which evictable unit the cache replacement picks when memory runs low.
// The paper uses LRU (§3.3); FIFO is kept as an ablation baseline.
enum class EvictionPolicy {
  kLru,
  kFifo,
};

// Unit-level retry of failed read functions with exponential backoff plus
// jitter. A unit's whole read function is re-invoked after its partial
// records are rolled back, so read functions need no internal retry logic
// (they just need to be re-runnable, which rollback guarantees for record
// operations). Backoff sleeps are interruptible: shutdown and DeleteUnit
// cancel them promptly. Each backoff grows by kBackoffMultiplier up to
// max_backoff and is shortened by a random share of up to kBackoffJitter
// (gbo_units.cc), so synchronized retry storms decorrelate.
struct RetryPolicy {
  // Total attempts including the first one; 1 disables retries.
  int max_attempts = 3;
  Duration initial_backoff = std::chrono::milliseconds(1);
  Duration max_backoff = std::chrono::milliseconds(100);

  // Which failure codes are worth re-running the read function for.
  // UNAVAILABLE: transient storage hiccup. DATA_LOSS: torn/corrupt read —
  // re-reading a shared filesystem often succeeds.
  static bool IsRetryable(StatusCode code) {
    return code == StatusCode::kUnavailable || code == StatusCode::kDataLoss;
  }

  static RetryPolicy None() {
    RetryPolicy policy;
    policy.max_attempts = 1;
    return policy;
  }
};

struct GboOptions {
  // Maximum memory the database may use for record buffers (plus the small
  // per-record overhead). Set at creation like the paper's `new GBO(400)`
  // (which takes MB); adjustable at runtime via Gbo::SetMemSpace.
  int64_t memory_limit_bytes = int64_t{256} * 1024 * 1024;

  // true  → the paper's standard multi-thread library (TG): a background
  //         I/O thread prefetches added units.
  // false → the paper's single-thread build (G): no I/O thread; WaitUnit
  //         performs the read inline, so all I/O is visible.
  bool background_io = true;

  // Number of background I/O threads when background_io is true (ignored
  // otherwise). 1 reproduces the paper's TG library exactly: a single FIFO
  // prefetcher. Values > 1 enable the I/O pool: N threads drain a
  // two-level queue where demand misses (units some thread is blocked on)
  // are served ahead of speculative prefetches, so deep storage queues
  // (DiskModel::queue_depth, NVMe-class hardware) are actually filled.
  int io_threads = 1;

  // Number of metadata shards the database stripes its hot state across:
  // the key → record indexes, the unit-state table, and the LRU lists.
  // 1 (the default) reproduces the single-lock behavior byte for byte —
  // one shard, one lock, one LRU. Values > 1 let concurrent client
  // threads look up keys and hit the unit cache without contending on one
  // global mutex; the memory budget stays global (a shared byte counter
  // with cross-shard eviction of the globally coldest unit). Clamped to
  // [1, lock_rank::kGboMaxShards] at construction.
  int metadata_shards = 1;

  EvictionPolicy eviction_policy = EvictionPolicy::kLru;

  // Applied to every unit read, foreground and background alike.
  RetryPolicy retry = {};

  // Per-file circuit breaker: once this many unit reads have failed
  // permanently against the same declared resource file (see the AddUnit
  // overload taking resources), the file is quarantined — further units
  // touching it fail fast with DATA_LOSS, without invoking their read
  // functions, until Gbo::ResetFileHealth. 0 disables the breaker. Units
  // that declare no resources never participate.
  int quarantine_threshold = 3;

  static GboOptions SingleThread() {
    GboOptions options;
    options.background_io = false;
    return options;
  }

  static GboOptions WithMemoryMb(int64_t mb) {
    GboOptions options;
    options.memory_limit_bytes = mb * 1024 * 1024;
    return options;
  }
};

}  // namespace godiva

#endif  // GODIVA_CORE_OPTIONS_H_
