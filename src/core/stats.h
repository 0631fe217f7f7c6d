// Observability counters for a GODIVA database. "Visible I/O time" follows
// the paper's definition (§4.2): time the application spends in explicit
// blocking reads or waiting for units to become ready.
#ifndef GODIVA_CORE_STATS_H_
#define GODIVA_CORE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace godiva {

struct GboStats {
  // Time accounting (seconds on the clock godiva::Now() reads: virtual
  // under a DiscreteEventScope, wall otherwise).
  double visible_io_seconds = 0;    // blocking ReadUnit + WaitUnit waits
  double read_fn_seconds = 0;       // total time inside user read functions
  double prefetch_seconds = 0;      // read-function time on the I/O thread

  // I/O pool (PR 4). With io_threads == 1 these stay at their zero
  // defaults except queue_depth_high_water, which then records the deepest
  // the single prefetch FIFO ever got.
  int64_t demand_promotions = 0;     // queued units jumped ahead of the
                                     // speculative queue because a thread
                                     // blocked on them
  int64_t queue_depth_high_water = 0;  // max queued units (demand +
                                       // speculative) ever outstanding
  double io_busy_seconds = 0;        // summed busy time of all pool threads
  // Busy seconds per pool thread (size == io_threads for a background_io
  // database, empty otherwise): time from dequeuing a unit to settling it.
  std::vector<double> io_thread_busy_seconds;

  // Unit lifecycle.
  int64_t units_added = 0;
  int64_t units_prefetched = 0;       // completed by the I/O thread
  int64_t units_read_foreground = 0;  // completed by blocking ReadUnit
  int64_t unit_cache_hits = 0;        // ReadUnit/WaitUnit found data resident
  int64_t units_evicted = 0;          // evicted by the replacement policy
  int64_t units_deleted = 0;          // explicit DeleteUnit
  int64_t deadlocks_detected = 0;

  // Fault tolerance.
  int64_t read_retries = 0;            // read-fn re-invocations after
                                       // retryable failures
  int64_t units_failed_permanent = 0;  // reads that ended in kFailed after
                                       // exhausting the retry policy

  // Corruption resilience (PR 3), maintained by the per-file circuit
  // breaker.
  int64_t files_quarantined = 0;       // files tripped by the circuit breaker
  int64_t reads_short_circuited = 0;   // unit reads failed fast against a
                                       // quarantined file (no read-fn call)

  // Live ingest: SupersedeUnit and the watch registry.
  int64_t units_superseded = 0;   // SupersedeUnit publishes accepted
  int64_t units_invalidated = 0;  // live (kReady/kLoading) units marked
                                  // stale by a supersede
  int64_t watch_notifications = 0;   // watch callbacks delivered

  // Debug-build consistency audits that ran (GODIVA_DEBUG_INVARIANTS; see
  // Gbo::CheckInvariants). Stays 0 when the checks are compiled out.
  int64_t invariant_checks = 0;

  // Record/query activity. key_lookups/failed_lookups/lru_touches (and
  // unit_cache_hits above) are maintained as per-shard relaxed atomics on
  // the sharded hot path and summed by Gbo::stats().
  int64_t records_created = 0;
  int64_t records_committed = 0;
  int64_t key_lookups = 0;
  int64_t failed_lookups = 0;
  int64_t lru_touches = 0;  // units pinned out of / returned to an LRU list

  // Memory.
  int64_t current_memory_bytes = 0;
  int64_t peak_memory_bytes = 0;
  int64_t total_bytes_allocated = 0;

  std::string ToString() const;
};

}  // namespace godiva

#endif  // GODIVA_CORE_STATS_H_
