// Gbo: processing-unit lifecycle, the background I/O pool, memory-capped
// prefetching, cache eviction, and deadlock detection (paper §3.2–§3.3).
// The pool drains a two-level queue: demand misses (demand_queue_) before
// speculative prefetches (prefetch_queue_); io_threads == 1 degenerates to
// the paper's single FIFO prefetcher.
//
// Locking (DESIGN.md §10): a unit's mutable fields are guarded by its
// owning shard's mutex. The global mu_ guards the I/O queues, the memory
// budget, record ownership and the circuit breaker. Functions that hold
// both always acquire mu_ first, then the shard; functions that walk
// several shards (eviction, the audit) take them in index order, which
// the per-shard lock ranks enforce mechanically. Cache hits and unit
// waits touch only the shard. Where a function's lock state changes
// across its body (documented in gbo.h), the Clang analysis is disabled
// for that definition and the contract is enforced by the run-time rank
// checker instead.
#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/strings.h"
#include "core/gbo.h"
#include "core/unit_context.h"

namespace godiva {
namespace {

// RetryPolicy's backoff shape: each delay is kBackoffMultiplier times the
// last, and a uniform random share of up to kBackoffJitter is taken off.
constexpr double kBackoffMultiplier = 2.0;
constexpr double kBackoffJitter = 0.25;

}  // namespace

// ---------------------------------------------------------------------
// Memory accounting and eviction.

void Gbo::ChargeMemoryLocked(int64_t bytes) {
  int64_t now =
      memory_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (bytes > 0) counters_.total_bytes_allocated += bytes;
  counters_.peak_memory_bytes = std::max(counters_.peak_memory_bytes, now);
}

void Gbo::MakeEvictableLocked(Shard& s, Unit* unit) {
  if (std::find(s.evictable.begin(), s.evictable.end(), unit) !=
      s.evictable.end()) {
    return;
  }
  if (options_.eviction_policy == EvictionPolicy::kLru) {
    // Least-recently-finished at the front; the stamp comes from the
    // global clock so cross-shard eviction can compare shard fronts.
    unit->lru_seq = lru_clock_.fetch_add(1, std::memory_order_relaxed);
    s.evictable.push_back(unit);
  } else {
    // FIFO: order by when the unit was originally read.
    auto pos = s.evictable.begin();
    while (pos != s.evictable.end() &&
           (*pos)->ready_seq < unit->ready_seq) {
      ++pos;
    }
    s.evictable.insert(pos, unit);
  }
  s.lru_touches.fetch_add(1, std::memory_order_relaxed);
  memory_cv_.NotifyAll();
}

void Gbo::PinLocked(Shard& s, Unit* unit) {
  ++unit->refcount;
  unit->finished = false;
  auto pos = std::find(s.evictable.begin(), s.evictable.end(), unit);
  if (pos != s.evictable.end()) {
    s.evictable.erase(pos);
    s.lru_touches.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Gbo::PinCacheHitLocked(Shard& s, Unit* unit) {
  if (unit == nullptr || unit->state != UnitState::kReady || unit->stale) {
    return false;
  }
  PinLocked(s, unit);
  s.unit_cache_hits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Gbo::ReleaseRecordsLocked(const std::vector<Record*>& victims,
                               int64_t freed) {
  for (Record* record : victims) {
    // committed_/key_ only change under mu_, which we hold; the index
    // erase itself must take the record's key shard.
    if (record->committed_ && !record->key_.empty()) {
      Shard& key_shard = *shards_[ShardIndexOfKey(&record->type(),
                                                  record->key_)];
      MutexLock key_lock(&key_shard.mu);
      auto index_it = key_shard.indexes.find(&record->type());
      if (index_it != key_shard.indexes.end()) {
        index_it->second.erase(record->key_);
      }
    }
    records_.erase(record);
  }
  memory_used_.fetch_sub(freed, std::memory_order_relaxed);
  memory_cv_.NotifyAll();
}

void Gbo::RollbackRecords(Shard& s, Unit* unit) {
  MutexLock lock(&mu_);
  std::vector<Record*> victims;
  int64_t freed = 0;
  {
    MutexLock shard_lock(&s.mu);
    victims.swap(unit->records);
    freed = unit->memory_bytes;
    unit->memory_bytes = 0;
  }
  ReleaseRecordsLocked(victims, freed);
}

// Entry: mu_ and s.mu held. Exit: only mu_ held.
void Gbo::EvictUnitLocked(Shard& s, Unit* unit, bool explicit_delete) {
  std::vector<Record*> victims;
  victims.swap(unit->records);
  int64_t freed = unit->memory_bytes;
  unit->memory_bytes = 0;
  unit->state = UnitState::kDeleted;
  unit->refcount = 0;
  unit->finished = false;
  // Deleting a superseded unit cancels its pending publish too (the
  // caller asserts the data — any version — is no longer needed).
  unit->stale = false;
  // No read function runs on a deleted unit (a reload brings its own), so
  // release what this one holds, such as an open file, now.
  unit->read_fn = nullptr;
  unit->pending_read_fn = nullptr;
  unit->pending_resources.clear();
  auto pos = std::find(s.evictable.begin(), s.evictable.end(), unit);
  if (pos != s.evictable.end()) s.evictable.erase(pos);
  RemoveFromQueuesLocked(unit);
  if (explicit_delete) {
    ++counters_.units_deleted;
  } else {
    ++counters_.units_evicted;
    GODIVA_LOG(kDebug) << "evicted unit " << unit->name;
  }
  s.unit_cv.NotifyAll();
  s.mu.Unlock();
  // The record purge locks key shards; ours must be free by then (a key
  // may hash to any shard, including s).
  ReleaseRecordsLocked(victims, freed);
}

bool Gbo::EvictOneLocked() {
  for (;;) {
    // Pick the globally coldest shard front: minimum LRU stamp (or ready
    // sequence under FIFO) over all shards. Shards are peeked one at a
    // time in index order; with a single shard this degenerates to
    // popping the front of the one list, exactly the unsharded behavior.
    int best_shard = -1;
    int64_t best_seq = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
      Shard& s = *shards_[i];
      MutexLock shard_lock(&s.mu);
      if (s.evictable.empty()) continue;
      const Unit* front = s.evictable.front();
      int64_t seq = options_.eviction_policy == EvictionPolicy::kLru
                        ? front->lru_seq
                        : front->ready_seq;
      if (best_shard < 0 || seq < best_seq) {
        best_shard = static_cast<int>(i);
        best_seq = seq;
      }
    }
    if (best_shard < 0) return false;
    Shard& s = *shards_[best_shard];
    s.mu.Lock();
    if (s.evictable.empty()) {
      // A concurrent pin emptied the list between peek and re-lock; the
      // global picture changed, so re-scan.
      s.mu.Unlock();
      continue;
    }
    Unit* victim = s.evictable.front();
    s.evictable.pop_front();
    EvictUnitLocked(s, victim, /*explicit_delete=*/false);  // releases s.mu
    return true;
  }
}

void Gbo::EvictToLimitLocked() {
  while (memory_used_.load(std::memory_order_relaxed) >
             memory_limit_.load(std::memory_order_relaxed) &&
         EvictOneLocked()) {
  }
}

// ---------------------------------------------------------------------
// Read execution.

Status Gbo::RunReadFn(Unit* unit) {
  if (!unit->read_fn) {
    return InternalError(StrCat("unit ", unit->name, " has no read function"));
  }
  internal_unit_context::Scope scope(this, unit->name);
  return unit->read_fn(this, unit->name);
}

Duration Gbo::JitteredBackoffLocked(Duration base) {
  double factor = 1.0 - kBackoffJitter * retry_rng_.NextDouble();
  auto scaled = std::chrono::duration_cast<Duration>(base * factor);
  return std::max(scaled, Duration::zero());
}

// ---------------------------------------------------------------------
// Per-file circuit breaker.

void Gbo::RecordUnitFailureLocked(const Unit& unit) {
  if (options_.quarantine_threshold <= 0) return;
  for (const std::string& path : unit.resources) {
    FileHealth& health = file_health_[path];
    ++health.permanent_failures;
    if (!health.quarantined &&
        health.permanent_failures >= options_.quarantine_threshold) {
      health.quarantined = true;
      ++counters_.files_quarantined;
      GODIVA_LOG(kWarning) << "quarantining file " << path << " after "
                           << health.permanent_failures
                           << " permanent unit read failures";
    }
  }
}

const std::string* Gbo::QuarantinedResourceLocked(const Unit& unit) const {
  for (const std::string& path : unit.resources) {
    auto it = file_health_.find(path);
    if (it != file_health_.end() && it->second.quarantined) return &path;
  }
  return nullptr;
}

Gbo::WatchEvent Gbo::ShortCircuitUnitLocked(Shard& s, Unit* unit,
                                            const std::string& path) {
  RemoveFromQueuesLocked(unit);
  ++counters_.reads_short_circuited;
  return SettleUnitLocked(
      s, unit,
      DataLossError(StrCat("unit ", unit->name, ": file ", path,
                           " is quarantined after repeated permanent "
                           "failures (ResetFileHealth to retry)")));
}

bool Gbo::IsFileQuarantined(const std::string& path) const {
  MutexLock lock(&mu_);
  auto it = file_health_.find(path);
  return it != file_health_.end() && it->second.quarantined;
}

std::vector<std::string> Gbo::QuarantinedFiles() const {
  MutexLock lock(&mu_);
  std::vector<std::string> out;
  for (const auto& [path, health] : file_health_) {
    if (health.quarantined) out.push_back(path);
  }
  return out;  // std::map iteration is already sorted
}

Status Gbo::ResetFileHealth(const std::string& path) {
  MutexLock lock(&mu_);
  auto it = file_health_.find(path);
  if (it == file_health_.end()) {
    return NotFoundError(StrCat("no health record for file ", path));
  }
  file_health_.erase(it);
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Two-level prefetch queue. Demand misses (units an application thread is
// blocked on) live in demand_queue_ and are always served before the
// speculative prefetch_queue_. A unit sits in at most one of the two.

void Gbo::RemoveFromQueuesLocked(Unit* unit) {
  auto pos = std::find(demand_queue_.begin(), demand_queue_.end(), unit);
  if (pos != demand_queue_.end()) {
    demand_queue_.erase(pos);
    return;
  }
  pos = std::find(prefetch_queue_.begin(), prefetch_queue_.end(), unit);
  if (pos != prefetch_queue_.end()) prefetch_queue_.erase(pos);
}

Gbo::Unit* Gbo::PopNextQueuedLocked() {
  if (!demand_queue_.empty()) {
    Unit* unit = demand_queue_.front();
    demand_queue_.pop_front();
    return unit;
  }
  if (!prefetch_queue_.empty()) {
    Unit* unit = prefetch_queue_.front();
    prefetch_queue_.pop_front();
    return unit;
  }
  return nullptr;
}

void Gbo::QueueUnitLocked(Unit* unit, bool queued, bool blocked) {
  const bool demand = blocked && options_.io_threads > 1;
  if (queued) {
    if (!demand) return;
    auto pos = std::find(prefetch_queue_.begin(), prefetch_queue_.end(), unit);
    if (pos == prefetch_queue_.end()) return;  // already in the demand queue
    prefetch_queue_.erase(pos);
    ++counters_.demand_promotions;
  }
  (demand ? demand_queue_ : prefetch_queue_).push_back(unit);
  NoteQueueDepthLocked();  // a promotion leaves the depth unchanged
  queue_cv_.NotifyOne();
}

void Gbo::NoteQueueDepthLocked() {
  int64_t depth =
      static_cast<int64_t>(demand_queue_.size() + prefetch_queue_.size());
  counters_.queue_depth_high_water =
      std::max(counters_.queue_depth_high_water, depth);
}

Status Gbo::ExecuteRead(Shard& s, Unit* unit, const TimePoint* deadline,
                        bool on_io_thread) {
  const RetryPolicy& policy = options_.retry;
  Duration base_backoff = policy.initial_backoff;
  Status status;
  for (int attempt = 1;; ++attempt) {
    {
      MutexLock shard_lock(&s.mu);
      unit->attempt = attempt;
    }
    Stopwatch stopwatch;
    status = RunReadFn(unit);
    Duration elapsed = stopwatch.Elapsed();
    read_fn_time_.Add(elapsed);
    if (on_io_thread) prefetch_time_.Add(elapsed);
    if (status.ok()) return status;

    // Roll the partial load back before deciding anything else: the
    // database must never expose (or re-feed) a half-loaded unit, and a
    // retry must start against a clean key index and memory accounting.
    RollbackRecords(s, unit);
    bool cancelled;
    {
      MutexLock shard_lock(&s.mu);
      // A supersede makes retrying pointless: the settle path discards
      // this epoch's result and requeues the pending publish.
      cancelled = unit->cancel_requested || unit->stale;
    }
    if (shutdown_.load(std::memory_order_acquire) || cancelled) {
      return status;
    }
    if (!policy.IsRetryable(status.code()) ||
        attempt >= policy.max_attempts) {
      MutexLock lock(&mu_);
      ++counters_.units_failed_permanent;
      RecordUnitFailureLocked(*unit);
      return status;
    }
    Duration delay;
    {
      MutexLock lock(&mu_);
      delay = JitteredBackoffLocked(base_backoff);
      if (deadline != nullptr && Now() + delay >= *deadline) {
        ++counters_.units_failed_permanent;
        RecordUnitFailureLocked(*unit);
        return DeadlineExceededError(StrCat(
            "unit ", unit->name, ": deadline expires before retry attempt ",
            attempt + 1, " (last error: ", status.ToString(), ")"));
      }
      ++counters_.read_retries;
    }
    GODIVA_LOG(kDebug) << "unit " << unit->name << " read attempt "
                       << attempt << " failed (" << status
                       << "); retrying in " << FormatSeconds(ToSeconds(delay));
    // Interruptible backoff: shutdown and DeleteUnit break the sleep.
    TimePoint wake = Now() + delay;
    {
      MutexLock shard_lock(&s.mu);
      unit->in_backoff = true;
      while (!shutdown_.load(std::memory_order_acquire) &&
             !unit->cancel_requested && !unit->stale) {
        if (!s.unit_cv.WaitUntil(&s.mu, wake)) break;  // backoff elapsed
      }
      unit->in_backoff = false;
      cancelled = unit->cancel_requested || unit->stale;
    }
    if (shutdown_.load(std::memory_order_acquire) || cancelled) {
      return status;
    }
    base_backoff =
        std::min(std::chrono::duration_cast<Duration>(
                     base_backoff * kBackoffMultiplier),
                 policy.max_backoff);
  }
}

// Entry: mu_ and s.mu held. Exit: only s.mu held — mu_ is dropped before
// the read runs and not re-taken, so the caller can pin the settled unit
// in the same s.mu critical section that observes the terminal state.
Status Gbo::LoadInlineAndLock(Shard& s, Unit* unit, const TimePoint* deadline,
                              std::optional<WatchEvent>* settled) {
  if (const std::string* quarantined = QuarantinedResourceLocked(*unit)) {
    *settled = ShortCircuitUnitLocked(s, unit, *quarantined);
    mu_.Unlock();
    return unit->error;
  }
  unit->state = UnitState::kLoading;
  RemoveFromQueuesLocked(unit);
  s.mu.Unlock();
  EvictToLimitLocked();  // best effort; the main thread never blocks here
  mu_.Unlock();

  Status status = ExecuteRead(s, unit, deadline, /*on_io_thread=*/false);

  {
    MutexLock lock(&mu_);
    ++counters_.units_read_foreground;
  }
  s.mu.Lock();
  // A publish that superseded the unit mid-load makes the result belong
  // to the old epoch: it stays kLoading for the caller to convert.
  if (!unit->stale) *settled = SettleUnitLocked(s, unit, status);
  return status;
}

Gbo::WatchEvent Gbo::SettleUnitLocked(Shard& s, Unit* unit, Status status) {
  unit->error = std::move(status);
  unit->state = unit->error.ok() ? UnitState::kReady : UnitState::kFailed;
  unit->ready_seq = next_ready_seq_.fetch_add(1, std::memory_order_relaxed);
  s.unit_cv.NotifyAll();
  return WatchEvent{unit->name,
                    unit->error.ok() ? WatchEventKind::kReady
                                     : WatchEventKind::kFailed,
                    unit->epoch};
}

bool Gbo::UnitSettled(const Unit& unit) const {
  return unit.state == UnitState::kReady ||
         unit.state == UnitState::kFailed ||
         unit.state == UnitState::kDeleted;
}

Status Gbo::AwaitReadyLocked(Shard& s, Unit* unit,
                             const TimePoint* deadline) {
  blocked_waiters_.fetch_add(1, std::memory_order_relaxed);
  ++unit->waiters;
  // Wake the I/O pool's memory gate so it can re-run deadlock detection
  // now that a consumer is blocked.
  memory_cv_.NotifyAll();
  // A settled-but-stale unit is still pending from the waiter's point of
  // view: its data belongs to a superseded epoch and the reload has not
  // landed yet, so the wait continues until the fresh version settles.
  bool completed = true;
  if (deadline == nullptr) {
    while (!shutdown_.load(std::memory_order_acquire) &&
           (!UnitSettled(*unit) || unit->stale)) {
      s.unit_cv.Wait(&s.mu);
    }
  } else {
    while (!shutdown_.load(std::memory_order_acquire) &&
           (!UnitSettled(*unit) || unit->stale)) {
      if (!s.unit_cv.WaitUntil(&s.mu, *deadline)) {
        // Timed out: one final predicate check under the re-held lock.
        completed = shutdown_.load(std::memory_order_acquire) ||
                    (UnitSettled(*unit) && !unit->stale);
        break;
      }
    }
  }
  blocked_waiters_.fetch_sub(1, std::memory_order_relaxed);
  --unit->waiters;
  if (!completed) {
    return DeadlineExceededError(
        StrCat("unit ", unit->name, " not ready before the deadline (state ",
               UnitStateName(unit->state), ")"));
  }
  if (unit->state == UnitState::kReady && !unit->stale) return Status::Ok();
  if (unit->state == UnitState::kFailed) return unit->error;
  if (unit->state == UnitState::kDeleted) {
    return NotFoundError(StrCat("unit ", unit->name, " was deleted"));
  }
  return AbortedError("database is shutting down");
}

Gbo::Unit* Gbo::FindUnitLocked(Shard& s, const std::string& unit_name) const {
  auto it = s.units.find(unit_name);
  return it == s.units.end() ? nullptr : it->second.get();
}

bool Gbo::IsLive(const Unit* unit) {
  return unit != nullptr && unit->state != UnitState::kDeleted &&
         unit->state != UnitState::kFailed;
}

void Gbo::ResetForLoadLocked(Shard& s, Unit* unit, ReadFn read_fn) {
  (void)s;  // present for the REQUIRES(s.mu) contract
  unit->read_fn = std::move(read_fn);
  unit->state = UnitState::kQueued;
  unit->error = Status::Ok();
  unit->ready_seq = -1;
  unit->lru_seq = -1;
  unit->refcount = 0;
  unit->finished = false;
  unit->attempt = 0;
  unit->cancel_requested = false;
  unit->stale = false;
  unit->pending_read_fn = nullptr;
  unit->pending_resources.clear();
}

Gbo::Unit* Gbo::EmplaceUnitLocked(Shard& s, const std::string& unit_name,
                                  ReadFn read_fn) {
  auto [it, inserted] = s.units.try_emplace(unit_name);
  if (inserted) {
    it->second = std::make_unique<Unit>();
    it->second->name = unit_name;
    it->second->shard_index = ShardIndexOfUnitName(unit_name);
  }
  Unit* unit = it->second.get();
  // Every (re)publish of a name is a new staleness epoch.
  ++unit->epoch;
  ResetForLoadLocked(s, unit, std::move(read_fn));
  return unit;
}

Gbo::Unit* Gbo::AddUnitLocked(Shard& s, const std::string& unit_name,
                              ReadFn read_fn,
                              std::vector<std::string> resources) {
  Unit* unit = EmplaceUnitLocked(s, unit_name, std::move(read_fn));
  unit->resources = std::move(resources);
  ++counters_.units_added;
  QueueUnitLocked(unit, /*queued=*/false, /*blocked=*/false);
  return unit;
}

// ---------------------------------------------------------------------
// Public unit interfaces.

Status Gbo::AddUnit(const std::string& unit_name, ReadFn read_fn) {
  return AddUnit(unit_name, std::move(read_fn), {});
}

Status Gbo::AddUnit(const std::string& unit_name, ReadFn read_fn,
                    std::vector<std::string> resources) {
  if (unit_name.empty()) return InvalidArgumentError("unit name is empty");
  if (!read_fn) return InvalidArgumentError("read function is null");
  Shard& s = ShardOfUnitName(unit_name);
  {
    MutexLock lock(&mu_);
    MutexLock shard_lock(&s.mu);
    if (IsLive(FindUnitLocked(s, unit_name))) {
      return AlreadyExistsError(StrCat("unit already added: ", unit_name));
    }
    AddUnitLocked(s, unit_name, std::move(read_fn), std::move(resources));
  }
  CheckInvariantsDebug();
  return Status::Ok();
}

Status Gbo::ReadUnit(const std::string& unit_name, ReadFn read_fn) {
  return AcquireUnit(unit_name, &read_fn, nullptr);
}

Status Gbo::ReadUnitFor(const std::string& unit_name, ReadFn read_fn,
                        Duration timeout) {
  TimePoint deadline = Now() + timeout;
  return AcquireUnit(unit_name, &read_fn, &deadline);
}

Status Gbo::WaitUnit(const std::string& unit_name) {
  return AcquireUnit(unit_name, nullptr, nullptr);
}

Status Gbo::WaitUnitFor(const std::string& unit_name, Duration timeout) {
  TimePoint deadline = Now() + timeout;
  return AcquireUnit(unit_name, nullptr, &deadline);
}

Status Gbo::AcquireUnit(const std::string& unit_name, ReadFn* read_fn,
                        const TimePoint* deadline) NO_THREAD_SAFETY_ANALYSIS {
  if (read_fn != nullptr && unit_name.empty()) {
    return InvalidArgumentError("unit name is empty");
  }
  Shard& s = ShardOfUnitName(unit_name);
  // WaitUnit's answer for a unit that is not live.
  auto not_waitable = [&unit_name](const Unit* unit) {
    return unit == nullptr || unit->state == UnitState::kDeleted
               ? NotFoundError(StrCat("no unit named ", unit_name))
               : unit->error;
  };

  // Hot path: the unit is resident — one shard lock, no mu_, no queue or
  // memory work.
  {
    MutexLock shard_lock(&s.mu);
    Unit* resident = FindUnitLocked(s, unit_name);
    if (PinCacheHitLocked(s, resident)) return Status::Ok();
    if (read_fn == nullptr && !IsLive(resident)) {
      return not_waitable(resident);
    }
  }

  // Slow path: the global lock first (queue moves, inline loads and the
  // memory budget need it), then the shard lock; re-check under both.
  mu_.Lock();
  s.mu.Lock();
  Unit* unit = FindUnitLocked(s, unit_name);
  const bool load_fresh = !IsLive(unit);
  if (PinCacheHitLocked(s, unit) ||
      (load_fresh && (read_fn == nullptr || !*read_fn))) {
    // A cache hit raced in between the two lookups, or there is nothing
    // to wait for (WaitUnit) or to load with (a null read function).
    Status early = !load_fresh          ? Status::Ok()
                   : read_fn == nullptr ? not_waitable(unit)
                                        : InvalidArgumentError(
                                              "read function is null");
    s.mu.Unlock();
    mu_.Unlock();
    return early;
  }

  Stopwatch stopwatch;
  Status status;
  std::optional<WatchEvent> settled;  // raised once no Gbo lock is held
  if (load_fresh ||
      (unit->state == UnitState::kQueued && !options_.background_io)) {
    // A fresh (or previously deleted/failed) unit is read on the calling
    // thread; so is a queued one in the single-thread library (paper
    // §4.2: the read happens inside the wait).
    if (load_fresh) {
      unit = EmplaceUnitLocked(s, unit_name, std::move(*read_fn));
    }
    status = LoadInlineAndLock(s, unit, deadline, &settled);  // exit: s.mu
    if (!settled) {
      // A publish superseded the unit while our inline load ran: discard
      // this epoch's result, install the pending version, and wait for
      // its reload (SupersedeUnit requires background_io, so a pool
      // thread will pick it up).
      s.mu.Unlock();
      HandleStaleSettle(s, unit);
      mu_.Lock();
      s.mu.Lock();
    }
  }
  if (!settled) {
    // Queued (with a pool) or already loading: a demand miss.
    if (unit->state == UnitState::kQueued) {
      QueueUnitLocked(unit, /*queued=*/true, /*blocked=*/true);
    }
    mu_.Unlock();
    status = AwaitReadyLocked(s, unit, deadline);  // s.mu held throughout
  }
  // s.mu has been held continuously since the terminal state was
  // observed, so the pin cannot race an eviction.
  if (status.ok()) PinLocked(s, unit);
  s.mu.Unlock();
  if (settled) NotifyWatchers(*settled);
  visible_io_time_.Add(stopwatch.Elapsed());
  CheckInvariantsDebug();
  return status;
}

Status Gbo::FinishUnit(const std::string& unit_name) {
  Shard& s = ShardOfUnitName(unit_name);
  Unit* drained_stale = nullptr;
  {
    MutexLock shard_lock(&s.mu);
    Unit* unit = FindUnitLocked(s, unit_name);
    if (unit == nullptr || unit->state == UnitState::kDeleted) {
      return NotFoundError(StrCat("no unit named ", unit_name));
    }
    if (unit->state != UnitState::kReady) {
      return FailedPreconditionError(
          StrCat("unit ", unit_name, " is not ready (state ",
                 UnitStateName(unit->state), ")"));
    }
    if (unit->refcount > 0) --unit->refcount;
    unit->finished = true;
    if (unit->refcount == 0) {
      if (unit->stale) {
        // The last pin of a superseded version just drained: the old data
        // must not enter the cache — it converts to the pending publish's
        // reload instead (below, outside the shard-only fast path).
        drained_stale = unit;
      } else {
        MakeEvictableLocked(s, unit);
      }
    }
  }
  if (drained_stale != nullptr) HandleStaleSettle(s, drained_stale);
  // A memory-gated I/O thread waits on mu_, which the shard-only path
  // above never takes, so its NotifyAll can be lost. Deliver the wakeup
  // under mu_ (shard lock released first — mu_ ranks below it) so the
  // prefetch pipeline resumes at notify latency, not the gate's poll
  // interval. Skipped in the common ungated case to keep this path
  // global-lock-free.
  if (memory_gate_waiters_.load(std::memory_order_relaxed) > 0) {
    MutexLock lock(&mu_);
    memory_cv_.NotifyAll();
  }
  CheckInvariantsDebug();
  return Status::Ok();
}

Status Gbo::DeleteUnit(const std::string& unit_name)
    NO_THREAD_SAFETY_ANALYSIS {
  Shard& s = ShardOfUnitName(unit_name);
  for (;;) {
    mu_.Lock();
    s.mu.Lock();
    Unit* unit = FindUnitLocked(s, unit_name);
    if (unit == nullptr || unit->state == UnitState::kDeleted) {
      s.mu.Unlock();
      mu_.Unlock();
      return NotFoundError(StrCat("no unit named ", unit_name));
    }
    if (unit->state == UnitState::kLoading) {
      if (!unit->in_backoff) {
        s.mu.Unlock();
        mu_.Unlock();
        return FailedPreconditionError(
            StrCat("unit ", unit_name, " is currently loading"));
      }
      // The read function is not running; the loader is sleeping out a
      // retry backoff. Cancel it and wait for the loader to acknowledge
      // (it wakes immediately and fails the unit with its last error).
      // mu_ is dropped for the wait — the loader may need it to settle.
      unit->cancel_requested = true;
      s.unit_cv.NotifyAll();
      mu_.Unlock();
      while (!shutdown_.load(std::memory_order_acquire) &&
             unit->state == UnitState::kLoading) {
        s.unit_cv.Wait(&s.mu);
      }
      unit->cancel_requested = false;
      if (unit->state == UnitState::kLoading) {
        s.mu.Unlock();
        return AbortedError("database is shutting down");
      }
      if (unit->state == UnitState::kDeleted) {
        s.mu.Unlock();
        return Status::Ok();  // raced with another delete
      }
      // Settled (usually kFailed): retry the delete from the top with
      // both locks so the eviction sees a stable state.
      s.mu.Unlock();
      continue;
    }
    EvictUnitLocked(s, unit, /*explicit_delete=*/true);  // releases s.mu
    mu_.Unlock();
    CheckInvariantsDebug();
    return Status::Ok();
  }
}

Status Gbo::SetMemSpace(int64_t bytes) {
  if (bytes < 0) return InvalidArgumentError("negative memory limit");
  {
    MutexLock lock(&mu_);
    memory_limit_.store(bytes, std::memory_order_relaxed);
    EvictToLimitLocked();
  }
  memory_cv_.NotifyAll();
  CheckInvariantsDebug();
  return Status::Ok();
}

// ---------------------------------------------------------------------
// By-name unit getters (shard lock only).

template <typename R, typename ReadField>
R Gbo::ReadUnitField(const std::string& unit_name, ReadField read) const {
  Shard& s = ShardOfUnitName(unit_name);
  MutexLock shard_lock(&s.mu);
  const Unit* unit = FindUnitLocked(s, unit_name);
  if (unit == nullptr) return NotFoundError(StrCat("no unit named ", unit_name));
  return read(*unit);
}

Result<UnitState> Gbo::GetUnitState(const std::string& unit_name) const {
  return ReadUnitField<Result<UnitState>>(
      unit_name, [](const Unit& unit) { return unit.state; });
}

Result<int64_t> Gbo::UnitMemoryBytes(const std::string& unit_name) const {
  return ReadUnitField<Result<int64_t>>(
      unit_name, [](const Unit& unit) { return unit.memory_bytes; });
}

Status Gbo::GetUnitError(const std::string& unit_name) const {
  return ReadUnitField<Status>(unit_name,
                               [](const Unit& unit) { return unit.error; });
}

Result<int64_t> Gbo::GetUnitEpoch(const std::string& unit_name) const {
  return ReadUnitField<Result<int64_t>>(
      unit_name, [](const Unit& unit) { return unit.epoch; });
}

Result<std::vector<Record*>> Gbo::RecordsInUnit(const std::string& unit_name) {
  return ReadUnitField<Result<std::vector<Record*>>>(
      unit_name, [](const Unit& unit) { return unit.records; });
}

Gbo::UnitProbe Gbo::ProbeUnitForPlan(const std::string& unit_name) {
  Shard& s = ShardOfUnitName(unit_name);
  MutexLock shard_lock(&s.mu);
  Unit* unit = FindUnitLocked(s, unit_name);
  if (unit == nullptr) return UnitProbe::kAbsent;
  // Mirror the ReadUnit hot path: pin under the single shard lock and
  // count the hit, with no queue round-trip.
  if (PinCacheHitLocked(s, unit)) return UnitProbe::kResident;
  switch (unit->state) {
    case UnitState::kReady:  // stale: the reload settles on its own, so
                             // the planner should wait, not pin old data
    case UnitState::kQueued:
    case UnitState::kLoading:
      return UnitProbe::kInFlight;
    case UnitState::kFailed:
    case UnitState::kDeleted:
      return UnitProbe::kAbsent;
  }
  return UnitProbe::kAbsent;
}

// ---------------------------------------------------------------------
// Background I/O pool.

Gbo::Unit* Gbo::FindBlockedQueuedUnitLocked() {
  for (std::deque<Unit*>* queue : {&demand_queue_, &prefetch_queue_}) {
    for (Unit* unit : *queue) {
      Shard& s = *shards_[unit->shard_index];
      MutexLock shard_lock(&s.mu);
      if (unit->waiters > 0 && unit->state == UnitState::kQueued) {
        return unit;
      }
    }
  }
  return nullptr;
}

Gbo::WatchEvent Gbo::ResolveDeadlockLocked(Unit* unit) {
  // Invariant on entry: memory is exhausted, nothing is evictable, and an
  // application thread is blocked waiting for `unit`, which is still
  // queued. The blocked thread cannot free memory (it would have to call
  // Finish/DeleteUnit), so prefetching can never proceed: fail the unit to
  // wake its waiters (paper §3.3 — this happens "when developers neglect
  // to delete processed units or mark those units finished").
  RemoveFromQueuesLocked(unit);
  Status error = AbortedError(StrCat(
      "GODIVA deadlock detected: cannot prefetch unit ", unit->name,
      " — database memory is exhausted (",
      FormatBytes(memory_used_.load(std::memory_order_relaxed)), " used of ",
      FormatBytes(memory_limit_.load(std::memory_order_relaxed)),
      ") and no finished units are evictable"));
  Shard& s = *shards_[unit->shard_index];
  WatchEvent failed;
  {
    MutexLock shard_lock(&s.mu);
    failed = SettleUnitLocked(s, unit, error);
  }
  ++counters_.deadlocks_detected;
  GODIVA_LOG(kError) << error.message();
  return failed;
}

void Gbo::IoThreadMain(size_t thread_index) NO_THREAD_SAFETY_ANALYSIS {
  mu_.Lock();
  while (!shutdown_.load(std::memory_order_acquire)) {
    while (!shutdown_.load(std::memory_order_acquire) &&
           demand_queue_.empty() && prefetch_queue_.empty()) {
      queue_cv_.Wait(&mu_);
    }
    if (shutdown_.load(std::memory_order_acquire)) break;

    // Memory gate: prefetch only while there is room to hold more data
    // (paper §3.2). Eviction and deadlock detection happen here. With a
    // pool, deadlock is declared only once every thread is idle: a load in
    // flight on a sibling thread may still free memory indirectly (its
    // consumer finishes and deletes units), so it is not a deadlock yet.
    if (memory_used_.load(std::memory_order_relaxed) >=
        memory_limit_.load(std::memory_order_relaxed)) {
      if (EvictOneLocked()) continue;  // re-evaluate with freed memory
      if (loads_in_flight_ == 0) {
        if (Unit* blocked = FindBlockedQueuedUnitLocked()) {
          WatchEvent failed = ResolveDeadlockLocked(blocked);
          // Watchers are notified with no Gbo lock held.
          mu_.Unlock();
          NotifyWatchers(failed);
          mu_.Lock();
          continue;
        }
      }
      // FinishUnit makes units evictable under only a shard lock; the
      // waiter count below makes it re-take mu_ to deliver the wakeup,
      // and the bounded wait self-heals the residual register-vs-notify
      // race (finisher reads the count between our eviction attempt and
      // the increment).
      memory_gate_waiters_.fetch_add(1, std::memory_order_relaxed);
      // lint: discard_ok(bounded poll: timeout and wakeup both re-evaluate
      // the full predicate set on the next loop iteration)
      (void)memory_cv_.WaitUntil(&mu_, Now() +
                                           std::chrono::milliseconds(10));
      memory_gate_waiters_.fetch_sub(1, std::memory_order_relaxed);
      continue;  // re-evaluate everything (shutdown, queue, memory)
    }

    Unit* unit = PopNextQueuedLocked();
    if (unit == nullptr) continue;
    Shard& s = *shards_[unit->shard_index];
    std::optional<WatchEvent> short_circuited;
    {
      MutexLock shard_lock(&s.mu);
      if (unit->state != UnitState::kQueued) continue;  // raced with delete
      // Circuit breaker: a unit over a quarantined file fails fast — the
      // prefetcher never spends an I/O slot (or a retry budget) on it.
      if (const std::string* quarantined =
              QuarantinedResourceLocked(*unit)) {
        short_circuited = ShortCircuitUnitLocked(s, unit, *quarantined);
      } else {
        unit->state = UnitState::kLoading;
      }
    }
    if (short_circuited) {
      mu_.Unlock();
      NotifyWatchers(*short_circuited);
      mu_.Lock();
      continue;
    }
    ++loads_in_flight_;
    Stopwatch busy;
    mu_.Unlock();

    // Retries and rollback of partial loads happen inside; backoff sleeps
    // are interrupted by shutdown and DeleteUnit. No Gbo lock is held
    // around the read-function attempts, so pool siblings keep draining
    // queues and client threads keep hitting their shards.
    Status status = ExecuteRead(s, unit, /*deadline=*/nullptr,
                                /*on_io_thread=*/true);

    // Completion path (ISSUE 5): only the landed unit's shard lock is
    // taken to settle it. A load that was superseded mid-flight stays
    // kLoading and converts to the pending publish instead — its result
    // (success or failure) belongs to a dead epoch.
    std::optional<WatchEvent> settled;
    {
      MutexLock shard_lock(&s.mu);
      if (!unit->stale) settled = SettleUnitLocked(s, unit, status);
    }
    if (!settled) {
      HandleStaleSettle(s, unit);
    } else {
      if (!status.ok()) {
        GODIVA_LOG(kWarning) << "prefetch of unit " << unit->name
                             << " failed: " << status;
      }
      NotifyWatchers(*settled);
    }
    CheckInvariantsDebug();

    mu_.Lock();
    --loads_in_flight_;
    io_busy_[thread_index]->Add(busy.Elapsed());
    ++counters_.units_prefetched;
    // A settled load may have freed a memory-gated sibling's wait (e.g.
    // the unit failed and rolled back) — and loads_in_flight_ changed,
    // which the deadlock gate reads.
    memory_cv_.NotifyAll();
  }
  mu_.Unlock();
}

}  // namespace godiva
