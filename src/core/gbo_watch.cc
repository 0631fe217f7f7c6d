// Gbo: the live-ingest surface (DESIGN.md §11) — the watch registry,
// SupersedeUnit (publish a new version of a unit, invalidating the cached
// one), and staleness-epoch conversion of superseded units.
//
// Locking: the watch registry lives under watch_mu_ (rank kGboWatch, above
// the shard range), but callbacks are always invoked with no Gbo lock held
// — NotifyWatchers snapshots the matching callbacks under watch_mu_ and
// runs them after releasing it, so a callback may re-enter any public
// method. Staleness transitions follow the standard mu_ → shard order.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/strings.h"
#include "core/gbo.h"

namespace godiva {

// ---------------------------------------------------------------------
// Watch registry.

int64_t Gbo::RegisterWatch(std::string glob, WatchFn fn) {
  MutexLock lock(&watch_mu_);
  int64_t id = next_watch_id_++;
  watchers_.push_back(Watcher{id, std::move(glob), std::move(fn)});
  return id;
}

Status Gbo::UnregisterWatch(int64_t watch_id) {
  MutexLock lock(&watch_mu_);
  auto pos = std::find_if(
      watchers_.begin(), watchers_.end(),
      [watch_id](const Watcher& w) { return w.id == watch_id; });
  if (pos == watchers_.end()) {
    return NotFoundError(StrCat("no watch with id ", watch_id));
  }
  watchers_.erase(pos);
  // Drain in-flight deliveries: NotifyWatchers snapshots callbacks before
  // running them lock-free, so a copy of this watch's fn may be mid-call
  // (or not yet called) on another thread. The erase above stops new
  // snapshots; waiting here guarantees the caller may free anything the
  // callback captures once we return. (This is why a callback must never
  // unregister its own watch.)
  auto running = watch_running_.find(watch_id);
  while (running != watch_running_.end() && running->second > 0) {
    watch_cv_.Wait(&watch_mu_);
    running = watch_running_.find(watch_id);
  }
  if (running != watch_running_.end()) watch_running_.erase(running);
  return Status::Ok();
}

void Gbo::NotifyWatchers(const WatchEvent& event) {
  // Snapshot the matching callbacks so they run lock-free: a callback may
  // block, take arbitrarily long, or call back into this database.
  std::vector<std::pair<int64_t, WatchFn>> matched;
  {
    MutexLock lock(&watch_mu_);
    for (const Watcher& watcher : watchers_) {
      if (GlobMatch(watcher.glob, event.unit_name)) {
        matched.emplace_back(watcher.id, watcher.fn);
      }
    }
  }
  for (const auto& [id, fn] : matched) {
    // Mark the delivery in flight only at the moment it starts, re-checking
    // registration first: a watch unregistered since the snapshot is skipped
    // outright, so UnregisterWatch's drain waits only on callbacks that are
    // actually running — never on deliveries queued behind an unrelated
    // watch earlier in this loop (that would deadlock a caller who holds a
    // lock the earlier callback wants).
    {
      MutexLock lock(&watch_mu_);
      const int64_t watch_id = id;
      auto pos = std::find_if(
          watchers_.begin(), watchers_.end(),
          [watch_id](const Watcher& w) { return w.id == watch_id; });
      if (pos == watchers_.end()) continue;
      ++watch_running_[id];
    }
    fn(event);
    watch_notifications_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(&watch_mu_);
    if (--watch_running_[id] == 0) watch_cv_.NotifyAll();
  }
}

// ---------------------------------------------------------------------
// Staleness conversion: a superseded unit becomes a fresh kQueued load of
// its pending read function once nothing holds its old version anymore.

// Entry: mu_ and s.mu held. Exit: only mu_ held (the record purge locks
// key shards, so s.mu must be free — same shape as EvictUnitLocked).
void Gbo::RequeueStaleUnitLocked(Shard& s, Unit* unit) {
  std::vector<Record*> victims;
  victims.swap(unit->records);
  int64_t freed = unit->memory_bytes;
  unit->memory_bytes = 0;
  unit->resources = std::move(unit->pending_resources);
  ResetForLoadLocked(s, unit, std::move(unit->pending_read_fn));
  // A thread already blocked on the new version makes this a demand miss.
  QueueUnitLocked(unit, /*queued=*/false, /*blocked=*/unit->waiters > 0);
  s.mu.Unlock();
  ReleaseRecordsLocked(victims, freed);
}

void Gbo::HandleStaleSettle(Shard& s, Unit* unit)
    NO_THREAD_SAFETY_ANALYSIS {
  // Re-check staleness under the standard lock order: a concurrent
  // DeleteUnit may have evicted the unit (clearing `stale`, cancelling
  // the pending publish along with the unit), or a sibling caller may
  // have converted it already — in either case this call is a no-op. The
  // records purge happens under the same acquisition, so it can never
  // outlive the staleness it belongs to and claw back a fresh reload.
  mu_.Lock();
  s.mu.Lock();
  if (!unit->stale) {
    s.mu.Unlock();
    mu_.Unlock();
    return;
  }
  RequeueStaleUnitLocked(s, unit);  // drops the old records; exits mu_-only
  mu_.Unlock();
}

// ---------------------------------------------------------------------
// SupersedeUnit.

Status Gbo::SupersedeUnit(const std::string& unit_name, ReadFn read_fn,
                          std::vector<std::string> resources)
    NO_THREAD_SAFETY_ANALYSIS {
  if (unit_name.empty()) return InvalidArgumentError("unit name is empty");
  if (!read_fn) return InvalidArgumentError("read function is null");
  if (!options_.background_io) {
    return FailedPreconditionError(
        "SupersedeUnit requires background_io: the superseded unit is "
        "reloaded by the I/O pool");
  }
  Shard& s = ShardOfUnitName(unit_name);
  bool invalidated = false;       // a live unit was superseded
  bool convert_now = false;       // …and nothing pins it: requeue here
  mu_.Lock();
  s.mu.Lock();
  Unit* unit = FindUnitLocked(s, unit_name);
  if (!IsLive(unit)) {
    // No live version: behaves like AddUnit (a failed unit's next epoch
    // simply starts queued; its terminal error is reset).
    unit = AddUnitLocked(s, unit_name, std::move(read_fn),
                         std::move(resources));
  } else {
    ++unit->epoch;
    switch (unit->state) {
      case UnitState::kQueued:
        // Not started: swap the publish in place. IoThreadMain holds mu_
        // continuously from queue pop to the kLoading transition, so a
        // kQueued unit observed under mu_ cannot be mid-dequeue.
        unit->read_fn = std::move(read_fn);
        unit->resources = std::move(resources);
        break;
      case UnitState::kReady:
      case UnitState::kLoading:
        // Invalidate the live version. Pins that already hold the old
        // data keep it until they FinishUnit; new readers wait for the
        // reload; an in-flight load's result is discarded at settle.
        unit->stale = true;
        unit->pending_read_fn = std::move(read_fn);
        unit->pending_resources = std::move(resources);
        invalidated = true;
        ++counters_.units_invalidated;
        if (unit->state == UnitState::kReady && unit->refcount == 0) {
          // Unpinned cache entry: drop and requeue immediately. Pull it
          // out of the eviction list first so the cache policy cannot
          // race the conversion.
          auto pos =
              std::find(s.evictable.begin(), s.evictable.end(), unit);
          if (pos != s.evictable.end()) s.evictable.erase(pos);
          convert_now = true;
        } else if (unit->in_backoff) {
          // Wake the backoff sleep: retrying the old epoch is pointless.
          s.unit_cv.NotifyAll();
        }
        break;
      case UnitState::kFailed:
      case UnitState::kDeleted:
        break;  // unreachable: handled by the fresh-publish branch
    }
  }
  ++counters_.units_superseded;
  const int64_t epoch = unit->epoch;
  s.mu.Unlock();
  mu_.Unlock();
  if (convert_now) HandleStaleSettle(s, unit);
  if (invalidated) {
    NotifyWatchers(WatchEvent{unit_name, WatchEventKind::kInvalidated, epoch});
  }
  CheckInvariantsDebug();
  return Status::Ok();
}

}  // namespace godiva
