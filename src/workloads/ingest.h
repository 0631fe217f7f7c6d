// Live-ingest workload: a simulated solver writes gsdf snapshots through
// the crash-consistent tmp+rename path while visualization sessions follow
// the advancing frontier.
//
//  - IngestProducer publishes each snapshot into a Gbo with SupersedeUnit
//    as soon as its files land, under a bounded frontier-lag window:
//    consumers acknowledge snapshots they are done with, and the producer
//    blocks while the window is full (the ingest-side analogue of the
//    paper's fixed-size prefetch window).
//  - FrontierWatch is the consumer-side companion: a Gbo watch over the
//    snapshot units that tracks the ready frontier and lets a reader block
//    until a specific snapshot is loadable.
#ifndef GODIVA_WORKLOADS_INGEST_H_
#define GODIVA_WORKLOADS_INGEST_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "core/gbo.h"
#include "mesh/snapshot_writer.h"
#include "workloads/platform_runtime.h"
#include "workloads/snapshot_io.h"

namespace godiva::workloads {

struct IngestOptions {
  // Snapshot range to ingest: [start_snapshot, start_snapshot + snapshots).
  int start_snapshot = 0;
  int snapshots = 0;  // 0 → spec.num_snapshots - start_snapshot

  // Maximum published-but-unacknowledged snapshots; the producer waits
  // for an AckFinished before publishing more. 0 disables the window
  // (publish as fast as writes complete).
  int max_frontier_lag = 4;

  // Writer knobs forwarded to mesh::WriteOneSnapshot.
  bool atomic_writes = true;
  bool checksums = false;

  // Read-side options baked into the published read function.
  SnapshotReadOptions read;
  std::vector<std::string> quantities;

  // Write attempts per snapshot (a failed attempt usually means a modeled
  // crash tore the files; the producer rewrites from scratch — every file
  // of the snapshot goes through tmp+rename again).
  int max_write_attempts = 3;

  // Called after each failed write attempt with the snapshot index and the
  // error. Return false to abandon the snapshot (it is never published);
  // true to allow another attempt, subject to max_write_attempts. Tests
  // use the hook to "reboot" a crashed path (FaultInjectionEnv::
  // ClearCrashedPath) before the rewrite.
  std::function<bool(int snapshot, const Status& status)> on_write_error;
};

struct IngestStats {
  int64_t snapshots_published = 0;
  int64_t snapshots_abandoned = 0;  // write attempts exhausted, unpublished
  int64_t write_failures = 0;       // failed WriteOneSnapshot attempts
  int64_t rewrites = 0;             // successful writes that needed retries
  int64_t backpressure_stalls = 0;  // times the producer blocked on the lag
  double stall_seconds = 0;         // total time spent blocked
};

// Writes snapshots through runtime->io_env() and publishes each one into
// `db` under SnapshotUnitName(s). Run() executes on the calling thread;
// AckFinished / RequestStop / frontier / stats are safe from any thread.
class IngestProducer {
 public:
  // `runtime`, `db` and `dataset` must outlive the producer; `dataset`
  // names the files (DescribeSnapshotDataset works — the producer creates
  // the actual file contents as it runs).
  IngestProducer(PlatformRuntime* runtime, Gbo* db,
                 const mesh::SnapshotDataset* dataset, IngestOptions options);
  IngestProducer(const IngestProducer&) = delete;
  IngestProducer& operator=(const IngestProducer&) = delete;

  // Ingests the configured snapshot range in order. Returns the first
  // non-retryable error (publish failure, or a write failure on an
  // abandoned snapshot when no hook is installed), Ok when the range is
  // exhausted or RequestStop() was called.
  Status Run() EXCLUDES(mu_);

  // Consumer acknowledgement: snapshot `s` is no longer needed at its
  // current version, shrinking the frontier-lag window.
  void AckFinished(int snapshot) EXCLUDES(mu_);

  // Asks Run() to return after the in-flight snapshot completes.
  void RequestStop() EXCLUDES(mu_);

  // Highest snapshot published so far, start_snapshot - 1 before any.
  int frontier() const EXCLUDES(mu_);

  // Published-but-unacknowledged snapshot count (the current lag).
  int lag() const EXCLUDES(mu_);

  IngestStats stats() const EXCLUDES(mu_);

 private:
  // Blocks until the window has room. Returns false on stop.
  bool AwaitWindowSlot() EXCLUDES(mu_);

  // lint: unguarded(set at construction, read-only afterwards)
  PlatformRuntime* runtime_;
  // lint: unguarded(set at construction, read-only afterwards)
  Gbo* db_;
  const mesh::SnapshotDataset* dataset_;
  // lint: unguarded(set at construction, read-only afterwards)
  IngestOptions options_;
  // lint: unguarded(built at construction, read-only afterwards)
  std::vector<mesh::MeshBlock> blocks_;

  // Ranked below Gbo::mu_: Run() holds it across SupersedeUnit so that
  // publish and window bookkeeping are one critical section.
  mutable Mutex mu_{lock_rank::kIngestProducer, "IngestProducer::mu_"};
  CondVar cv_;
  bool stop_requested_ GUARDED_BY(mu_) = false;
  int frontier_ GUARDED_BY(mu_);
  std::set<int> unacked_ GUARDED_BY(mu_);
  IngestStats stats_ GUARDED_BY(mu_);
};

// Consumer-side frontier tracking over a Gbo watch. Registers a watch on
// snapshot units at construction and unregisters at destruction.
class FrontierWatch {
 public:
  explicit FrontierWatch(Gbo* db);
  ~FrontierWatch();
  FrontierWatch(const FrontierWatch&) = delete;
  FrontierWatch& operator=(const FrontierWatch&) = delete;

  // Blocks until snapshot `s` has settled ready and not been invalidated
  // since (a rewrite in progress keeps the wait alive until the new
  // version lands). DEADLINE_EXCEEDED on timeout.
  Status WaitForSnapshot(int snapshot, Duration timeout) EXCLUDES(mu_);

  // Highest snapshot observed ready so far (high-water mark), -1 before
  // any.
  int frontier() const EXCLUDES(mu_);

  // Event counters (ready includes re-publishes of the same snapshot).
  int64_t ready_events() const EXCLUDES(mu_);
  int64_t invalidations() const EXCLUDES(mu_);
  int64_t failures() const EXCLUDES(mu_);

 private:
  void OnEvent(const Gbo::WatchEvent& event) EXCLUDES(mu_);
  bool ReadyLocked(int snapshot) const REQUIRES(mu_);

  // lint: unguarded(set at construction, read-only afterwards)
  Gbo* db_;
  // lint: unguarded(written once in the constructor, read in ~FrontierWatch)
  int64_t watch_id_ = 0;

  // lint: unranked(leaf mutex: never held across any Gbo or Env call)
  mutable Mutex mu_;
  CondVar cv_;
  // snapshot → highest epoch seen in a kReady / kInvalidated event. Events
  // race across threads (the invalidation fires on the producer's thread,
  // the ready on an I/O thread), so readiness is an epoch comparison —
  // ready at epoch e beats an invalidation at epoch ≤ e — rather than
  // arrival order.
  std::map<int, int64_t> ready_ GUARDED_BY(mu_);
  std::map<int, int64_t> invalidated_ GUARDED_BY(mu_);
  int frontier_ GUARDED_BY(mu_) = -1;
  int64_t ready_events_ GUARDED_BY(mu_) = 0;
  int64_t invalidations_ GUARDED_BY(mu_) = 0;
  int64_t failures_ GUARDED_BY(mu_) = 0;
};

}  // namespace godiva::workloads

#endif  // GODIVA_WORKLOADS_INGEST_H_
