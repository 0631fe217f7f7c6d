// GboSession — one client's handle onto a shared Gbo, mediated by a
// GboServer (DESIGN.md §13). A session carries a key-namespace view (it
// can only touch units under its prefix), a priority class, and quotas
// (pinned bytes, queued demand reads, in-flight loads). Demand reads go
// through the server's admission gate and weighted deficit-round-robin
// scheduler; prefetches are speculative tickets the server may shed under
// memory pressure; Close() (or destruction) releases every pin, cancels
// queued work, and unregisters every watch the session took out, so a
// killed client cannot leak server state.
#ifndef GODIVA_CORE_SESSION_H_
#define GODIVA_CORE_SESSION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/gbo.h"

namespace godiva {

class GboServer;

// Scheduling class of a session. Interactive demand is the last work shed
// under pressure and receives the largest deficit-round-robin quantum;
// background work is shed first and served last.
enum class PriorityClass {
  kInteractive = 0,
  kBatch = 1,
  kBackground = 2,
};

std::string_view PriorityClassName(PriorityClass priority);

struct SessionConfig {
  // For logs, the dispatch trace and stats; defaults to "session-<id>".
  std::string name;

  PriorityClass priority = PriorityClass::kBatch;

  // Key-namespace view: every unit name (and watch glob) the session
  // touches must start with this prefix. "" = the whole database.
  std::string unit_namespace;

  // Per-session quotas. 0 = unlimited.
  int64_t max_pinned_bytes = 0;  // admission rejects demand reads while the
                                 // session holds at least this many bytes
                                 // pinned; the critical-pressure ladder
                                 // force-unpins idle sessions past it
  int max_queued_demand = 16;    // tickets waiting for a grant: stack
                                 // reads and batch tickets together
  int max_inflight_loads = 4;    // granted demand reads not yet settled
};

// Per-session observability, assembled by GboSession::stats(): scheduler
// counters maintained by the server plus demand-latency percentiles from
// the session's sample ring.
struct SessionStats {
  std::string name;
  PriorityClass priority = PriorityClass::kBatch;

  int64_t reads_admitted = 0;    // demand reads granted a dispatch slot
  int64_t reads_queued = 0;      // granted reads that first had to wait
  int64_t reads_rejected = 0;    // refused by pressure-based admission
  int64_t quota_rejections = 0;  // refused by this session's own quotas
  double stall_seconds = 0;      // total time demand tickets spent waiting

  int64_t prefetches_requested = 0;
  int64_t prefetches_dispatched = 0;  // handed to Gbo::AddUnit
  int64_t prefetches_shed = 0;        // queued tickets cancelled by the
                                      // shed ladder (or Close)
  int64_t demand_shed = 0;            // queued demand or batch tickets
                                      // cancelled or withdrawn
  int64_t forced_unpins = 0;          // pins released by the critical-
                                      // pressure ladder

  // Demand read latency over the retained sample window (milliseconds,
  // successful reads only).
  int64_t demand_samples = 0;
  double demand_p50_ms = 0;
  double demand_p99_ms = 0;

  // Current pin footprint.
  int64_t pinned_bytes = 0;
  int pinned_units = 0;

  // Batch-query lane (core/query.h): planned batch tickets submitted by
  // the query planner and how many were granted a dispatch slot.
  int64_t batch_submitted = 0;
  int64_t batch_granted = 0;

  // Demand tickets waiting for a grant right now (a gauge, not a counter).
  int queued_demand = 0;
  // Batch tickets waiting for a grant right now (a gauge, not a counter).
  int queued_batch = 0;
};

// One planned batch load the query planner hands to the serving layer:
// the ticket's read function executes a whole per-file batch plan through
// gsdf::Reader::ReadBatch when the scheduler grants it a dispatch slot.
struct SessionBatchRequest {
  std::string unit_name;
  Gbo::ReadFn read_fn;
  std::vector<std::string> resources;
};

// A session handle returned by GboServer::OpenSession. Thread safe; the
// server (and the Gbo behind it) must outlive the handle.
class GboSession {
 public:
  ~GboSession();
  GboSession(const GboSession&) = delete;
  GboSession& operator=(const GboSession&) = delete;

  int64_t id() const { return id_; }
  const SessionConfig& config() const { return config_; }

  // Blocking demand read through the server's admission gate and fair
  // scheduler. Pins the unit on success (pair with Finish). Typed
  // failures: RESOURCE_EXHAUSTED (rejected by pressure or quota),
  // ABORTED (session closed / server shut down while queued),
  // FAILED_PRECONDITION (session already closed), INVALID_ARGUMENT
  // (outside the session namespace), plus whatever the read itself
  // returns.
  Status Read(const std::string& unit_name, Gbo::ReadFn read_fn);

  // Read with a deadline covering both the grant wait and the read:
  // DEADLINE_EXCEEDED if the ticket is still queued (it is withdrawn) or
  // the read times out.
  Status ReadFor(const std::string& unit_name, Gbo::ReadFn read_fn,
                 Duration timeout);

  // Non-blocking speculative prefetch ticket. The server dispatches it to
  // Gbo::AddUnit when the scheduler reaches it and memory pressure
  // allows; under pressure queued tickets are shed silently (visible in
  // stats). RESOURCE_EXHAUSTED when refused outright.
  Status Prefetch(const std::string& unit_name, Gbo::ReadFn read_fn);

  // Releases one pin taken by a successful Read.
  Status Finish(const std::string& unit_name);

  // Namespace-checked watch registration, tracked by the server so Close
  // cannot leak it. The glob must start with the session's namespace
  // prefix. Returns the watch id for Unwatch.
  Result<int64_t> Watch(const std::string& glob, Gbo::WatchFn fn);
  Status Unwatch(int64_t watch_id);

  // --- Batch-query lane (QueryPlanner, DESIGN.md §15). One Submit()
  // becomes one demand-class DRR ticket per planned batch; admission is
  // all-or-nothing so quota is accounted per plan, and the grant wait is
  // decoupled from the caller (SubmitBatchSet returns immediately;
  // AwaitBatchSettle blocks until the named batch's unit settles).

  // Queues one demand-lane ticket per request without blocking. The whole
  // set is admitted or rejected atomically against this session's quotas
  // (queued-demand, pinned-bytes) and the pressure ladder, with the same
  // typed Statuses as Read. Requires the Gbo to run a background I/O pool
  // (the grant path hands units to it); FAILED_PRECONDITION otherwise.
  // Every unit name must be inside the session namespace.
  Status SubmitBatchSet(std::vector<SessionBatchRequest> batches);

  // Blocks until the named batch ticket's unit settles (ready or failed),
  // returning the settle status. DEADLINE_EXCEEDED if `deadline` (may be
  // null) passes first — a still-queued ticket is then withdrawn,
  // releasing its quota; a granted one settles on its own. NOT_FOUND if
  // no such ticket was submitted (or its result was already consumed).
  Status AwaitBatchSettle(const std::string& unit_name,
                          const TimePoint* deadline);

  // Withdraws a still-queued batch ticket, releasing its quota.
  // NOT_FOUND if it was already granted, settled, or never submitted.
  Status WithdrawBatch(const std::string& unit_name);

  // Records a pin the query executor took directly on the Gbo (probe hit
  // or post-settle WaitUnit) into this session's pin accounting, so
  // Finish() and the pinned-bytes quota see it. `elapsed_ms` feeds the
  // demand-latency sample ring.
  Status AdoptPlanPin(const std::string& unit_name, double elapsed_ms);

  // True iff `name` is inside this session's namespace view (the check
  // every read/watch entry point applies; exposed for the planner).
  bool InNamespaceView(const std::string& name) const;

  // Cancels queued demand and prefetch tickets (blocked Read callers
  // return ABORTED), waits for in-flight reads to settle, releases every
  // pin, and unregisters every watch. Idempotent; called by the
  // destructor.
  void Close();
  bool closed() const;

  SessionStats stats() const EXCLUDES(mu_);

 private:
  friend class GboServer;

  GboSession(GboServer* server, int64_t id, SessionConfig config);

  // Shared body of Read/ReadFor. `deadline` may be null.
  Status ReadInternal(const std::string& unit_name, Gbo::ReadFn read_fn,
                      const TimePoint* deadline);

  // OK iff `name` is inside this session's namespace view; otherwise
  // INVALID_ARGUMENT naming `what` ("unit", "watch glob") and `name`.
  Status CheckNamespace(const std::string& name, std::string_view what) const;

  // Called by the server (under its lock) when a demand read settles
  // successfully: appends to the latency sample ring.
  void RecordDemandLatency(double ms) EXCLUDES(mu_);

  // Fills the latency fields of `stats` from the sample ring.
  void FillLatency(SessionStats* stats) const EXCLUDES(mu_);

  // lint: unguarded(set at construction, read-only afterwards)
  GboServer* server_;
  // lint: unguarded(set at construction, read-only afterwards)
  const int64_t id_;
  const SessionConfig config_;

  // Demand-latency sample ring. Ranked below Gbo::mu_ and above
  // GboServer::mu_: the server pushes samples and assembles stats while
  // holding its own lock; this lock is never held across a server or Gbo
  // call.
  mutable Mutex mu_{lock_rank::kGboSession, "GboSession::mu_"};
  std::vector<double> samples_ GUARDED_BY(mu_);
  int64_t samples_seen_ GUARDED_BY(mu_) = 0;
};

}  // namespace godiva

#endif  // GODIVA_CORE_SESSION_H_
