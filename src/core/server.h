// GboServer — the multi-session serving layer over one shared Gbo
// (DESIGN.md §13). Many concurrent clients (GboSession handles) share the
// cache and I/O pool; the server contributes what the single-tenant Gbo
// cannot:
//
//  - Admission control: session opens and demand reads are admitted or
//    rejected with typed Statuses from the aggregate memory-pressure
//    state (the ladder's fractions are constants in server.cc).
//  - Fairness: demand grants and prefetch dispatches are scheduled by
//    weighted deficit round-robin across sessions (quantum per priority
//    class), over a two-level queue — demand tickets always before
//    speculative prefetch, mirroring the Gbo's own demand promotion — so
//    a background flood cannot starve interactive reads.
//  - Graceful degradation: under sustained pressure the shed ladder runs
//    lowest-priority-first — stop feeding prefetch, cancel queued
//    prefetch tickets, reject background (then batch) demand, finally
//    force-unpin idle sessions past their pin budget — instead of letting
//    the shared LRU thrash.
//  - Lifecycle robustness: a session that dies mid-read releases its
//    pins, cancels its queued tickets and leaks no watch registrations.
//
// Locking: mu_ (rank kGboServer, below every Gbo lock) guards the session
// table, ticket queues, scheduler and pressure state, and is deliberately
// held across blocking Gbo calls on the dispatch and shed paths (AddUnit,
// FinishUnit) — legal because it ranks below Gbo::mu_. The per-session
// latency rings hang off GboSession::mu_ (rank kGboSession), taken under
// mu_ but never the other way around.
#ifndef GODIVA_CORE_SERVER_H_
#define GODIVA_CORE_SERVER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/gbo.h"
#include "core/session.h"

namespace godiva {

struct ServerOptions {
  // Deficit-round-robin quantum (demand grants / prefetch dispatches per
  // scheduler round) per priority class. Clamped to >= 1.
  int weight_interactive = 8;
  int weight_batch = 2;
  int weight_background = 1;

  // Open-session cap; further OpenSession calls get RESOURCE_EXHAUSTED.
  // 0 = unlimited.
  int max_sessions = 0;

  // Aggregate granted-but-unsettled demand reads (the dispatch window).
  int max_inflight_demand = 8;

  // Dispatch slots of that window held back for interactive demand: a
  // non-interactive ticket is only granted while more than this many
  // slots remain free, so an interactive burst never queues behind a
  // window full of background reads (latency isolation under overload).
  // 0 disables the reserve.
  int demand_reserve_interactive = 0;

  // Aggregate prefetches handed to Gbo::AddUnit whose units have not yet
  // settled (observed through the server's own watch).
  int max_outstanding_prefetch = 16;

  // Start with dispatch paused (tickets queue but nothing is granted)
  // until ResumeDispatch — determinism tests enqueue a whole request set
  // first, then release it in one scheduling burst.
  bool start_paused = false;

  // Record the dispatch order ("session:unit" per demand grant and
  // prefetch dispatch) and the shed ladder's victims, up to kLogLimit
  // (server.cc) entries each; for tests.
  bool record_dispatch_log = false;
};

// Aggregate admission and shedding activity of one server: its open
// sessions' SessionStats counters plus every released session's, so the
// totals outlive the sessions that produced them.
struct ServerStats {
  int64_t sessions_opened = 0;
  int64_t sessions_closed = 0;
  int64_t reads_admitted = 0;   // demand reads granted a dispatch slot
  int64_t reads_queued = 0;     // granted reads that first had to wait
  int64_t reads_rejected = 0;   // refused by pressure or a session quota
  int64_t prefetches_shed = 0;  // prefetches refused, shed or cancelled
  int64_t demand_shed = 0;      // queued demand or batch tickets cancelled
  int64_t forced_unpins = 0;    // pins released by the critical ladder
};

class GboServer {
 public:
  // `db` must outlive the server; every GboSession handle must be closed
  // or destroyed before the server. The server registers one Gbo watch
  // (over "*") to observe prefetch completions; it is unregistered at
  // destruction.
  explicit GboServer(Gbo* db, ServerOptions options = ServerOptions());
  GboServer(const GboServer&) = delete;
  GboServer& operator=(const GboServer&) = delete;
  // Cancels all queued tickets (blocked readers return ABORTED) and
  // drains in-flight reads.
  ~GboServer();

  // Opens a session. RESOURCE_EXHAUSTED when the session cap is reached
  // or, for non-interactive classes, while the pressure state is
  // critical. The handle's lifetime is the session's: destroying it (or
  // calling Close) releases everything the session holds.
  Result<std::unique_ptr<GboSession>> OpenSession(SessionConfig config)
      EXCLUDES(mu_);

  // Aggregate memory-pressure admission state: the Gbo's memory usage as
  // a fraction of its limit, against the ladder constants in server.cc
  // (DESIGN.md §13).
  enum class PressureState {
    kOpen = 0,       // below kDegradeFraction: everything admitted
    kDegraded = 1,   // prefetch dispatch stops; new prefetch rejected
    kSaturated = 2,  // queued prefetch shed; background demand rejected
    kCritical = 3,   // only interactive demand; idle over-budget sessions
                     // force-unpinned
  };
  PressureState pressure_state() const;

  // Re-evaluates pressure and applies the shed ladder immediately
  // (normally it runs on every admission and dispatch edge).
  void PollPressure() EXCLUDES(mu_);

  // Dispatch gate for determinism tests: while paused, tickets accumulate
  // but nothing is granted or handed to the Gbo.
  void PauseDispatch() EXCLUDES(mu_);
  void ResumeDispatch() EXCLUDES(mu_);

  // Scheduler traces (ServerOptions::record_dispatch_log): dispatch
  // entries are "demand <session>:<unit>" / "prefetch <session>:<unit>"
  // in grant order; shed entries are "<rung> <session>:<unit>" in victim
  // order.
  std::vector<std::string> DispatchLog() const EXCLUDES(mu_);
  std::vector<std::string> ShedLog() const EXCLUDES(mu_);

  int open_sessions() const EXCLUDES(mu_);
  ServerStats stats() const EXCLUDES(mu_);
  Gbo* db() const { return db_; }
  const ServerOptions& options() const { return options_; }

 private:
  friend class GboSession;

  // A queued demand read. Lives on the requesting thread's stack; the
  // queue holds a raw pointer until grant/cancel/withdrawal, and the
  // owner never returns while the ticket is still queued.
  enum class TicketState { kWaiting, kGranted, kCancelled };
  struct Ticket {
    int64_t session_id = 0;
    std::string unit_name;
    TicketState state = TicketState::kWaiting;
    Status cancel_reason;  // set when state == kCancelled
  };

  // A queued speculative prefetch, owned by the session's queue.
  struct PrefetchTicket {
    std::string unit_name;
    Gbo::ReadFn read_fn;
  };

  // A queued batch-query load (SessionBatchRequest), owned by the
  // session's queue. Demand-class for scheduling (granted from the demand
  // window, after stack demand tickets), but the submitting thread does
  // not block on the grant: it waits in AwaitBatchSettle for the unit to
  // settle instead.
  struct BatchTicket {
    std::string unit_name;
    Gbo::ReadFn read_fn;
    std::vector<std::string> resources;
  };

  // The scheduler lanes, each with its own DRR cursor and per-session
  // deficit. Stack demand and batch tickets share the demand window.
  enum Lane { kDemandLane, kBatchLane, kPrefetchLane, kNumLanes };

  // Server-side state of one session. Members are guarded by the
  // server's mu_ (the struct has no lock of its own, like Gbo::Unit).
  struct SessionState {
    int64_t id = 0;
    SessionConfig config;
    GboSession* handle = nullptr;  // borrowed; valid until Release
    bool closed = false;

    std::deque<Ticket*> demand_q;
    std::deque<PrefetchTicket> prefetch_q;
    std::deque<BatchTicket> batch_q;
    // Settle results of batch tickets (grant failures, settles, cancel
    // reasons), consumed by AwaitBatchSettle.
    std::map<std::string, Status> batch_done;
    int deficit[kNumLanes] = {};
    int inflight = 0;  // granted demand reads not yet settled

    // unit name -> pins held / bytes charged (bytes counted once per
    // distinct unit).
    struct PinEntry {
      int pins = 0;
      int64_t bytes = 0;
    };
    std::map<std::string, PinEntry> pinned;
    int64_t pinned_bytes = 0;

    std::vector<int64_t> watch_ids;
    SessionStats counters;  // scheduler-side counters; latency filled by
                            // the session's sample ring
  };

  // --- session-facing entry points (via the GboSession friend).

  // Admission + queueing + grant wait for one demand read. On OK the
  // caller owns a dispatch slot and must report back through
  // NoteDemandResult exactly once.
  Status AwaitDemandGrant(int64_t session_id, const std::string& unit_name,
                          const TimePoint* deadline) EXCLUDES(mu_);
  // Settles a granted demand read: frees the slot, records the pin (on
  // success) and the latency sample, and re-dispatches.
  void NoteDemandResult(int64_t session_id, const std::string& unit_name,
                        const Status& result, double elapsed_ms)
      EXCLUDES(mu_);
  Status RequestPrefetch(int64_t session_id, const std::string& unit_name,
                         Gbo::ReadFn read_fn) EXCLUDES(mu_);
  // Batch-query lane (core/query.h): non-blocking all-or-nothing
  // admission of a plan's tickets, the decoupled settle wait, withdrawal
  // of still-queued tickets, and adoption of executor-taken pins into the
  // session's accounting. Semantics documented on the GboSession wrappers.
  Status SubmitBatchSet(int64_t session_id,
                        std::vector<BatchTicket> batches) EXCLUDES(mu_);
  Status AwaitBatchSettle(int64_t session_id, const std::string& unit_name,
                          const TimePoint* deadline) EXCLUDES(mu_);
  Status WithdrawBatch(int64_t session_id, const std::string& unit_name)
      EXCLUDES(mu_);
  Status AdoptPlanPin(int64_t session_id, const std::string& unit_name,
                      double elapsed_ms) EXCLUDES(mu_);
  Status FinishUnitFor(int64_t session_id, const std::string& unit_name)
      EXCLUDES(mu_);
  Result<int64_t> RegisterSessionWatch(int64_t session_id,
                                       const std::string& glob,
                                       Gbo::WatchFn fn) EXCLUDES(mu_);
  Status UnregisterSessionWatch(int64_t session_id, int64_t watch_id)
      EXCLUDES(mu_);
  // Close (idempotent) and final handle release.
  void CloseSession(int64_t session_id) EXCLUDES(mu_);
  void ReleaseSession(int64_t session_id) EXCLUDES(mu_);
  bool SessionClosed(int64_t session_id) const EXCLUDES(mu_);
  SessionStats SessionStatsFor(int64_t session_id) const EXCLUDES(mu_);

  // --- scheduler (all under mu_).

  SessionState* FindSessionLocked(int64_t session_id) REQUIRES(mu_);
  const SessionState* FindSessionLocked(int64_t session_id) const
      REQUIRES(mu_);
  int OpenSessionsLocked() const REQUIRES(mu_);
  // The session if it is open, else FAILED_PRECONDITION.
  Result<SessionState*> FindOpenSessionLocked(int64_t session_id)
      REQUIRES(mu_);
  // The one admission check for `tickets` demand-class tickets of
  // `session`: a stack read (one) or a batch set (all or nothing). Applies
  // the shed ladder, then refuses while the server shuts down, by pressure
  // rung (background from kSaturated, every class but interactive from
  // kCritical), by the session's pin budget, by its queued-demand quota
  // (stack and batch tickets share it) and by the server queue cap. `what`
  // names the request in the refusal.
  Status AdmitDemandLocked(SessionState* session, int tickets,
                           std::string_view what) REQUIRES(mu_);
  // Charges one pin of `unit_name` to `session` (its bytes once per
  // distinct unit) and records `elapsed_ms` in the session's latency ring.
  void AdoptPinLocked(SessionState* session, const std::string& unit_name,
                      double elapsed_ms) REQUIRES(mu_);
  // Withdraws `session`'s still-queued batch ticket for `unit_name`:
  // releases its quota slot, counts it shed and wakes settle waiters.
  // False if no such ticket is queued (granted, settled or never sent).
  bool WithdrawBatchLocked(SessionState* session,
                           const std::string& unit_name) REQUIRES(mu_);
  int QuantumFor(const SessionState& session) const;
  PressureState PressureStateNow() const;

  // Grants demand tickets and dispatches prefetches until the windows
  // fill or the queues drain; applies the shed ladder first. The heart
  // of the serving layer — calls Gbo::AddUnit under mu_ (rank-legal:
  // kGboServer < kGboMu).
  void DispatchLocked() REQUIRES(mu_);
  // The session whose `lane` queue is served next by weighted deficit
  // round-robin, charged one unit of its deficit. Null when every eligible
  // queue is empty. `interactive_only` restricts the scan to interactive
  // sessions (the reserve slots); the demand-window lanes also skip
  // sessions at their max_inflight_loads.
  SessionState* NextSessionLocked(Lane lane, bool interactive_only)
      REQUIRES(mu_);
  // Grants one batch ticket (the batch lane's next session) and hands its
  // unit to Gbo::AddUnit. False when no eligible ticket exists.
  bool GrantBatchLocked(bool interactive_only) REQUIRES(mu_);
  // The shed ladder for the current pressure state (DESIGN.md §13):
  // cancel queued prefetch lowest-priority-first, then force-unpin idle
  // over-budget sessions. (Demand rejection happens at admission.)
  void ApplyPressureLocked(PressureState state) REQUIRES(mu_);
  void ForceUnpinIdleLocked() REQUIRES(mu_);
  // Cancels every queued ticket of `session` with `reason`.
  void CancelSessionTicketsLocked(SessionState* session, const Status& reason)
      REQUIRES(mu_);
  // Releases every pin of `session` via Gbo::FinishUnit.
  void ReleasePinsLocked(SessionState* session, bool forced) REQUIRES(mu_);
  void AppendLogLocked(std::vector<std::string>* log, std::string entry)
      REQUIRES(mu_);
  // Removes `session` from the DRR active list.
  void DeactivateLocked(SessionState* session) REQUIRES(mu_);

  // The server's Gbo watch: prefetch units settling free their window
  // slot. Runs with no Gbo locks held.
  void OnUnitEvent(const Gbo::WatchEvent& event) EXCLUDES(mu_);

  // lint: unguarded(set at construction, read-only afterwards)
  Gbo* db_;
  const ServerOptions options_;
  // lint: unguarded(written once in the constructor, read in ~GboServer)
  int64_t watch_id_ = 0;

  // Ranked below every Gbo lock: dispatch and shed deliberately hold it
  // across blocking Gbo calls.
  mutable Mutex mu_{lock_rank::kGboServer, "GboServer::mu_"};
  CondVar ticket_cv_;  // grants, cancellations, inflight drains

  std::map<int64_t, std::unique_ptr<SessionState>> sessions_ GUARDED_BY(mu_);
  // Counters of released sessions (see stats()).
  ServerStats retired_ GUARDED_BY(mu_);
  // DRR active list: open sessions in creation order (the deterministic
  // scan order of every scheduler lane).
  std::vector<SessionState*> active_ GUARDED_BY(mu_);
  size_t cursor_[kNumLanes] GUARDED_BY(mu_) = {};
  int64_t next_session_id_ GUARDED_BY(mu_) = 1;

  int inflight_demand_ GUARDED_BY(mu_) = 0;
  int queued_total_ GUARDED_BY(mu_) = 0;
  // Granted batch tickets whose units have not yet settled: unit name ->
  // owning session id. Each entry holds one demand-window slot, released
  // by the server's watch when the unit settles.
  std::multimap<std::string, int64_t> granted_batches_ GUARDED_BY(mu_);
  // Prefetch units handed to AddUnit, not yet settled (name -> count).
  std::map<std::string, int> outstanding_prefetch_ GUARDED_BY(mu_);
  int outstanding_prefetch_total_ GUARDED_BY(mu_) = 0;

  bool paused_ GUARDED_BY(mu_) = false;
  bool shutdown_ GUARDED_BY(mu_) = false;

  std::vector<std::string> dispatch_log_ GUARDED_BY(mu_);
  std::vector<std::string> shed_log_ GUARDED_BY(mu_);
};

}  // namespace godiva

#endif  // GODIVA_CORE_SERVER_H_
