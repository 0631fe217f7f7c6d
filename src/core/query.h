// GboQuery / QueryPlanner — the declarative batch query layer
// (DESIGN.md §15). A query names a set of units (the workload layer
// expands "fields × blocks × snapshot window" into per-(snapshot, file)
// units whose read functions each run one gsdf::Reader::ReadBatch; see
// workloads/snapshot_query.h) and is planned as a whole before any I/O:
//
//  1. Dedup: every unit is probed against the shared cache. A resident
//     unit is pinned immediately (one shard lock, no queue round-trip);
//     an in-flight load is joined, not re-issued; only true misses
//     dispatch I/O.
//  2. Dispatch: each miss becomes one load — direct Gbo::AddUnit in
//     direct mode, or one demand-class DRR ticket per unit through the
//     session/server path (quota accounted per plan,
//     GboSession::SubmitBatchSet).
//  3. Push-down: an optional closure runs derived-field kernels on each
//     unit as it lands (overlapped with the remaining loads), not after
//     the full set arrives.
//
// Submit() returns a QueryTicket: the completion handle carrying
// WaitAll / WaitAny / per-unit callback, deadline and cancellation
// (withdrawing still-queued server tickets releases their quota;
// cancelling an unstarted direct load reuses the retry pipeline's
// backoff cancellation via DeleteUnit).
//
// Thread model: a ticket's Wait*/FinishAll methods are intended for one
// consumer thread; Cancel() may be called from any thread. The ticket's
// mutex (rank kGboQuery) is never held across a blocking Gbo or server
// call.
#ifndef GODIVA_CORE_QUERY_H_
#define GODIVA_CORE_QUERY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/gbo.h"
#include "core/session.h"

namespace godiva {

// One unit of a query: its name, the read function that executes the
// unit's planned batch if the unit must be loaded, the file resources the
// load touches (for quarantine accounting), and the payload bytes the
// plan would issue for it (dedup's bytes-saved accounting).
struct QueryUnitSpec {
  std::string name;
  Gbo::ReadFn read_fn;
  std::vector<std::string> resources;
  int64_t bytes = 0;
};

// One derived-field value set produced by push-down: which unit and
// kernel produced it, keyed by the caller's cookie (the workload layer
// stores the block id).
struct DerivedResult {
  std::string unit;
  std::string field;
  int64_t key = 0;
  std::vector<double> values;
};

// Push-down closure: runs once per unit, on the consumer thread, after
// the unit's records are resident and pinned. Appends its results to
// `out`; a failure fails the unit's consume (the pin is kept for
// FinishAll).
using QueryPushdownFn = std::function<Status(
    Gbo* db, const std::string& unit_name, std::vector<DerivedResult>* out)>;

// The declarative request handed to QueryPlanner::Submit.
struct GboQuery {
  std::vector<QueryUnitSpec> units;
  QueryPushdownFn pushdown;  // optional
  // Optional per-unit completion callback, invoked on the consumer thread
  // as each unit is consumed (after push-down), with the unit's terminal
  // status.
  std::function<void(const std::string& unit_name, const Status&)> on_unit;
  // Covers Submit through the last Wait: zero = none.
  Duration deadline = Duration::zero();
};

// How the planner resolved one unit at Submit time.
enum class QueryDisposition {
  kResident,  // dedup hit: pinned from cache immediately
  kInFlight,  // dedup hit: joined a load already underway
  kBatched,   // miss: this query dispatched the load
};

// Per-plan accounting, fixed at Submit.
struct QueryPlanStats {
  int64_t units_requested = 0;
  int64_t dedup_resident = 0;
  int64_t dedup_in_flight = 0;
  int64_t batches_issued = 0;
  int64_t bytes_requested = 0;
  int64_t bytes_saved = 0;  // bytes of dedup-satisfied units
};

// The completion handle of one submitted query. Destroying it cancels
// outstanding work (best effort) and releases every pin it still holds.
class QueryTicket {
 public:
  ~QueryTicket();
  QueryTicket(const QueryTicket&) = delete;
  QueryTicket& operator=(const QueryTicket&) = delete;

  // Consumes every unit in landing order (push-down + on_unit as each
  // settles). Returns OK iff every unit loaded and pushed down cleanly;
  // otherwise the first failure in plan order (DEADLINE_EXCEEDED /
  // ABORTED / the unit's load error). Failed units do not stop the
  // drain — the remaining units are still consumed (or cancelled fast).
  Status WaitAll() EXCLUDES(mu_);

  // Consumes the next landed unit and returns its name (even if its load
  // failed — per-unit outcomes are read through UnitStatus). NOT_FOUND
  // once every unit is consumed; DEADLINE_EXCEEDED / ABORTED when the
  // deadline passes or Cancel() wins while waiting. On a database without
  // a background pool, direct-mode loads run inline here, in plan order.
  Result<std::string> WaitAny() EXCLUDES(mu_);

  // Cancels the query: unconsumed units fail fast with ABORTED,
  // still-queued server tickets are withdrawn (releasing their quota),
  // and unstarted direct-mode loads are deleted (cancelling a retry
  // backoff in flight, per the PR 1 pipeline). Pins already taken stay
  // until FinishAll. Idempotent.
  Status Cancel() EXCLUDES(mu_);

  // Releases every pin this ticket holds (probe hits and consumed
  // units). Idempotent; also run by the destructor.
  Status FinishAll() EXCLUDES(mu_);

  // Terminal status of a consumed unit; UNAVAILABLE while the unit is
  // not yet consumed, NOT_FOUND for a name outside the query.
  Status UnitStatus(const std::string& unit_name) const EXCLUDES(mu_);

  // How Submit resolved the unit. NOT_FOUND for a name outside the query.
  Result<QueryDisposition> DispositionOf(const std::string& unit_name) const
      EXCLUDES(mu_);

  // Moves out everything push-down produced so far.
  std::vector<DerivedResult> TakeDerived() EXCLUDES(mu_);

  std::vector<std::string> unit_names() const EXCLUDES(mu_);

  // Plan accounting, fixed at Submit.
  QueryPlanStats plan() const EXCLUDES(mu_);

 private:
  friend class QueryPlanner;

  struct UnitProgress {
    std::string name;
    QueryDisposition disposition = QueryDisposition::kBatched;
    int64_t bytes = 0;
    bool settled = false;   // load finished (or resident at plan time)
    bool claimed = false;   // a consumer picked it (WaitAny)
    bool consumed = false;  // wait + push-down + on_unit ran
    bool pinned = false;    // holds a pin FinishAll must release
    Status result;          // terminal status once consumed
  };

  QueryTicket(Gbo* db, GboSession* session, GboQuery query);

  // The planning pipeline: probe/dedup every unit, dispatch misses.
  // Runs once, from QueryPlanner::Submit.
  Status SubmitInternal();
  // Watch delivery (no Gbo locks held): marks members settled.
  void OnEvent(const Gbo::WatchEvent& event) EXCLUDES(mu_);
  // Waits for unit i's load, pins it, runs push-down and on_unit.
  Status ConsumeUnit(size_t index) EXCLUDES(mu_);
  // WaitUnit / WaitUnitFor against the remaining deadline.
  Status WaitOnDb(const std::string& unit_name);
  // Marks the ticket cancelled with `reason` and withdraws/deletes
  // whatever has not started (see Cancel).
  Status WithdrawOutstanding(const Status& reason) EXCLUDES(mu_);

  // lint: unguarded(set at construction, read-only afterwards)
  Gbo* db_;
  // lint: unguarded(set at construction, read-only afterwards; null in
  // direct mode)
  GboSession* session_;
  // lint: unguarded(set at construction; SubmitInternal completes it before
  // the ticket is shared, read-only afterwards)
  GboQuery query_;

  // Deadline, fixed at Submit. lint: unguarded(written once in
  // SubmitInternal before the ticket is shared, read-only afterwards)
  bool has_deadline_ = false;
  // lint: unguarded(written with has_deadline_, read-only afterwards)
  TimePoint deadline_{};

  // lint: unguarded(written once in SubmitInternal, read in ~QueryTicket)
  int64_t watch_id_ = 0;
  // lint: unguarded(written once in SubmitInternal, read in ~QueryTicket)
  bool watch_registered_ = false;

  // Held only around bookkeeping, never across a blocking Gbo or server
  // call (rank kGboQuery sits below kGboMu regardless, by design).
  mutable Mutex mu_{lock_rank::kGboQuery, "QueryTicket::mu_"};
  CondVar cv_;
  std::vector<UnitProgress> progress_ GUARDED_BY(mu_);
  std::map<std::string, size_t> index_ GUARDED_BY(mu_);
  std::vector<DerivedResult> derived_ GUARDED_BY(mu_);
  QueryPlanStats stats_ GUARDED_BY(mu_);
  bool cancelled_ GUARDED_BY(mu_) = false;
  Status cancel_reason_ GUARDED_BY(mu_);
};

// Plans and submits GboQuerys against one database — directly, or
// through a session so every batch load is admission-controlled and
// DRR-scheduled (quota accounted per plan). Stateless between Submits;
// thread safe.
class QueryPlanner {
 public:
  // Direct mode: loads dispatch via Gbo::AddUnit. Works with or without
  // a background pool (without one, loads run inline in the Wait calls).
  explicit QueryPlanner(Gbo* db) : db_(db), session_(nullptr) {}

  // Session mode: loads dispatch as batch tickets through `session`'s
  // server (GboSession::SubmitBatchSet). The session must outlive every
  // ticket. Requires the Gbo to run a background pool.
  QueryPlanner(Gbo* db, GboSession* session) : db_(db), session_(session) {}

  // Plans and dispatches the query. On error nothing stays held (probe
  // pins taken before the failure are released). INVALID_ARGUMENT for an
  // empty query, duplicate unit names, or a unit outside the session's
  // namespace.
  Result<std::unique_ptr<QueryTicket>> Submit(GboQuery query);

 private:
  Gbo* db_;
  GboSession* session_;
};

}  // namespace godiva

#endif  // GODIVA_CORE_QUERY_H_
