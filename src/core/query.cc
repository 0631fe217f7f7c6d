#include "core/query.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "core/options.h"

namespace godiva {

// ---------------------------------------------------------------------------
// QueryPlanner
// ---------------------------------------------------------------------------

Result<std::unique_ptr<QueryTicket>> QueryPlanner::Submit(GboQuery query) {
  if (query.units.empty()) {
    return InvalidArgumentError("query names no units");
  }
  std::unique_ptr<QueryTicket> ticket(
      new QueryTicket(db_, session_, std::move(query)));
  // On failure the destructor withdraws whatever was dispatched and
  // releases every probe pin already taken, so nothing stays held.
  GODIVA_RETURN_IF_ERROR(ticket->SubmitInternal());
  return ticket;
}

// ---------------------------------------------------------------------------
// QueryTicket
// ---------------------------------------------------------------------------

QueryTicket::QueryTicket(Gbo* db, GboSession* session, GboQuery query)
    : db_(db), session_(session), query_(std::move(query)) {}

QueryTicket::~QueryTicket() {
  // Best-effort teardown; each step tolerates the previous having already
  // run (Cancel and FinishAll are idempotent).
  // lint: discard_ok(destructor teardown)
  (void)WithdrawOutstanding(AbortedError("query ticket destroyed"));
  if (watch_registered_) {
    // Blocks until in-flight OnEvent deliveries drain, so no callback can
    // touch freed ticket state.
    // lint: discard_ok(destructor teardown)
    (void)db_->UnregisterWatch(watch_id_);
  }
  (void)FinishAll();  // lint: discard_ok(destructor teardown)
}

Status QueryTicket::SubmitInternal() {
  if (query_.deadline > Duration::zero()) {
    has_deadline_ = true;
    deadline_ = Now() + query_.deadline;
  }

  // Phase 1: index the plan. No I/O yet; failures here leave nothing held.
  {
    MutexLock lock(&mu_);
    progress_.reserve(query_.units.size());
    for (size_t i = 0; i < query_.units.size(); ++i) {
      const QueryUnitSpec& spec = query_.units[i];
      if (spec.name.empty()) {
        return InvalidArgumentError("query unit name is empty");
      }
      if (!index_.emplace(spec.name, i).second) {
        return InvalidArgumentError(
            StrCat("duplicate unit ", spec.name, " in query"));
      }
      if (session_ != nullptr && !session_->InNamespaceView(spec.name)) {
        return InvalidArgumentError(StrCat(
            "unit ", spec.name, " is outside the session namespace"));
      }
      UnitProgress progress;
      progress.name = spec.name;
      progress.bytes = spec.bytes;
      progress_.push_back(std::move(progress));
      ++stats_.units_requested;
      stats_.bytes_requested += spec.bytes;
    }
  }

  // Register the watch before probing: a unit that is kInFlight at probe
  // time may settle at any moment, and the settle event must not race past
  // an unregistered watch. Events for names outside the plan are dropped
  // by OnEvent's index lookup.
  watch_id_ = db_->RegisterWatch(
      "*", [this](const Gbo::WatchEvent& event) { OnEvent(event); });
  watch_registered_ = true;

  // Phase 2: probe/dedup every unit, dispatch the misses.
  std::vector<SessionBatchRequest> misses;
  for (size_t i = 0; i < query_.units.size(); ++i) {
    QueryUnitSpec& spec = query_.units[i];
    const Gbo::UnitProbe probe = db_->ProbeUnitForPlan(spec.name);
    if (probe != Gbo::UnitProbe::kAbsent) {
      // Dedup satisfies the unit and its read function will never run:
      // release what it holds (a snapshot query's handed reader keeps a
      // file open) now rather than when the ticket dies.
      spec.read_fn = nullptr;
    }
    if (probe == Gbo::UnitProbe::kResident) {
      // ProbeUnitForPlan pinned it for us — one shard lock, no queue
      // round-trip. Fold the pin into the session's accounting so quotas
      // and Close() see it.
      if (session_ != nullptr) {
        Status adopted = session_->AdoptPlanPin(spec.name, /*elapsed_ms=*/0.0);
        if (!adopted.ok()) {
          // lint: discard_ok(rolling back the probe pin)
          (void)db_->FinishUnit(spec.name);
          return adopted;
        }
      }
      MutexLock lock(&mu_);
      progress_[i].disposition = QueryDisposition::kResident;
      progress_[i].settled = true;
      progress_[i].pinned = true;
      ++stats_.dedup_resident;
      stats_.bytes_saved += spec.bytes;
      cv_.NotifyAll();
      continue;
    }
    if (probe == Gbo::UnitProbe::kInFlight) {
      MutexLock lock(&mu_);
      progress_[i].disposition = QueryDisposition::kInFlight;
      ++stats_.dedup_in_flight;
      stats_.bytes_saved += spec.bytes;
      continue;
    }
    // kAbsent: this query dispatches the load.
    if (session_ != nullptr) {
      SessionBatchRequest request;
      request.unit_name = spec.name;
      request.read_fn = std::move(spec.read_fn);
      request.resources = std::move(spec.resources);
      misses.push_back(std::move(request));
      MutexLock lock(&mu_);
      progress_[i].disposition = QueryDisposition::kBatched;
      ++stats_.batches_issued;
      continue;
    }
    Status added = db_->AddUnit(spec.name, std::move(spec.read_fn),
                                std::move(spec.resources));
    if (added.ok()) {
      MutexLock lock(&mu_);
      progress_[i].disposition = QueryDisposition::kBatched;
      ++stats_.batches_issued;
    } else if (added.code() == StatusCode::kAlreadyExists) {
      // Raced with another planner (or an ingest publish) between the
      // probe and the dispatch: join the winner's load.
      MutexLock lock(&mu_);
      progress_[i].disposition = QueryDisposition::kInFlight;
      ++stats_.dedup_in_flight;
      stats_.bytes_saved += spec.bytes;
    } else {
      return added;
    }
  }

  // Session mode dispatches all misses as one atomically-admitted set:
  // quota is accounted per plan, not per unit.
  if (session_ != nullptr && !misses.empty()) {
    GODIVA_RETURN_IF_ERROR(session_->SubmitBatchSet(std::move(misses)));
  }
  return Status::Ok();
}

void QueryTicket::OnEvent(const Gbo::WatchEvent& event) {
  // Invalidation is not a settle: the unit is about to reload, and the
  // reload's own kReady/kFailed will follow.
  if (event.kind == Gbo::WatchEventKind::kInvalidated) return;
  MutexLock lock(&mu_);
  auto it = index_.find(event.unit_name);
  if (it == index_.end()) return;
  progress_[it->second].settled = true;
  cv_.NotifyAll();
}

Status QueryTicket::WaitOnDb(const std::string& unit_name) {
  if (!has_deadline_) return db_->WaitUnit(unit_name);
  const Duration remaining = deadline_ - Now();
  if (remaining <= Duration::zero()) {
    return DeadlineExceededError(
        StrCat("query deadline passed before unit ", unit_name, " settled"));
  }
  return db_->WaitUnitFor(unit_name, remaining);
}

Status QueryTicket::ConsumeUnit(size_t index) {
  std::string name;
  QueryDisposition disposition;
  bool cancelled;
  Status cancel_reason;
  {
    MutexLock lock(&mu_);
    UnitProgress& progress = progress_[index];
    if (progress.consumed) return progress.result;
    progress.claimed = true;
    name = progress.name;
    disposition = progress.disposition;
    cancelled = cancelled_;
    cancel_reason = cancel_reason_;
  }

  Stopwatch stopwatch;
  Status result;
  bool pinned_now = false;
  if (cancelled) {
    result = cancel_reason;
  } else if (disposition != QueryDisposition::kResident) {
    // (A resident unit was pinned at plan time: nothing to wait for.) A
    // batch ticket's settle wait goes through the server, so a deadline
    // can withdraw a still-queued ticket (releasing its quota slot); then
    // every load — batched, direct-mode or joined in flight — is waited
    // for on the database, which pins on success.
    if (session_ != nullptr && disposition == QueryDisposition::kBatched) {
      result = session_->AwaitBatchSettle(
          name, has_deadline_ ? &deadline_ : nullptr);
    }
    if (result.ok()) result = WaitOnDb(name);
    pinned_now = result.ok();
    if (pinned_now && session_ != nullptr) {
      Status adopted =
          session_->AdoptPlanPin(name, stopwatch.ElapsedSeconds() * 1e3);
      if (!adopted.ok()) {
        // The session refused the pin (closed under us): don't leak a
        // db-side pin outside the session's accounting.
        // lint: discard_ok(rolling back an unadoptable pin)
        (void)db_->FinishUnit(name);
        pinned_now = false;
        result = adopted;
      }
    }
  }

  // Push-down: derived-field kernels run here, on the consumer thread,
  // while the remaining units are still loading in the background.
  if (result.ok() && query_.pushdown) {
    std::vector<DerivedResult> produced;
    Status pushed = db_ == nullptr
                        ? InternalError("no database")
                        : query_.pushdown(db_, name, &produced);
    if (pushed.ok()) {
      if (!produced.empty()) {
        MutexLock lock(&mu_);
        for (DerivedResult& derived : produced) {
          derived_.push_back(std::move(derived));
        }
      }
    } else {
      // The pin is kept: the caller may still read the raw records, and
      // FinishAll releases it.
      result = pushed;
    }
  }

  {
    MutexLock lock(&mu_);
    UnitProgress& progress = progress_[index];
    progress.consumed = true;
    progress.pinned = progress.pinned || pinned_now;
    progress.result = result;
    cv_.NotifyAll();
  }
  if (query_.on_unit) query_.on_unit(name, result);
  return result;
}

Result<std::string> QueryTicket::WaitAny() {
  size_t pick = 0;
  {
    MutexLock lock(&mu_);
    for (;;) {
      bool all_consumed = true;
      bool found = false;
      bool have_unclaimed = false;
      size_t first_unclaimed = 0;
      for (size_t i = 0; i < progress_.size(); ++i) {
        const UnitProgress& progress = progress_[i];
        if (!progress.consumed) all_consumed = false;
        if (progress.claimed || progress.consumed) continue;
        if (!have_unclaimed) {
          have_unclaimed = true;
          first_unclaimed = i;
        }
        if (progress.settled) {
          pick = i;
          found = true;
          break;
        }
      }
      if (all_consumed) {
        return NotFoundError("every query unit is already consumed");
      }
      if (!found && have_unclaimed &&
          (cancelled_ || !db_->options().background_io)) {
        // Cancelled: consume in plan order so each unit fails fast.
        // Poolless direct mode: nothing settles in the background, so
        // claim in plan order and let WaitUnit run the load inline.
        pick = first_unclaimed;
        found = true;
      }
      if (found) {
        progress_[pick].claimed = true;
        break;
      }
      if (!have_unclaimed) {
        // Everything is claimed by other WaitAny calls but not yet
        // consumed; wait for a consume (or new settle) to re-evaluate.
      }
      if (!has_deadline_) {
        cv_.Wait(&mu_);
        continue;
      }
      if (!cv_.WaitUntil(&mu_, deadline_)) {
        // Deadline passed while waiting. Claim the first unclaimed unit
        // so ConsumeUnit surfaces DEADLINE_EXCEEDED for it (and the
        // session path withdraws its still-queued ticket).
        if (!have_unclaimed) {
          return DeadlineExceededError("query deadline passed");
        }
        pick = first_unclaimed;
        progress_[pick].claimed = true;
        break;
      }
    }
  }

  Status consumed = ConsumeUnit(pick);
  if (consumed.code() == StatusCode::kAborted ||
      consumed.code() == StatusCode::kDeadlineExceeded) {
    // Control-flow failures propagate; per-unit load errors are reported
    // through UnitStatus so the caller keeps draining.
    return consumed;
  }
  MutexLock lock(&mu_);
  return progress_[pick].name;
}

Status QueryTicket::WaitAll() {
  for (;;) {
    Result<std::string> next = WaitAny();
    if (next.ok()) continue;
    if (next.status().code() == StatusCode::kNotFound) break;
    // Deadline or cancellation: fail the rest fast, then keep draining —
    // every remaining unit is consumed with the terminal reason, so the
    // loop strictly advances and terminates.
    // lint: discard_ok(already reporting the trigger)
    (void)WithdrawOutstanding(next.status());
  }
  MutexLock lock(&mu_);
  for (const UnitProgress& progress : progress_) {
    if (!progress.result.ok()) return progress.result;
  }
  return Status::Ok();
}

Status QueryTicket::Cancel() {
  return WithdrawOutstanding(AbortedError("query cancelled"));
}

Status QueryTicket::WithdrawOutstanding(const Status& reason) {
  struct Outstanding {
    std::string name;
    QueryDisposition disposition;
  };
  std::vector<Outstanding> outstanding;
  {
    MutexLock lock(&mu_);
    if (!cancelled_) {
      cancelled_ = true;
      cancel_reason_ = reason;  // first reason wins
    }
    for (const UnitProgress& progress : progress_) {
      if (progress.consumed || progress.claimed) continue;
      if (progress.disposition != QueryDisposition::kBatched) continue;
      outstanding.push_back({progress.name, progress.disposition});
    }
    cv_.NotifyAll();
  }
  for (const Outstanding& unit : outstanding) {
    if (session_ != nullptr) {
      // Withdraw a still-queued ticket, releasing its quota. A granted
      // ticket settles on its own — its unit must NOT be deleted, because
      // the demand-window slot is only released by the settle event.
      // lint: discard_ok(granted tickets settle on their own)
      (void)session_->WithdrawBatch(unit.name);
    } else {
      // Direct mode: DeleteUnit cancels a queued load (or a retry backoff
      // in flight, PR 1 pipeline); a mid-read unit refuses deletion and
      // settles normally.
      // lint: discard_ok(mid-read units settle on their own)
      (void)db_->DeleteUnit(unit.name);
    }
  }
  return Status::Ok();
}

Status QueryTicket::FinishAll() {
  std::vector<std::string> pinned;
  {
    MutexLock lock(&mu_);
    for (UnitProgress& progress : progress_) {
      if (!progress.pinned) continue;
      progress.pinned = false;
      pinned.push_back(progress.name);
    }
  }
  Status first;
  for (const std::string& name : pinned) {
    Status finished = session_ != nullptr ? session_->Finish(name)
                                          : db_->FinishUnit(name);
    if (!finished.ok() && first.ok()) first = finished;
  }
  return first;
}

Status QueryTicket::UnitStatus(const std::string& unit_name) const {
  MutexLock lock(&mu_);
  auto it = index_.find(unit_name);
  if (it == index_.end()) {
    return NotFoundError(StrCat("unit ", unit_name, " is not in this query"));
  }
  const UnitProgress& progress = progress_[it->second];
  if (!progress.consumed) {
    return UnavailableError(StrCat("unit ", unit_name, " not yet consumed"));
  }
  return progress.result;
}

Result<QueryDisposition> QueryTicket::DispositionOf(
    const std::string& unit_name) const {
  MutexLock lock(&mu_);
  auto it = index_.find(unit_name);
  if (it == index_.end()) {
    return NotFoundError(StrCat("unit ", unit_name, " is not in this query"));
  }
  return progress_[it->second].disposition;
}

std::vector<DerivedResult> QueryTicket::TakeDerived() {
  MutexLock lock(&mu_);
  std::vector<DerivedResult> out = std::move(derived_);
  derived_.clear();
  return out;
}

std::vector<std::string> QueryTicket::unit_names() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(progress_.size());
  for (const UnitProgress& progress : progress_) {
    names.push_back(progress.name);
  }
  return names;
}

QueryPlanStats QueryTicket::plan() const {
  MutexLock lock(&mu_);
  return stats_;
}

}  // namespace godiva
