#include "core/server.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"

namespace godiva {

namespace {

// Shed-ladder scan order: lowest priority sheds first.
constexpr PriorityClass kShedOrder[] = {PriorityClass::kBackground,
                                        PriorityClass::kBatch,
                                        PriorityClass::kInteractive};

// The pressure ladder (DESIGN.md §13): the fractions of the Gbo's memory
// limit at which the server enters kDegraded, kSaturated and kCritical.
constexpr double kDegradeFraction = 0.75;
constexpr double kHighWaterFraction = 0.9;
constexpr double kCriticalFraction = 0.95;

// Aggregate queued tickets (demand + prefetch) across all sessions;
// admission rejects past it.
constexpr int kMaxQueuedTotal = 4096;

// Entries each dispatch log keeps (ServerOptions::record_dispatch_log).
constexpr size_t kLogLimit = 65536;

bool AtLeast(GboServer::PressureState state, GboServer::PressureState floor) {
  return static_cast<int>(state) >= static_cast<int>(floor);
}

// Adds one session's counters to a server total.
void AddSessionStats(const SessionStats& counters, bool closed,
                     ServerStats* total) {
  ++total->sessions_opened;
  if (closed) ++total->sessions_closed;
  total->reads_admitted += counters.reads_admitted;
  total->reads_queued += counters.reads_queued;
  total->reads_rejected += counters.reads_rejected + counters.quota_rejections;
  total->prefetches_shed += counters.prefetches_shed;
  total->demand_shed += counters.demand_shed;
  total->forced_unpins += counters.forced_unpins;
}

}  // namespace

std::string_view PressureStateName(GboServer::PressureState state) {
  switch (state) {
    case GboServer::PressureState::kOpen:
      return "open";
    case GboServer::PressureState::kDegraded:
      return "degraded";
    case GboServer::PressureState::kSaturated:
      return "saturated";
    case GboServer::PressureState::kCritical:
      return "critical";
  }
  return "unknown";
}

GboServer::GboServer(Gbo* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {
  {
    MutexLock lock(&mu_);
    paused_ = options_.start_paused;
  }
  watch_id_ = db_->RegisterWatch(
      "*", [this](const Gbo::WatchEvent& event) { OnUnitEvent(event); });
}

GboServer::~GboServer() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
    // Handles should already be closed, but a leaked one must not strand
    // a blocked reader: cancel every queued ticket.
    for (auto& [id, session] : sessions_) {
      if (!session->closed) {
        CancelSessionTicketsLocked(session.get(),
                                   AbortedError("server shutting down"));
      }
    }
    ticket_cv_.NotifyAll();
    while (inflight_demand_ > 0) {
      ticket_cv_.Wait(&mu_);
    }
  }
  // lint: discard_ok(best effort: the watch registry dies with the Gbo)
  (void)db_->UnregisterWatch(watch_id_);
}

Result<std::unique_ptr<GboSession>> GboServer::OpenSession(
    SessionConfig config) {
  MutexLock lock(&mu_);
  if (shutdown_) return FailedPreconditionError("server is shutting down");
  if (options_.max_sessions > 0 &&
      OpenSessionsLocked() >= options_.max_sessions) {
    return ResourceExhaustedError(
        StrCat("session limit reached (", options_.max_sessions, ")"));
  }
  const PressureState state = PressureStateNow();
  if (AtLeast(state, PressureState::kCritical) &&
      config.priority != PriorityClass::kInteractive) {
    return ResourceExhaustedError(
        StrCat("session admission rejected: memory pressure is ",
               PressureStateName(state), " and the session class is ",
               PriorityClassName(config.priority)));
  }
  const int64_t id = next_session_id_++;
  if (config.name.empty()) config.name = StrCat("session-", id);
  auto session = std::make_unique<SessionState>();
  session->id = id;
  session->config = config;
  std::unique_ptr<GboSession> handle(new GboSession(this, id, config));
  session->handle = handle.get();
  active_.push_back(session.get());
  sessions_[id] = std::move(session);
  return handle;
}

GboServer::PressureState GboServer::PressureStateNow() const {
  const int64_t limit = db_->memory_limit();
  if (limit <= 0) return PressureState::kOpen;
  const double fraction = static_cast<double>(db_->memory_usage()) /
                          static_cast<double>(limit);
  if (fraction >= kCriticalFraction) return PressureState::kCritical;
  if (fraction >= kHighWaterFraction) return PressureState::kSaturated;
  if (fraction >= kDegradeFraction) return PressureState::kDegraded;
  return PressureState::kOpen;
}

GboServer::PressureState GboServer::pressure_state() const {
  return PressureStateNow();
}

void GboServer::PollPressure() {
  MutexLock lock(&mu_);
  ApplyPressureLocked(PressureStateNow());
  DispatchLocked();
}

void GboServer::PauseDispatch() {
  MutexLock lock(&mu_);
  paused_ = true;
}

void GboServer::ResumeDispatch() {
  MutexLock lock(&mu_);
  paused_ = false;
  DispatchLocked();
}

std::vector<std::string> GboServer::DispatchLog() const {
  MutexLock lock(&mu_);
  return dispatch_log_;
}

std::vector<std::string> GboServer::ShedLog() const {
  MutexLock lock(&mu_);
  return shed_log_;
}

int GboServer::open_sessions() const {
  MutexLock lock(&mu_);
  return OpenSessionsLocked();
}

ServerStats GboServer::stats() const {
  MutexLock lock(&mu_);
  ServerStats total = retired_;
  for (const auto& [id, session] : sessions_) {
    AddSessionStats(session->counters, session->closed, &total);
  }
  return total;
}

// ---------------------------------------------------------------------
// Session-facing entry points.

Status GboServer::AwaitDemandGrant(int64_t session_id,
                                   const std::string& unit_name,
                                   const TimePoint* deadline) {
  MutexLock lock(&mu_);
  GODIVA_ASSIGN_OR_RETURN(SessionState * session,
                          FindOpenSessionLocked(session_id));
  GODIVA_RETURN_IF_ERROR(AdmitDemandLocked(session, 1, "demand read"));

  // Queue the ticket (it lives on this stack frame; we do not return
  // while it is still queued) and wait for the scheduler.
  Ticket ticket;
  ticket.session_id = session_id;
  ticket.unit_name = unit_name;
  session->demand_q.push_back(&ticket);
  ++queued_total_;
  DispatchLocked();

  bool waited = false;
  Stopwatch stall;
  while (ticket.state == TicketState::kWaiting) {
    waited = true;
    if (deadline == nullptr) {
      ticket_cv_.Wait(&mu_);
      continue;
    }
    if (!ticket_cv_.WaitUntil(&mu_, *deadline) &&
        ticket.state == TicketState::kWaiting) {
      // Withdraw the still-queued ticket.
      auto pos = std::find(session->demand_q.begin(), session->demand_q.end(),
                           &ticket);
      if (pos != session->demand_q.end()) {
        session->demand_q.erase(pos);
        --queued_total_;
      }
      session->counters.stall_seconds += stall.ElapsedSeconds();
      return DeadlineExceededError(
          StrCat("timed out waiting for a demand grant on ", unit_name));
    }
  }
  if (ticket.state == TicketState::kCancelled) {
    session->counters.stall_seconds += stall.ElapsedSeconds();
    return ticket.cancel_reason;
  }
  ++session->counters.reads_admitted;
  if (waited) {
    ++session->counters.reads_queued;
    session->counters.stall_seconds += stall.ElapsedSeconds();
  }
  return Status::Ok();
}

void GboServer::NoteDemandResult(int64_t session_id,
                                 const std::string& unit_name,
                                 const Status& result, double elapsed_ms) {
  MutexLock lock(&mu_);
  --inflight_demand_;
  SessionState* session = FindSessionLocked(session_id);
  if (session != nullptr) {
    --session->inflight;
    if (result.ok()) AdoptPinLocked(session, unit_name, elapsed_ms);
  }
  ticket_cv_.NotifyAll();
  DispatchLocked();
}

Status GboServer::RequestPrefetch(int64_t session_id,
                                  const std::string& unit_name,
                                  Gbo::ReadFn read_fn) {
  MutexLock lock(&mu_);
  GODIVA_ASSIGN_OR_RETURN(SessionState * session,
                          FindOpenSessionLocked(session_id));
  if (shutdown_) return AbortedError("server is shutting down");
  ++session->counters.prefetches_requested;
  const PressureState state = PressureStateNow();
  ApplyPressureLocked(state);
  if (AtLeast(state, PressureState::kDegraded)) {
    ++session->counters.prefetches_shed;
    return ResourceExhaustedError(
        StrCat("prefetch rejected: memory pressure is ",
               PressureStateName(state)));
  }
  if (queued_total_ >= kMaxQueuedTotal) {
    ++session->counters.prefetches_shed;
    return ResourceExhaustedError(
        StrCat("server queue full (", kMaxQueuedTotal, " tickets)"));
  }
  session->prefetch_q.push_back(PrefetchTicket{unit_name, std::move(read_fn)});
  ++queued_total_;
  DispatchLocked();
  return Status::Ok();
}

Status GboServer::SubmitBatchSet(int64_t session_id,
                                 std::vector<BatchTicket> batches) {
  if (batches.empty()) return Status::Ok();
  MutexLock lock(&mu_);
  GODIVA_ASSIGN_OR_RETURN(SessionState * session,
                          FindOpenSessionLocked(session_id));
  if (!db_->options().background_io) {
    return FailedPreconditionError(
        "batch tickets require a background I/O pool (the grant path hands "
        "units to it; a poolless Gbo would never settle them)");
  }
  // The plan is admitted as a whole, never half.
  GODIVA_RETURN_IF_ERROR(AdmitDemandLocked(
      session, static_cast<int>(batches.size()), "batch set"));

  for (BatchTicket& ticket : batches) {
    session->batch_done.erase(ticket.unit_name);
    session->batch_q.push_back(std::move(ticket));
    ++queued_total_;
    ++session->counters.batch_submitted;
  }
  DispatchLocked();
  return Status::Ok();
}

Status GboServer::AwaitBatchSettle(int64_t session_id,
                                   const std::string& unit_name,
                                   const TimePoint* deadline) {
  MutexLock lock(&mu_);
  for (;;) {
    SessionState* session = FindSessionLocked(session_id);
    if (session == nullptr) {
      return FailedPreconditionError("session is closed");
    }
    auto done = session->batch_done.find(unit_name);
    if (done != session->batch_done.end()) {
      Status result = done->second;
      session->batch_done.erase(done);
      return result;
    }
    if (session->closed) return AbortedError("session closed");
    if (shutdown_) return AbortedError("server is shutting down");
    const bool queued =
        std::any_of(session->batch_q.begin(), session->batch_q.end(),
                    [&](const BatchTicket& t) {
                      return t.unit_name == unit_name;
                    });
    bool granted = false;
    auto range = granted_batches_.equal_range(unit_name);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == session_id) granted = true;
    }
    if (!queued && !granted) {
      return NotFoundError(
          StrCat("no batch ticket for ", unit_name, " in session ",
                 session->config.name));
    }
    if (deadline == nullptr) {
      ticket_cv_.Wait(&mu_);
      continue;
    }
    if (!ticket_cv_.WaitUntil(&mu_, *deadline)) {
      // Deadline: withdraw a still-queued ticket so its quota is released
      // immediately. A granted ticket cannot be recalled — its unit
      // settles on its own and frees the window slot then.
      session = FindSessionLocked(session_id);
      if (session != nullptr) WithdrawBatchLocked(session, unit_name);
      return DeadlineExceededError(
          StrCat("timed out waiting for batch ", unit_name, " to settle"));
    }
  }
}

Status GboServer::WithdrawBatch(int64_t session_id,
                                const std::string& unit_name) {
  MutexLock lock(&mu_);
  SessionState* session = FindSessionLocked(session_id);
  if (session == nullptr) {
    return FailedPreconditionError("session is closed");
  }
  if (WithdrawBatchLocked(session, unit_name)) return Status::Ok();
  return NotFoundError(
      StrCat("no queued batch ticket for ", unit_name, " in session ",
             session->config.name));
}

Status GboServer::AdoptPlanPin(int64_t session_id,
                               const std::string& unit_name,
                               double elapsed_ms) {
  MutexLock lock(&mu_);
  GODIVA_ASSIGN_OR_RETURN(SessionState * session,
                          FindOpenSessionLocked(session_id));
  AdoptPinLocked(session, unit_name, elapsed_ms);
  return Status::Ok();
}

Status GboServer::FinishUnitFor(int64_t session_id,
                                const std::string& unit_name) {
  MutexLock lock(&mu_);
  GODIVA_ASSIGN_OR_RETURN(SessionState * session,
                          FindOpenSessionLocked(session_id));
  auto it = session->pinned.find(unit_name);
  if (it == session->pinned.end()) {
    return FailedPreconditionError(StrCat("unit ", unit_name,
                                          " is not pinned by session ",
                                          session->config.name));
  }
  if (--it->second.pins == 0) {
    session->pinned_bytes -= it->second.bytes;
    session->pinned.erase(it);
  }
  Status finished = db_->FinishUnit(unit_name);
  DispatchLocked();
  return finished;
}

Result<int64_t> GboServer::RegisterSessionWatch(int64_t session_id,
                                                const std::string& glob,
                                                Gbo::WatchFn fn) {
  MutexLock lock(&mu_);
  GODIVA_ASSIGN_OR_RETURN(SessionState * session,
                          FindOpenSessionLocked(session_id));
  const int64_t watch_id = db_->RegisterWatch(glob, std::move(fn));
  session->watch_ids.push_back(watch_id);
  return watch_id;
}

Status GboServer::UnregisterSessionWatch(int64_t session_id,
                                         int64_t watch_id) {
  {
    MutexLock lock(&mu_);
    SessionState* session = FindSessionLocked(session_id);
    if (session == nullptr) {
      return FailedPreconditionError("session is closed");
    }
    auto pos = std::find(session->watch_ids.begin(), session->watch_ids.end(),
                         watch_id);
    if (pos == session->watch_ids.end()) {
      return NotFoundError(StrCat("watch ", watch_id,
                                  " is not registered by session ",
                                  session->config.name));
    }
    session->watch_ids.erase(pos);
  }
  // Outside mu_: UnregisterWatch blocks until in-flight deliveries of this
  // watch drain, and the callback may itself be calling into the server.
  return db_->UnregisterWatch(watch_id);
}

void GboServer::CloseSession(int64_t session_id) {
  std::vector<int64_t> watch_ids;
  {
    MutexLock lock(&mu_);
    SessionState* session = FindSessionLocked(session_id);
    if (session == nullptr || session->closed) return;
    session->closed = true;
    CancelSessionTicketsLocked(session, AbortedError("session closed"));
    DeactivateLocked(session);
    ticket_cv_.NotifyAll();
    // Drain reads that already hold a grant; their settle re-signals.
    while (session->inflight > 0) {
      ticket_cv_.Wait(&mu_);
    }
    ReleasePinsLocked(session, /*forced=*/false);
    watch_ids.swap(session->watch_ids);
    DispatchLocked();
  }
  // Outside mu_: UnregisterWatch blocks until in-flight deliveries drain,
  // and a session's watch callback may itself be calling into the server.
  for (int64_t watch_id : watch_ids) {
    // lint: discard_ok(best-effort cleanup; the watch may already be gone)
    (void)db_->UnregisterWatch(watch_id);
  }
}

void GboServer::ReleaseSession(int64_t session_id) {
  MutexLock lock(&mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  AddSessionStats(it->second->counters, it->second->closed, &retired_);
  it->second->handle = nullptr;
  sessions_.erase(it);
}

bool GboServer::SessionClosed(int64_t session_id) const {
  MutexLock lock(&mu_);
  const SessionState* session = FindSessionLocked(session_id);
  return session == nullptr || session->closed;
}

SessionStats GboServer::SessionStatsFor(int64_t session_id) const {
  MutexLock lock(&mu_);
  SessionStats stats;
  const SessionState* session = FindSessionLocked(session_id);
  if (session == nullptr) return stats;
  stats = session->counters;
  stats.name = session->config.name;
  stats.priority = session->config.priority;
  stats.pinned_bytes = session->pinned_bytes;
  stats.pinned_units = static_cast<int>(session->pinned.size());
  stats.queued_demand = static_cast<int>(session->demand_q.size());
  stats.queued_batch = static_cast<int>(session->batch_q.size());
  if (session->handle != nullptr) {
    // The documented kGboServer -> kGboSession edge: the sample ring is
    // read under the server lock.
    session->handle->FillLatency(&stats);
  }
  return stats;
}

// ---------------------------------------------------------------------
// Scheduler.

GboServer::SessionState* GboServer::FindSessionLocked(int64_t session_id) {
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

const GboServer::SessionState* GboServer::FindSessionLocked(
    int64_t session_id) const {
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

int GboServer::OpenSessionsLocked() const {
  int open = 0;
  for (const auto& [id, session] : sessions_) {
    if (!session->closed) ++open;
  }
  return open;
}

Result<GboServer::SessionState*> GboServer::FindOpenSessionLocked(
    int64_t session_id) {
  SessionState* session = FindSessionLocked(session_id);
  if (session == nullptr || session->closed) {
    return FailedPreconditionError("session is closed");
  }
  return session;
}

Status GboServer::AdmitDemandLocked(SessionState* session, int tickets,
                                    std::string_view what) {
  if (shutdown_) return AbortedError("server is shutting down");
  const PressureState state = PressureStateNow();
  ApplyPressureLocked(state);
  // The demand rungs of the shed ladder: lowest classes refused first.
  const PriorityClass priority = session->config.priority;
  if ((priority == PriorityClass::kBackground &&
       AtLeast(state, PressureState::kSaturated)) ||
      (priority != PriorityClass::kInteractive &&
       AtLeast(state, PressureState::kCritical))) {
    ++session->counters.reads_rejected;
    return ResourceExhaustedError(
        StrCat(what, " rejected: memory pressure is ",
               PressureStateName(state), " and session ",
               session->config.name, " is ", PriorityClassName(priority)));
  }
  // Per-session quotas.
  if (session->config.max_pinned_bytes > 0 &&
      session->pinned_bytes >= session->config.max_pinned_bytes) {
    ++session->counters.quota_rejections;
    return ResourceExhaustedError(
        StrCat("pin budget exhausted: session ", session->config.name,
               " holds ", FormatBytes(session->pinned_bytes), " of ",
               FormatBytes(session->config.max_pinned_bytes)));
  }
  const int queued = static_cast<int>(session->demand_q.size() +
                                       session->batch_q.size());
  if (session->config.max_queued_demand > 0 &&
      queued + tickets > session->config.max_queued_demand) {
    ++session->counters.quota_rejections;
    return ResourceExhaustedError(
        StrCat("demand queue quota exhausted: session ",
               session->config.name, " has ", queued,
               " tickets queued and the ", what, " adds ", tickets));
  }
  if (queued_total_ + tickets > kMaxQueuedTotal) {
    ++session->counters.reads_rejected;
    return ResourceExhaustedError(
        StrCat("server queue full (", kMaxQueuedTotal, " tickets)"));
  }
  return Status::Ok();
}

void GboServer::AdoptPinLocked(SessionState* session,
                               const std::string& unit_name,
                               double elapsed_ms) {
  SessionState::PinEntry& entry = session->pinned[unit_name];
  if (entry.pins == 0) {
    Result<int64_t> bytes = db_->UnitMemoryBytes(unit_name);
    entry.bytes = bytes.ok() ? bytes.value() : 0;
    session->pinned_bytes += entry.bytes;
  }
  ++entry.pins;
  if (session->handle != nullptr) {
    session->handle->RecordDemandLatency(elapsed_ms);
  }
}

bool GboServer::WithdrawBatchLocked(SessionState* session,
                                    const std::string& unit_name) {
  auto pos = std::find_if(
      session->batch_q.begin(), session->batch_q.end(),
      [&](const BatchTicket& ticket) { return ticket.unit_name == unit_name; });
  if (pos == session->batch_q.end()) return false;
  session->batch_q.erase(pos);
  --queued_total_;
  ++session->counters.demand_shed;
  ticket_cv_.NotifyAll();
  return true;
}

int GboServer::QuantumFor(const SessionState& session) const {
  int weight = 1;
  switch (session.config.priority) {
    case PriorityClass::kInteractive:
      weight = options_.weight_interactive;
      break;
    case PriorityClass::kBatch:
      weight = options_.weight_batch;
      break;
    case PriorityClass::kBackground:
      weight = options_.weight_background;
      break;
  }
  return std::max(1, weight);
}

void GboServer::DispatchLocked() {
  if (paused_ || shutdown_) return;
  // Demand lane first — mirrors the Gbo's own demand-before-speculative
  // queue order, with DRR deciding which session's ticket goes next.
  while (inflight_demand_ < options_.max_inflight_demand) {
    const bool reserve_only =
        options_.max_inflight_demand - inflight_demand_ <=
        options_.demand_reserve_interactive;
    SessionState* session = NextSessionLocked(kDemandLane, reserve_only);
    if (session == nullptr) {
      // Batch-query tickets share the demand window but yield to stack
      // demand tickets (a blocked reader beats a decoupled plan).
      if (!GrantBatchLocked(reserve_only)) break;
      continue;
    }
    Ticket* ticket = session->demand_q.front();
    session->demand_q.pop_front();
    --queued_total_;
    ticket->state = TicketState::kGranted;
    ++inflight_demand_;
    ++session->inflight;
    if (options_.record_dispatch_log) {
      AppendLogLocked(&dispatch_log_, StrCat("demand ", session->config.name,
                                             ":", ticket->unit_name));
    }
    ticket_cv_.NotifyAll();
  }
  // Speculative lane: only while pressure is fully open.
  if (AtLeast(PressureStateNow(), PressureState::kDegraded)) return;
  while (outstanding_prefetch_total_ < options_.max_outstanding_prefetch) {
    SessionState* session =
        NextSessionLocked(kPrefetchLane, /*interactive_only=*/false);
    if (session == nullptr) break;
    PrefetchTicket ticket = std::move(session->prefetch_q.front());
    session->prefetch_q.pop_front();
    --queued_total_;
    ++session->counters.prefetches_dispatched;
    if (options_.record_dispatch_log) {
      AppendLogLocked(&dispatch_log_,
                      StrCat("prefetch ", session->config.name, ":",
                             ticket.unit_name));
    }
    // Held across the (non-blocking) Gbo call on purpose; kGboServer
    // ranks below kGboMu.
    Status added = db_->AddUnit(ticket.unit_name, std::move(ticket.read_fn));
    if (added.ok()) {
      ++outstanding_prefetch_[ticket.unit_name];
      ++outstanding_prefetch_total_;
    }
    // ALREADY_EXISTS means the unit is live (cached, queued or loading):
    // the prefetch is moot and occupies no window slot. Other failures
    // drop the ticket — speculative work is best-effort by definition.
  }
}

GboServer::SessionState* GboServer::NextSessionLocked(Lane lane,
                                                      bool interactive_only) {
  const size_t n = active_.size();
  size_t& cursor = cursor_[lane];
  // Every session is visited at most twice (once to replenish an empty
  // deficit, once to serve), so 2n scans bound the search.
  for (size_t scanned = 0; scanned < 2 * n; ++scanned) {
    SessionState* session = active_[cursor % n];
    const bool empty = lane == kDemandLane  ? session->demand_q.empty()
                       : lane == kBatchLane ? session->batch_q.empty()
                                            : session->prefetch_q.empty();
    const bool blocked =
        (interactive_only &&
         session->config.priority != PriorityClass::kInteractive) ||
        (lane != kPrefetchLane && session->config.max_inflight_loads > 0 &&
         session->inflight >= session->config.max_inflight_loads);
    int& deficit = session->deficit[lane];
    if (empty || blocked) {
      deficit = 0;
      cursor = (cursor + 1) % n;
      continue;
    }
    if (deficit <= 0) deficit = QuantumFor(*session);
    if (--deficit <= 0) cursor = (cursor + 1) % n;
    return session;
  }
  return nullptr;
}

bool GboServer::GrantBatchLocked(bool interactive_only) {
  SessionState* session = NextSessionLocked(kBatchLane, interactive_only);
  if (session == nullptr) return false;
  BatchTicket ticket = std::move(session->batch_q.front());
  session->batch_q.pop_front();
  --queued_total_;
  ++session->counters.batch_granted;
  ++session->counters.reads_admitted;
  if (options_.record_dispatch_log) {
    AppendLogLocked(&dispatch_log_, StrCat("batch ", session->config.name,
                                           ":", ticket.unit_name));
  }
  // Hand the unit to the pool (held across the non-blocking Gbo call on
  // purpose; kGboServer ranks below kGboMu). A successful hand-off holds
  // one demand-window slot until the unit settles, observed through the
  // server's own watch — the submitting thread is parked in
  // AwaitBatchSettle, not here.
  Status added = db_->AddUnit(ticket.unit_name, std::move(ticket.read_fn),
                              std::move(ticket.resources));
  if (added.ok()) {
    ++inflight_demand_;
    ++session->inflight;
    granted_batches_.insert({ticket.unit_name, session->id});
  } else if (added.code() == StatusCode::kAlreadyExists) {
    // The unit is live (cached, queued or loading): the batch is
    // satisfied by the existing copy and occupies no window slot. The
    // waiter still owns waiting for readiness (WaitUnit after settle).
    session->batch_done[ticket.unit_name] = Status::Ok();
    ticket_cv_.NotifyAll();
  } else {
    // Typed grant failure (quarantined file, shutdown): surface it to the
    // waiter; no window slot was consumed.
    session->batch_done[ticket.unit_name] = added;
    ticket_cv_.NotifyAll();
  }
  return true;
}

void GboServer::ApplyPressureLocked(PressureState state) {
  if (AtLeast(state, PressureState::kSaturated)) {
    // Shed rung 1: cancel every queued speculative ticket, lowest
    // priority class first (victim order is recorded for the tests).
    for (PriorityClass cls : kShedOrder) {
      for (SessionState* session : active_) {
        if (session->config.priority != cls) continue;
        while (!session->prefetch_q.empty()) {
          if (options_.record_dispatch_log) {
            AppendLogLocked(&shed_log_,
                            StrCat("prefetch ", session->config.name, ":",
                                   session->prefetch_q.front().unit_name));
          }
          session->prefetch_q.pop_front();
          --queued_total_;
          ++session->counters.prefetches_shed;
        }
      }
    }
  }
  if (AtLeast(state, PressureState::kCritical)) ForceUnpinIdleLocked();
}

void GboServer::ForceUnpinIdleLocked() {
  // Shed rung 3: idle sessions (no queued or in-flight demand) holding
  // more than their pin budget give pins back, lowest class first,
  // name order within a session (deterministic victims).
  for (PriorityClass cls : kShedOrder) {
    for (SessionState* session : active_) {
      if (session->config.priority != cls) continue;
      if (session->config.max_pinned_bytes <= 0) continue;
      if (session->inflight > 0 || !session->demand_q.empty()) continue;
      while (session->pinned_bytes > session->config.max_pinned_bytes &&
             !session->pinned.empty()) {
        auto it = session->pinned.begin();
        if (options_.record_dispatch_log) {
          AppendLogLocked(&shed_log_, StrCat("unpin ", session->config.name,
                                             ":", it->first));
        }
        for (int pin = 0; pin < it->second.pins; ++pin) {
          // lint: discard_ok(best effort: the unit may already be gone)
          (void)db_->FinishUnit(it->first);
        }
        session->counters.forced_unpins += it->second.pins;
        session->pinned_bytes -= it->second.bytes;
        session->pinned.erase(it);
      }
    }
  }
}

void GboServer::CancelSessionTicketsLocked(SessionState* session,
                                           const Status& reason) {
  while (!session->demand_q.empty()) {
    Ticket* ticket = session->demand_q.front();
    session->demand_q.pop_front();
    --queued_total_;
    ticket->state = TicketState::kCancelled;
    ticket->cancel_reason = reason;
    ++session->counters.demand_shed;
  }
  while (!session->prefetch_q.empty()) {
    session->prefetch_q.pop_front();
    --queued_total_;
    ++session->counters.prefetches_shed;
  }
  while (!session->batch_q.empty()) {
    // Record the reason so a concurrent AwaitBatchSettle surfaces it
    // instead of spinning into NOT_FOUND.
    session->batch_done[session->batch_q.front().unit_name] = reason;
    session->batch_q.pop_front();
    --queued_total_;
    ++session->counters.demand_shed;
  }
}

void GboServer::ReleasePinsLocked(SessionState* session, bool forced) {
  for (auto& [unit_name, entry] : session->pinned) {
    for (int pin = 0; pin < entry.pins; ++pin) {
      // lint: discard_ok(best effort: the unit may already be gone)
      (void)db_->FinishUnit(unit_name);
    }
    if (forced) {
      session->counters.forced_unpins += entry.pins;
    }
  }
  session->pinned.clear();
  session->pinned_bytes = 0;
}

void GboServer::AppendLogLocked(std::vector<std::string>* log,
                                std::string entry) {
  if (log->size() >= kLogLimit) return;
  log->push_back(std::move(entry));
}

void GboServer::DeactivateLocked(SessionState* session) {
  auto pos = std::find(active_.begin(), active_.end(), session);
  if (pos != active_.end()) active_.erase(pos);
}

void GboServer::OnUnitEvent(const Gbo::WatchEvent& event) {
  if (event.kind == Gbo::WatchEventKind::kInvalidated) return;
  MutexLock lock(&mu_);
  bool changed = false;
  auto it = outstanding_prefetch_.find(event.unit_name);
  if (it != outstanding_prefetch_.end()) {
    if (--it->second <= 0) outstanding_prefetch_.erase(it);
    --outstanding_prefetch_total_;
    changed = true;
  }
  // A granted batch's unit settled: free its window slot and post the
  // settle to the owning session so AwaitBatchSettle wakes. The settle
  // status itself (kReady vs kFailed, the preserved error) is the unit's;
  // the waiter reads it through WaitUnit/GetUnitError — here we only
  // record that the grant ran to completion.
  auto range = granted_batches_.equal_range(event.unit_name);
  if (range.first != range.second) {
    for (auto granted = range.first; granted != range.second; ++granted) {
      --inflight_demand_;
      SessionState* session = FindSessionLocked(granted->second);
      if (session != nullptr) {
        --session->inflight;
        session->batch_done[event.unit_name] = Status::Ok();
      }
    }
    granted_batches_.erase(range.first, range.second);
    ticket_cv_.NotifyAll();
    changed = true;
  }
  if (changed) DispatchLocked();
}

}  // namespace godiva
