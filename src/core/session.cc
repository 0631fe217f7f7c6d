#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "core/server.h"

namespace godiva {

namespace {

// Demand-latency samples each session keeps behind its stats()
// percentiles: the most recent reads.
constexpr size_t kLatencySampleCapacity = 4096;

// Linear-interpolated percentile over an unsorted sample set (the same
// rank convention the bench harnesses use). 0 on an empty set.
double PercentileOf(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

}  // namespace

std::string_view PriorityClassName(PriorityClass priority) {
  switch (priority) {
    case PriorityClass::kInteractive:
      return "interactive";
    case PriorityClass::kBatch:
      return "batch";
    case PriorityClass::kBackground:
      return "background";
  }
  return "unknown";
}

GboSession::GboSession(GboServer* server, int64_t id, SessionConfig config)
    : server_(server), id_(id), config_(std::move(config)) {}

GboSession::~GboSession() {
  Close();
  server_->ReleaseSession(id_);
}

bool GboSession::InNamespaceView(const std::string& name) const {
  const std::string& ns = config_.unit_namespace;
  return ns.empty() ||
         (name.size() >= ns.size() && name.compare(0, ns.size(), ns) == 0);
}

Status GboSession::CheckNamespace(const std::string& name,
                                  std::string_view what) const {
  if (InNamespaceView(name)) return Status::Ok();
  return InvalidArgumentError(StrCat(what, " ", name,
                                     " is outside the session namespace ",
                                     config_.unit_namespace));
}

Status GboSession::Read(const std::string& unit_name, Gbo::ReadFn read_fn) {
  return ReadInternal(unit_name, std::move(read_fn), nullptr);
}

Status GboSession::ReadFor(const std::string& unit_name, Gbo::ReadFn read_fn,
                           Duration timeout) {
  TimePoint deadline = Now() + timeout;
  return ReadInternal(unit_name, std::move(read_fn), &deadline);
}

Status GboSession::ReadInternal(const std::string& unit_name,
                                Gbo::ReadFn read_fn,
                                const TimePoint* deadline) {
  if (unit_name.empty()) return InvalidArgumentError("unit name is empty");
  GODIVA_RETURN_IF_ERROR(CheckNamespace(unit_name, "unit"));
  Stopwatch stopwatch;
  Status granted = server_->AwaitDemandGrant(id_, unit_name, deadline);
  if (!granted.ok()) return granted;
  // The grant is a dispatch slot; settle it exactly once below.
  Status read =
      deadline == nullptr
          ? server_->db()->ReadUnit(unit_name, std::move(read_fn))
          : server_->db()->ReadUnitFor(unit_name, std::move(read_fn),
                                       *deadline - Now());
  server_->NoteDemandResult(id_, unit_name, read,
                            stopwatch.ElapsedSeconds() * 1e3);
  return read;
}

Status GboSession::Prefetch(const std::string& unit_name,
                            Gbo::ReadFn read_fn) {
  if (unit_name.empty()) return InvalidArgumentError("unit name is empty");
  GODIVA_RETURN_IF_ERROR(CheckNamespace(unit_name, "unit"));
  return server_->RequestPrefetch(id_, unit_name, std::move(read_fn));
}

Status GboSession::SubmitBatchSet(std::vector<SessionBatchRequest> batches) {
  std::vector<GboServer::BatchTicket> tickets;
  tickets.reserve(batches.size());
  for (SessionBatchRequest& request : batches) {
    if (request.unit_name.empty()) {
      return InvalidArgumentError("unit name is empty");
    }
    GODIVA_RETURN_IF_ERROR(CheckNamespace(request.unit_name, "unit"));
    tickets.push_back(GboServer::BatchTicket{std::move(request.unit_name),
                                             std::move(request.read_fn),
                                             std::move(request.resources)});
  }
  return server_->SubmitBatchSet(id_, std::move(tickets));
}

Status GboSession::AwaitBatchSettle(const std::string& unit_name,
                                    const TimePoint* deadline) {
  GODIVA_RETURN_IF_ERROR(CheckNamespace(unit_name, "unit"));
  return server_->AwaitBatchSettle(id_, unit_name, deadline);
}

Status GboSession::WithdrawBatch(const std::string& unit_name) {
  GODIVA_RETURN_IF_ERROR(CheckNamespace(unit_name, "unit"));
  return server_->WithdrawBatch(id_, unit_name);
}

Status GboSession::AdoptPlanPin(const std::string& unit_name,
                                double elapsed_ms) {
  GODIVA_RETURN_IF_ERROR(CheckNamespace(unit_name, "unit"));
  return server_->AdoptPlanPin(id_, unit_name, elapsed_ms);
}

Status GboSession::Finish(const std::string& unit_name) {
  GODIVA_RETURN_IF_ERROR(CheckNamespace(unit_name, "unit"));
  return server_->FinishUnitFor(id_, unit_name);
}

Result<int64_t> GboSession::Watch(const std::string& glob, Gbo::WatchFn fn) {
  GODIVA_RETURN_IF_ERROR(CheckNamespace(glob, "watch glob"));
  return server_->RegisterSessionWatch(id_, glob, std::move(fn));
}

Status GboSession::Unwatch(int64_t watch_id) {
  return server_->UnregisterSessionWatch(id_, watch_id);
}

void GboSession::Close() { server_->CloseSession(id_); }

bool GboSession::closed() const { return server_->SessionClosed(id_); }

SessionStats GboSession::stats() const {
  return server_->SessionStatsFor(id_);
}

void GboSession::RecordDemandLatency(double ms) {
  MutexLock lock(&mu_);
  if (samples_.size() < kLatencySampleCapacity) {
    samples_.push_back(ms);
  } else {
    // Overwrite the oldest sample: the window always holds the most
    // recent kLatencySampleCapacity demand reads.
    samples_[static_cast<size_t>(samples_seen_) % kLatencySampleCapacity] =
        ms;
  }
  ++samples_seen_;
}

void GboSession::FillLatency(SessionStats* stats) const {
  MutexLock lock(&mu_);
  stats->demand_samples = samples_seen_;
  stats->demand_p50_ms = PercentileOf(samples_, 0.50);
  stats->demand_p99_ms = PercentileOf(samples_, 0.99);
}

}  // namespace godiva
