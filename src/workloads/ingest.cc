#include "workloads/ingest.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "workloads/block_schema.h"

namespace godiva::workloads {

// ---------------------------------------------------------------------
// IngestProducer.

IngestProducer::IngestProducer(PlatformRuntime* runtime, Gbo* db,
                               const mesh::SnapshotDataset* dataset,
                               IngestOptions options)
    : runtime_(runtime),
      db_(db),
      dataset_(dataset),
      options_(std::move(options)),
      blocks_(mesh::MakeBlocks(dataset->spec)),
      frontier_(options_.start_snapshot - 1) {}

bool IngestProducer::AwaitWindowSlot() {
  MutexLock lock(&mu_);
  if (options_.max_frontier_lag <= 0) return !stop_requested_;
  if (static_cast<int>(unacked_.size()) >= options_.max_frontier_lag &&
      !stop_requested_) {
    ++stats_.backpressure_stalls;
    Stopwatch stopwatch;
    while (static_cast<int>(unacked_.size()) >= options_.max_frontier_lag &&
           !stop_requested_) {
      cv_.Wait(&mu_);
    }
    stats_.stall_seconds += stopwatch.ElapsedSeconds();
  }
  return !stop_requested_;
}

Status IngestProducer::Run() {
  const mesh::DatasetSpec& spec = dataset_->spec;
  int count = options_.snapshots > 0
                  ? options_.snapshots
                  : spec.num_snapshots - options_.start_snapshot;
  mesh::SnapshotWriteOptions write_options;
  write_options.checksums = options_.checksums;
  write_options.atomic = options_.atomic_writes;
  Gbo::ReadFn read_fn =
      MakeSnapshotReadFn(runtime_, dataset_, options_.quantities,
                         options_.read);

  for (int i = 0; i < count; ++i) {
    int s = options_.start_snapshot + i;
    if (!AwaitWindowSlot()) return Status::Ok();

    // Write the snapshot's files; a failed attempt (typically a modeled
    // crash mid-file) is retried from the top — every file goes through
    // tmp+rename again, so a previous partial pass is harmless.
    bool written = false;
    for (int attempt = 1; attempt <= options_.max_write_attempts;
         ++attempt) {
      Result<int64_t> bytes = mesh::WriteOneSnapshot(
          runtime_->io_env(), spec, dataset_->prefix, blocks_, s,
          spec.TimeOf(s), write_options);
      if (bytes.ok()) {
        written = true;
        if (attempt > 1) {
          MutexLock lock(&mu_);
          ++stats_.rewrites;
        }
        break;
      }
      {
        MutexLock lock(&mu_);
        ++stats_.write_failures;
      }
      if (!options_.on_write_error) return bytes.status();
      if (!options_.on_write_error(s, bytes.status())) break;
    }
    if (!written) {
      MutexLock lock(&mu_);
      ++stats_.snapshots_abandoned;
      continue;
    }

    // Publish and window bookkeeping are one critical section: a fast
    // consumer can see the unit ready and AckFinished(s) the instant
    // SupersedeUnit returns, and an ack that raced ahead of the insert
    // would be lost, wedging the window full forever.
    MutexLock lock(&mu_);
    GODIVA_RETURN_IF_ERROR(
        db_->SupersedeUnit(SnapshotUnitName(s), read_fn,
                           dataset_->SnapshotFiles(s)));
    frontier_ = std::max(frontier_, s);
    unacked_.insert(s);
    ++stats_.snapshots_published;
  }
  return Status::Ok();
}

void IngestProducer::AckFinished(int snapshot) {
  MutexLock lock(&mu_);
  if (unacked_.erase(snapshot) > 0) cv_.NotifyAll();
}

void IngestProducer::RequestStop() {
  MutexLock lock(&mu_);
  stop_requested_ = true;
  cv_.NotifyAll();
}

int IngestProducer::frontier() const {
  MutexLock lock(&mu_);
  return frontier_;
}

int IngestProducer::lag() const {
  MutexLock lock(&mu_);
  return static_cast<int>(unacked_.size());
}

IngestStats IngestProducer::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

// ---------------------------------------------------------------------
// FrontierWatch.

FrontierWatch::FrontierWatch(Gbo* db) : db_(db) {
  watch_id_ = db_->RegisterWatch(
      "snap_*", [this](const Gbo::WatchEvent& event) { OnEvent(event); });
}

FrontierWatch::~FrontierWatch() {
  // lint: discard_ok(destructor: the only failure is an already-gone watch)
  (void)db_->UnregisterWatch(watch_id_);
}

void FrontierWatch::OnEvent(const Gbo::WatchEvent& event) {
  int snapshot = SnapshotOfUnit(event.unit_name);
  if (snapshot < 0) return;
  MutexLock lock(&mu_);
  switch (event.kind) {
    case Gbo::WatchEventKind::kReady: {
      int64_t& epoch = ready_[snapshot];
      epoch = std::max(epoch, event.epoch);
      frontier_ = std::max(frontier_, snapshot);
      ++ready_events_;
      break;
    }
    case Gbo::WatchEventKind::kFailed:
      ++failures_;
      break;
    case Gbo::WatchEventKind::kInvalidated: {
      int64_t& epoch = invalidated_[snapshot];
      epoch = std::max(epoch, event.epoch);
      ++invalidations_;
      break;
    }
  }
  cv_.NotifyAll();
}

bool FrontierWatch::ReadyLocked(int snapshot) const {
  auto ready = ready_.find(snapshot);
  if (ready == ready_.end()) return false;
  auto invalid = invalidated_.find(snapshot);
  return invalid == invalidated_.end() || ready->second >= invalid->second;
}

Status FrontierWatch::WaitForSnapshot(int snapshot, Duration timeout) {
  TimePoint deadline = Now() + timeout;
  MutexLock lock(&mu_);
  bool timed_out = false;
  while (!ReadyLocked(snapshot)) {
    if (timed_out) {
      return DeadlineExceededError(
          StrCat("snapshot ", snapshot, " not ready within ",
                 FormatSeconds(ToSeconds(timeout))));
    }
    timed_out = !cv_.WaitUntil(&mu_, deadline);
  }
  return Status::Ok();
}

int FrontierWatch::frontier() const {
  MutexLock lock(&mu_);
  return frontier_;
}

int64_t FrontierWatch::ready_events() const {
  MutexLock lock(&mu_);
  return ready_events_;
}

int64_t FrontierWatch::invalidations() const {
  MutexLock lock(&mu_);
  return invalidations_;
}

int64_t FrontierWatch::failures() const {
  MutexLock lock(&mu_);
  return failures_;
}

}  // namespace godiva::workloads
