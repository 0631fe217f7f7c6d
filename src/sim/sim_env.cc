#include "sim/sim_env.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_hooks.h"
#include "common/strings.h"

namespace godiva {

// Appends into the backing vector. Writes cost no modeled time: dataset
// generation is instant, which is what the experiments want.
class SimWritableFile : public WritableFile {
 public:
  explicit SimWritableFile(std::shared_ptr<SimEnv::FileData> data)
      : data_(std::move(data)) {}

  Status Append(const void* bytes, int64_t size) override {
    if (closed_) return FailedPreconditionError("file closed");
    const uint8_t* p = static_cast<const uint8_t*>(bytes);
    data_->bytes.insert(data_->bytes.end(), p, p + size);
    return Status::Ok();
  }

  Status Sync() override {
    // In-memory bytes are already "durable" within the simulation; crash
    // semantics are modeled by FaultInjectionEnv, not here.
    if (closed_) return FailedPreconditionError("file closed");
    return Status::Ok();
  }

  Status Close() override {
    closed_ = true;
    return Status::Ok();
  }

 private:
  std::shared_ptr<SimEnv::FileData> data_;
  bool closed_ = false;
};

class SimRandomAccessFile : public RandomAccessFile {
 public:
  SimRandomAccessFile(SimEnv* env, std::shared_ptr<SimEnv::FileData> data,
                      std::string path)
      : env_(env), data_(std::move(data)), path_(std::move(path)) {}

  Status Read(int64_t offset, int64_t size, void* out) override {
    int64_t file_size = static_cast<int64_t>(data_->bytes.size());
    if (offset < 0 || size < 0 || offset + size > file_size) {
      return OutOfRangeError(
          StrFormat("read [%lld, %lld) beyond size %lld of %s",
                    static_cast<long long>(offset),
                    static_cast<long long>(offset + size),
                    static_cast<long long>(file_size), path_.c_str()));
    }
    env_->ChargeRead(data_.get(), offset, size);
    std::memcpy(out, data_->bytes.data() + offset, static_cast<size_t>(size));
    return Status::Ok();
  }

  int64_t Size() const override {
    return static_cast<int64_t>(data_->bytes.size());
  }

 private:
  SimEnv* env_;
  std::shared_ptr<SimEnv::FileData> data_;
  std::string path_;
};

SimEnv::SimEnv(Options options)
    : disk_(options.disk), time_scale_(options.time_scale) {
  if (disk_.queue_depth > 1) {
    disk_gate_ = std::make_unique<Semaphore>(disk_.queue_depth);
  }
}

Result<std::unique_ptr<WritableFile>> SimEnv::NewWritableFile(
    const std::string& path) {
  MutexLock lock(&fs_mutex_);
  auto data = std::make_shared<FileData>();
  files_[path] = data;  // truncating create
  return std::unique_ptr<WritableFile>(
      std::make_unique<SimWritableFile>(std::move(data)));
}

Result<std::unique_ptr<RandomAccessFile>> SimEnv::NewRandomAccessFile(
    const std::string& path) {
  MutexLock lock(&fs_mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return NotFoundError(StrCat("no such file: ", path));
  return std::unique_ptr<RandomAccessFile>(
      std::make_unique<SimRandomAccessFile>(this, it->second, path));
}

bool SimEnv::FileExists(const std::string& path) const {
  MutexLock lock(&fs_mutex_);
  return files_.count(path) > 0;
}

Result<int64_t> SimEnv::GetFileSize(const std::string& path) const {
  MutexLock lock(&fs_mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return NotFoundError(StrCat("no such file: ", path));
  return static_cast<int64_t>(it->second->bytes.size());
}

Status SimEnv::DeleteFile(const std::string& path) {
  MutexLock lock(&fs_mutex_);
  if (files_.erase(path) == 0) {
    return NotFoundError(StrCat("no such file: ", path));
  }
  return Status::Ok();
}

Status SimEnv::RenameFile(const std::string& from, const std::string& to) {
  MutexLock lock(&fs_mutex_);
  auto it = files_.find(from);
  if (it == files_.end()) {
    return NotFoundError(StrCat("no such file: ", from));
  }
  if (from == to) return Status::Ok();
  files_[to] = it->second;  // replaces `to` if present, like POSIX rename
  files_.erase(from);
  return Status::Ok();
}

Result<std::vector<std::string>> SimEnv::ListFiles(
    const std::string& prefix) const {
  MutexLock lock(&fs_mutex_);
  std::vector<std::string> out;
  for (const auto& [path, data] : files_) {
    if (StartsWith(path, prefix)) out.push_back(path);
  }
  return out;  // std::map iteration is already sorted
}

void SimEnv::ChargeRead(const FileData* file, int64_t offset, int64_t size) {
  Semaphore* gate = nullptr;
  const TimeScale* time_scale = nullptr;
  Duration batch;
  {
    MutexLock lock(&disk_mutex_);
    bool seek = (head_file_ != file || head_offset_ != offset);
    Duration total = std::chrono::duration_cast<Duration>(
        std::chrono::duration<double>(
            static_cast<double>(size) / disk_.bytes_per_second));
    if (seek) total += disk_.seek_time;
    head_file_ = file;
    head_offset_ = offset + size;
    ++stats_.reads;
    if (seek) ++stats_.seeks;
    stats_.bytes_read += size;
    stats_.modeled_read_seconds += ToSeconds(total);
    if (time_scale_ == nullptr) return;
    // Sub-millisecond (wall) delays accumulate and are paid in batches to
    // keep per-sleep OS overhead from distorting the model. Under a scope
    // (SleepModeled's own test) sleeps cost no wall time, so every access
    // pays its exact modeled duration — batching would only blur timing.
    pending_delay_ += total;
    if (!detail::SimHooksActive()) {
      double pending_wall = ToSeconds(pending_delay_) * time_scale_->scale();
      if (pending_wall < 0.001) return;
    }
    batch = pending_delay_;
    pending_delay_ = Duration::zero();
    if (disk_gate_ == nullptr) {
      // queue_depth 1: hold the head (mutex) across the modeled duration —
      // concurrent readers serialize exactly as on one spindle.
      time_scale_->SleepModeled(batch);
      return;
    }
    gate = disk_gate_.get();
    time_scale = time_scale_;
  }
  // queue_depth > 1: pay the wait outside the head lock, inside one of the
  // device's command-queue slots, so up to queue_depth transfers overlap.
  SemaphoreGuard slot(gate);
  time_scale->SleepModeled(batch);
}

std::unique_ptr<SimEnv> SimEnv::Clone(Options options) const {
  auto clone = std::make_unique<SimEnv>(options);
  // Copy the directory out under our own lock, then install it under the
  // clone's lock. The two critical sections are sequential, never nested:
  // all fs_mutex_ instances share one lock rank, so nesting them would (by
  // design) trip the lock-rank checker.
  std::map<std::string, std::shared_ptr<FileData>> copy;
  {
    MutexLock lock(&fs_mutex_);
    copy = files_;
  }
  {
    MutexLock clone_lock(&clone->fs_mutex_);
    clone->files_ = std::move(copy);
  }
  return clone;
}

void SimEnv::SetDiskModel(const DiskModel& disk) {
  MutexLock lock(&disk_mutex_);
  disk_ = disk;
  // Resize the command-queue gate. Destroying the old gate while a reader
  // sleeps in one of its slots is a use-after-free — the existing contract
  // (reconfigure only between experiment runs) already forbids that.
  if (disk.queue_depth <= 1) {
    disk_gate_.reset();
  } else if (disk_gate_ == nullptr ||
             disk_gate_->slots() != disk.queue_depth) {
    disk_gate_ = std::make_unique<Semaphore>(disk.queue_depth);
  }
}

void SimEnv::SetTimeScale(const TimeScale* time_scale) {
  MutexLock lock(&disk_mutex_);
  time_scale_ = time_scale;
}

void SimEnv::ClearTimeScale(const TimeScale* time_scale) {
  MutexLock lock(&disk_mutex_);
  if (time_scale_ == time_scale) time_scale_ = nullptr;
}

DiskStats SimEnv::stats() const {
  MutexLock lock(&disk_mutex_);
  return stats_;
}

void SimEnv::ResetStats() {
  MutexLock lock(&disk_mutex_);
  stats_ = DiskStats();
}

int64_t SimEnv::TotalFileBytes() const {
  MutexLock lock(&fs_mutex_);
  int64_t total = 0;
  for (const auto& [path, data] : files_) {
    total += static_cast<int64_t>(data->bytes.size());
  }
  return total;
}

}  // namespace godiva
