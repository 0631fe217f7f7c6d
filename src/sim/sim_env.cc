#include "sim/sim_env.h"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_hooks.h"
#include "common/strings.h"

namespace godiva {

namespace {

std::atomic<int64_t> g_mapped_blocks{0};

// An unhinted block that no env uses any more, kept mapped for the next
// env's first block. Tests create thousands of small envs one after
// another; reusing the block spares each a mapping, an unmapping and a page
// fault, about 10 us of mostly system time per env.
std::atomic<uint8_t*> g_spare_block{nullptr};

// Maps kBlockBytes at a kBlockBytes-aligned address, so that a hinted block
// can be backed by one huge page: maps twice the size and trims both ends.
// Null if the kernel refuses.
uint8_t* MapAlignedBlock() {
  constexpr uintptr_t kBytes = SimEnv::kBlockBytes;
  void* p = mmap(nullptr, 2 * kBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return nullptr;
  const auto start = reinterpret_cast<uintptr_t>(p);
  const uintptr_t aligned = (start + kBytes - 1) / kBytes * kBytes;
  if (aligned > start) munmap(p, aligned - start);
  munmap(reinterpret_cast<void*>(aligned + kBytes), start + kBytes - aligned);
  return reinterpret_cast<uint8_t*>(aligned);
}

}  // namespace

// kBlockBytes of file bytes, mapped by SimEnv itself rather than through
// malloc. Owned jointly by every extent with bytes in it, the writer
// filling it and the env's part-full slot (a released Tail); the last owner
// to let go unmaps it, or parks it as the spare if it is unhinted.
class SimEnv::Block {
 public:
  // A block hinted for huge pages if `hint`; RESOURCE_EXHAUSTED if the
  // kernel refuses the mapping.
  static Result<std::shared_ptr<Block>> Map(bool hint) {
    uint8_t* bytes = nullptr;
    if (!hint) {
      bytes = g_spare_block.exchange(nullptr, std::memory_order_acquire);
    }
    if (bytes == nullptr) bytes = MapAlignedBlock();
    if (bytes == nullptr) {
      return ResourceExhaustedError(
          StrCat("SimEnv: cannot map a ", kBlockBytes, "-byte file block"));
    }
#ifdef MADV_HUGEPAGE
    if (hint) madvise(bytes, kBlockBytes, MADV_HUGEPAGE);
#endif
    return std::make_shared<Block>(bytes, hint);
  }

  Block(uint8_t* bytes, bool hinted) : bytes_(bytes), hinted_(hinted) {
    g_mapped_blocks.fetch_add(1, std::memory_order_relaxed);
  }
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;
  ~Block() {
    uint8_t* unmap = hinted_ ? bytes_
                             : g_spare_block.exchange(
                                   bytes_, std::memory_order_acq_rel);
    if (unmap != nullptr) munmap(unmap, kBlockBytes);
    g_mapped_blocks.fetch_sub(1, std::memory_order_relaxed);
  }

  uint8_t* bytes() const { return bytes_; }

 private:
  uint8_t* const bytes_;
  const bool hinted_;
};

// A file: runs of bytes in blocks, in file order and back to back.
struct SimEnv::FileData {
  struct Extent {
    std::shared_ptr<Block> block;  // keeps `bytes` mapped
    const uint8_t* bytes;
    int64_t offset;  // in the file
    int64_t size;
  };
  std::vector<Extent> extents;
  int64_t size = 0;

  // Records `n` bytes just written at `bytes` in `block` as the file's next
  // bytes, growing the last extent when they continue it.
  void Extend(const std::shared_ptr<Block>& block, const uint8_t* bytes,
              int64_t n) {
    if (!extents.empty() && extents.back().block == block &&
        extents.back().bytes + extents.back().size == bytes) {
      extents.back().size += n;
    } else {
      extents.push_back({block, bytes, size, n});
    }
    size += n;
  }

  // Copies [offset, offset + n), which the caller has checked lies inside
  // the file, into `out`.
  void CopyOut(int64_t offset, int64_t n, uint8_t* out) const {
    auto it = std::upper_bound(
        extents.begin(), extents.end(), offset,
        [](int64_t at, const Extent& e) { return at < e.offset + e.size; });
    for (; n > 0; ++it) {
      int64_t skip = offset - it->offset;
      int64_t take = std::min(n, it->size - skip);
      std::memcpy(out, it->bytes + skip, static_cast<size_t>(take));
      out += take;
      offset += take;
      n -= take;
    }
  }
};

// The block a writer fills. The env keeps the last writer's tail; once the
// writer sets `released`, only the env touches the other fields, and the
// next writer created takes over the block.
struct SimEnv::Tail {
  std::shared_ptr<Block> block;  // null until the first append
  int64_t used = 0;              // bytes of `block` already written
  bool hint = true;              // whether the next block mapped is hinted
  std::atomic<bool> released{false};
};

// Appends into the writer's current block and maps the next one when it is
// full, so written bytes never move. Writes cost no modeled time: dataset
// generation is instant, which is what the experiments want.
class SimWritableFile : public WritableFile {
 public:
  SimWritableFile(std::shared_ptr<SimEnv::FileData> data,
                  std::shared_ptr<SimEnv::Tail> tail)
      : data_(std::move(data)), tail_(std::move(tail)) {}
  ~SimWritableFile() override { Release(); }

  Status Append(const void* bytes, int64_t size) override {
    if (closed_) return FailedPreconditionError("file closed");
    const uint8_t* p = static_cast<const uint8_t*>(bytes);
    SimEnv::Tail& tail = *tail_;
    while (size > 0) {
      if (tail.block == nullptr || tail.used == SimEnv::kBlockBytes) {
        GODIVA_ASSIGN_OR_RETURN(tail.block, SimEnv::Block::Map(tail.hint));
        tail.used = 0;
        tail.hint = true;
      }
      int64_t n = std::min(size, SimEnv::kBlockBytes - tail.used);
      uint8_t* dst = tail.block->bytes() + tail.used;
      std::memcpy(dst, p, static_cast<size_t>(n));
      data_->Extend(tail.block, dst, n);
      tail.used += n;
      p += n;
      size -= n;
    }
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
    Release();
    return Status::Ok();
  }

 private:
  // Hands the part-full block to the next file the env creates.
  void Release() { tail_->released.store(true, std::memory_order_release); }

  std::shared_ptr<SimEnv::FileData> data_;
  std::shared_ptr<SimEnv::Tail> tail_;
  bool closed_ = false;
};

class SimRandomAccessFile : public RandomAccessFile {
 public:
  SimRandomAccessFile(SimEnv* env, std::shared_ptr<SimEnv::FileData> data,
                      std::string path)
      : env_(env), data_(std::move(data)), path_(std::move(path)) {}

  Status Read(int64_t offset, int64_t size, void* out) override {
    int64_t file_size = data_->size;
    if (offset < 0 || size < 0 || offset > file_size ||
        size > file_size - offset) {
      return OutOfRangeError(
          StrFormat("read of %lld bytes at %lld beyond size %lld of %s",
                    static_cast<long long>(size),
                    static_cast<long long>(offset),
                    static_cast<long long>(file_size), path_.c_str()));
    }
    env_->ChargeRead(data_.get(), offset, size);
    data_->CopyOut(offset, size, static_cast<uint8_t*>(out));
    return Status::Ok();
  }

  int64_t Size() const override { return data_->size; }

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
  auto tail = std::make_shared<Tail>();
  if (last_tail_ != nullptr &&
      last_tail_->released.load(std::memory_order_acquire)) {
    tail->block = std::move(last_tail_->block);
    tail->used = last_tail_->used;
  }
  tail->hint = std::exchange(hint_blocks_, true);
  last_tail_ = tail;
  files_[path] = data;  // truncating create
  return std::unique_ptr<WritableFile>(
      std::make_unique<SimWritableFile>(std::move(data), std::move(tail)));
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
  return it->second->size;
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

int64_t SimEnv::MappedBlocks() {
  return g_mapped_blocks.load(std::memory_order_relaxed);
}

int64_t SimEnv::TotalFileBytes() const {
  MutexLock lock(&fs_mutex_);
  int64_t total = 0;
  for (const auto& [path, data] : files_) {
    total += data->size;
  }
  return total;
}

}  // namespace godiva
