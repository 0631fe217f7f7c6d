// SimEnv: an in-memory filesystem whose reads charge modeled disk time
// (seek + transfer) through a single-head disk model. Deterministic
// substitute for the paper's IDE (Engle/ext2) and cluster (Turing/REISERFS)
// storage; see DESIGN.md §1.
#ifndef GODIVA_SIM_SIM_ENV_H_
#define GODIVA_SIM_SIM_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "sim/env.h"
#include "sim/virtual_time.h"

namespace godiva {

// One rotating disk: positioning cost per discontiguous access plus a
// sustained transfer rate.
struct DiskModel {
  Duration seek_time = std::chrono::milliseconds(9);
  double bytes_per_second = 35.0 * 1024 * 1024;
  // How many transfers the device services concurrently (its command-queue
  // depth). 1 models the paper's single-head IDE/SCSI spindle exactly: the
  // head is held for the whole modeled duration of each access. Values > 1
  // model queued devices (NVMe-class or striped arrays): each access still
  // pays its own seek+transfer time, but up to queue_depth of those waits
  // overlap, so an I/O pool with enough threads sees real speedup.
  int queue_depth = 1;
};

// Aggregate counters for everything read through a SimEnv.
struct DiskStats {
  int64_t reads = 0;
  int64_t seeks = 0;
  int64_t bytes_read = 0;
  double modeled_read_seconds = 0.0;
};

// File bytes live in kBlockBytes blocks that the env maps itself and hints
// for transparent huge pages; a file is a list of extents in those blocks.
// An append continues the writer's current block, so written bytes never
// move, and a new file continues the block the last closed writer left
// part-full. See DESIGN.md §1. Handles follow Env's lifetime rule: used
// only while this env is alive, destroyed whenever; a Clone is an env of
// its own and may outlive this one.
class SimEnv : public Env {
 public:
  static constexpr int64_t kBlockBytes = int64_t{2} << 20;

  struct Options {
    DiskModel disk;
    // If null, no delays are charged (instant in-memory reads) — handy for
    // unit tests that only care about contents.
    const TimeScale* time_scale = nullptr;
    // Ignored: an active DiscreteEventScope decides how delays are paid;
    // delete with the next perfbench change.
    SimMode sim_mode = SimMode::kScaledSleep;
  };

  explicit SimEnv(Options options);
  SimEnv(const SimEnv&) = delete;
  SimEnv& operator=(const SimEnv&) = delete;
  ~SimEnv() override = default;

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override EXCLUDES(fs_mutex_);
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override EXCLUDES(fs_mutex_);
  bool FileExists(const std::string& path) const override
      EXCLUDES(fs_mutex_);
  Result<int64_t> GetFileSize(const std::string& path) const override
      EXCLUDES(fs_mutex_);
  Status DeleteFile(const std::string& path) override EXCLUDES(fs_mutex_);
  Status RenameFile(const std::string& from, const std::string& to) override
      EXCLUDES(fs_mutex_);
  Result<std::vector<std::string>> ListFiles(
      const std::string& prefix) const override EXCLUDES(fs_mutex_);

  DiskStats stats() const EXCLUDES(disk_mutex_);
  void ResetStats() EXCLUDES(disk_mutex_);

  // Reconfigures the delay model at runtime (e.g. to replay the same file
  // set on different platform profiles). Takes the disk head, so it is
  // safe with concurrent reads, but reconfiguring mid-read-burst makes the
  // modeled times a mix of both models; call between experiment runs.
  void SetDiskModel(const DiskModel& disk) EXCLUDES(disk_mutex_);
  void SetTimeScale(const TimeScale* time_scale) EXCLUDES(disk_mutex_);
  // Installs null in place of `time_scale` if that is the installed one;
  // for owners of a TimeScale that may die before the env.
  void ClearTimeScale(const TimeScale* time_scale) EXCLUDES(disk_mutex_);

  // A new SimEnv with its own disk head/stats that shares this env's
  // current file contents (copy-on-nothing: files are immutable payloads).
  // Models several nodes holding replicas of the same dataset. Writes to
  // either env after cloning are NOT isolated for files that already
  // existed; clone only read-only datasets.
  std::unique_ptr<SimEnv> Clone(Options options) const EXCLUDES(fs_mutex_);

  // Total bytes held by all files (for memory-footprint assertions).
  int64_t TotalFileBytes() const EXCLUDES(fs_mutex_);

  // Blocks in use by every SimEnv in the process; 0 once every env, file
  // handle and clone is gone (one unhinted block may then stay mapped as a
  // spare for the next env). LeakSanitizer cannot see mmap, so tests check
  // this instead.
  static int64_t MappedBlocks();

 private:
  friend class SimWritableFile;
  friend class SimRandomAccessFile;

  class Block;     // kBlockBytes of mapped file bytes
  struct FileData;  // a file: its extents in blocks
  struct Tail;      // the block a writer fills, shared with the env

  // Charges the disk model for an access of `size` bytes at (`file`,
  // `offset`): takes the (single) disk head, pays seek if discontiguous,
  // pays transfer, sleeps the scaled total, updates stats.
  void ChargeRead(const FileData* file, int64_t offset, int64_t size)
      EXCLUDES(disk_mutex_);

  mutable Mutex fs_mutex_{lock_rank::kSimFilesystem, "SimEnv::fs_mutex_"};
  std::map<std::string, std::shared_ptr<FileData>> files_
      GUARDED_BY(fs_mutex_);
  // The last writer's tail: once that writer closes, the next file created
  // continues its part-full block.
  std::shared_ptr<Tail> last_tail_ GUARDED_BY(fs_mutex_);
  // False until the first writer is created. Its first block is not hinted,
  // so an env that only ever holds a few small files (tests make thousands)
  // never zeroes a whole huge page.
  bool hint_blocks_ GUARDED_BY(fs_mutex_) = false;

  // The disk head: held while the model computes an access's cost, and —
  // with queue_depth 1 — across the whole modeled duration too, so
  // concurrent readers serialize exactly as on one spindle. Scaled sleeps
  // shorter than ~1 ms of wall time are accumulated and paid in batches:
  // per-sleep OS overhead (~50–100 µs) would otherwise systematically
  // inflate seek-heavy access patterns.
  mutable Mutex disk_mutex_{lock_rank::kSimDisk, "SimEnv::disk_mutex_"};
  DiskModel disk_ GUARDED_BY(disk_mutex_);
  const TimeScale* time_scale_ GUARDED_BY(disk_mutex_);
  const FileData* head_file_ GUARDED_BY(disk_mutex_) = nullptr;
  int64_t head_offset_ GUARDED_BY(disk_mutex_) = 0;
  Duration pending_delay_ GUARDED_BY(disk_mutex_){};
  DiskStats stats_ GUARDED_BY(disk_mutex_);
  // Present iff queue_depth > 1: the device's command-queue slots. Modeled
  // waits are then paid OUTSIDE disk_mutex_, inside one of these slots, so
  // up to queue_depth transfers overlap. Only the owning pointer is
  // guarded; the Semaphore itself is internally synchronized.
  std::unique_ptr<Semaphore> disk_gate_ GUARDED_BY(disk_mutex_);
};

}  // namespace godiva

#endif  // GODIVA_SIM_SIM_ENV_H_
