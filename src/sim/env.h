// Filesystem abstraction used by everything that touches files (the gsdf
// format, the mesh snapshot writer, user read functions). Two backends:
// PosixEnv (real disk) and SimEnv (in-memory files plus a seek/bandwidth
// delay model, for deterministic experiments on any host).
#ifndef GODIVA_SIM_ENV_H_
#define GODIVA_SIM_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace godiva {

// Append-only file handle.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const void* data, int64_t size) = 0;

  // Flushes buffered data to stable storage. After Sync() returns OK, the
  // bytes appended so far survive a crash of the process (and, for real
  // disks, of the machine).
  virtual Status Sync() = 0;

  virtual Status Close() = 0;
};

// Positioned-read file handle. Read() is non-const because backends track
// the head position for seek-cost modeling.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  // Reads exactly `size` bytes at `offset` into `out`. Fails with
  // OUT_OF_RANGE if the range extends past end of file.
  virtual Status Read(int64_t offset, int64_t size, void* out) = 0;

  virtual int64_t Size() const = 0;
};

// Factory for file handles plus basic metadata operations.
//
// Handle lifetime: a WritableFile or RandomAccessFile may call back into
// the Env that created it (SimEnv charges its disk model on every read;
// FaultInjectionEnv consults its fault plan), so a handle's methods may be
// called only while that Env is alive. The handle itself may be destroyed
// after it.
class Env {
 public:
  virtual ~Env() = default;

  // Creates (truncating) a file for sequential writing.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;

  virtual Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) = 0;

  virtual bool FileExists(const std::string& path) const = 0;
  virtual Result<int64_t> GetFileSize(const std::string& path) const = 0;
  virtual Status DeleteFile(const std::string& path) = 0;

  // Atomically renames `from` to `to`, replacing `to` if it exists. This is
  // the commit point of the gsdf temp-file write protocol: readers see
  // either the old file or the complete new one, never a partial write.
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;

  // All file paths with the given prefix, sorted.
  virtual Result<std::vector<std::string>> ListFiles(
      const std::string& prefix) const = 0;
};

// Process-wide Env backed by the real filesystem.
Env* GetPosixEnv();

}  // namespace godiva

#endif  // GODIVA_SIM_ENV_H_
