#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "sim/env.h"

namespace godiva {
namespace {

Status ErrnoError(std::string_view op, const std::string& path) {
  return IoError(StrCat(op, " ", path, ": ", std::strerror(errno)));
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(const void* data, int64_t size) override {
    if (file_ == nullptr) return FailedPreconditionError("file closed");
    if (std::fwrite(data, 1, static_cast<size_t>(size), file_) !=
        static_cast<size_t>(size)) {
      return ErrnoError("write", path_);
    }
    return Status::Ok();
  }

  Status Sync() override {
    if (file_ == nullptr) return FailedPreconditionError("file closed");
    if (std::fflush(file_) != 0) return ErrnoError("flush", path_);
    if (::fsync(::fileno(file_)) != 0) return ErrnoError("fsync", path_);
    return Status::Ok();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::Ok();
    int rc = std::fclose(file_);
    file_ = nullptr;
    if (rc != 0) return ErrnoError("close", path_);
    return Status::Ok();
  }

 private:
  std::FILE* file_;
  std::string path_;
};

// Positional pread on a raw fd: no shared file position, so concurrent
// reads from the I/O pool need no serialization.
class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(int fd, int64_t size, std::string path)
      : fd_(fd), size_(size), path_(std::move(path)) {}
  ~PosixRandomAccessFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(int64_t offset, int64_t size, void* out) override {
    if (offset < 0 || size < 0 || offset > size_ || size > size_ - offset) {
      return OutOfRangeError(
          StrFormat("read of %lld bytes at %lld beyond size %lld of %s",
                    static_cast<long long>(size),
                    static_cast<long long>(offset),
                    static_cast<long long>(size_), path_.c_str()));
    }
    char* dst = static_cast<char*>(out);
    int64_t remaining = size;
    int64_t position = offset;
    while (remaining > 0) {
      ssize_t n = ::pread(fd_, dst, static_cast<size_t>(remaining),
                          static_cast<off_t>(position));
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoError("pread", path_);
      }
      if (n == 0) {
        return IoError(StrCat("pread ", path_, ": unexpected EOF"));
      }
      dst += n;
      remaining -= n;
      position += n;
    }
    return Status::Ok();
  }

  int64_t Size() const override { return size_; }

 private:
  int fd_;
  int64_t size_;
  std::string path_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) return ErrnoError("open for write", path);
    return std::unique_ptr<WritableFile>(
        std::make_unique<PosixWritableFile>(file, path));
  }

  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return ErrnoError("open for read", path);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      Status status = ErrnoError("fstat", path);
      ::close(fd);
      return status;
    }
    return std::unique_ptr<RandomAccessFile>(
        std::make_unique<PosixRandomAccessFile>(
            fd, static_cast<int64_t>(st.st_size), path));
  }

  bool FileExists(const std::string& path) const override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Result<int64_t> GetFileSize(const std::string& path) const override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) return ErrnoError("stat", path);
    return static_cast<int64_t>(st.st_size);
  }

  Status DeleteFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return ErrnoError("unlink", path);
    return Status::Ok();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return ErrnoError("rename", from);
    }
    return Status::Ok();
  }

  Result<std::vector<std::string>> ListFiles(
      const std::string& prefix) const override {
    // Split the prefix into a directory part and a basename-prefix part.
    std::string dir = ".";
    std::string base_prefix = prefix;
    size_t slash = prefix.find_last_of('/');
    if (slash != std::string::npos) {
      dir = prefix.substr(0, slash);
      if (dir.empty()) dir = "/";
      base_prefix = prefix.substr(slash + 1);
    }
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return ErrnoError("opendir", dir);
    std::vector<std::string> out;
    while (struct dirent* entry = ::readdir(d)) {
      std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      if (!StartsWith(name, base_prefix)) continue;
      out.push_back(dir == "." ? name : StrCat(dir, "/", name));
    }
    ::closedir(d);
    std::sort(out.begin(), out.end());
    return out;
  }
};

}  // namespace

Env* GetPosixEnv() {
  static PosixEnv* env = new PosixEnv();
  return env;
}

}  // namespace godiva
