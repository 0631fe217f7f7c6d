#include <cinttypes>
#include <cstdio>

#include "bench.h"

namespace perfbench {

using godiva::Result;
using godiva::Status;

std::string RepResult::Fingerprint() const {
  std::string out;
  char buffer[160];
  auto add = [&](const char* key, double value) {
    std::snprintf(buffer, sizeof(buffer), "%s=%.17g;", key, value);
    out += buffer;
  };
  add("modeled_s", modeled_s);
  add("visible_io_s", visible_io_s);
  add("ops", static_cast<double>(ops));
  add("attempted", static_cast<double>(attempted));
  add("refused", static_cast<double>(refused));
  add("failed", static_cast<double>(failed));
  add("sched.grants", static_cast<double>(sched.grants));
  add("sched.timer_events", static_cast<double>(sched.timer_events));
  add("sched.virtual_seconds", sched.virtual_seconds);
  for (const auto& [name, value] : counts) add(name.c_str(), value);
  for (double sample : latency_ms) add("lat", sample);
  return out;
}

// --- ProbeEnv.

class ProbeFile final : public godiva::RandomAccessFile {
 public:
  ProbeFile(std::unique_ptr<godiva::RandomAccessFile> base, ProbeEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Read(int64_t offset, int64_t size, void* out) override {
    trace::Span span("gsdf.read");
    env_->reads_.fetch_add(1, std::memory_order_relaxed);
    env_->bytes_.fetch_add(size, std::memory_order_relaxed);
    return base_->Read(offset, size, out);
  }

  int64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<godiva::RandomAccessFile> base_;
  ProbeEnv* env_;
};

Result<std::unique_ptr<godiva::WritableFile>> ProbeEnv::NewWritableFile(
    const std::string& path) {
  return base_->NewWritableFile(path);
}

Result<std::unique_ptr<godiva::RandomAccessFile>>
ProbeEnv::NewRandomAccessFile(const std::string& path) {
  trace::Span span("gsdf.open");
  opens_.fetch_add(1, std::memory_order_relaxed);
  GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<godiva::RandomAccessFile> file,
                          base_->NewRandomAccessFile(path));
  return std::unique_ptr<godiva::RandomAccessFile>(
      std::make_unique<ProbeFile>(std::move(file), this));
}

bool ProbeEnv::FileExists(const std::string& path) const {
  return base_->FileExists(path);
}

Result<int64_t> ProbeEnv::GetFileSize(const std::string& path) const {
  return base_->GetFileSize(path);
}

Status ProbeEnv::DeleteFile(const std::string& path) {
  return base_->DeleteFile(path);
}

Status ProbeEnv::RenameFile(const std::string& from, const std::string& to) {
  return base_->RenameFile(from, to);
}

Result<std::vector<std::string>> ProbeEnv::ListFiles(
    const std::string& prefix) const {
  return base_->ListFiles(prefix);
}

godiva::Status AddIoCounts(const ProbeEnv& probe,
                           const godiva::DiskStats& disk,
                           std::map<std::string, double>* counts) {
  constexpr double kMib = 1024.0 * 1024.0;
  (*counts)["gsdf.read_calls"] = static_cast<double>(probe.reads());
  (*counts)["gsdf.read_mib"] = static_cast<double>(probe.bytes()) / kMib;
  (*counts)["gsdf.opens"] = static_cast<double>(probe.opens());
  (*counts)["sim.disk.reads"] = static_cast<double>(disk.reads);
  (*counts)["sim.disk.seeks"] = static_cast<double>(disk.seeks);
  (*counts)["sim.disk.read_mib"] = static_cast<double>(disk.bytes_read) / kMib;
  (*counts)["sim.disk.modeled_s"] = disk.modeled_read_seconds;
  if (probe.reads() != disk.reads) {
    return godiva::InternalError("gsdf reads and device reads disagree");
  }
  return Status::Ok();
}

// --- read functions.

godiva::Gbo::ReadFn WrapReadFn(
    godiva::Gbo::ReadFn inner, std::atomic<int64_t>* calls,
    std::function<int64_t(const std::string&)> request_of) {
  return [inner = std::move(inner), calls,
          request_of = std::move(request_of)](
             godiva::Gbo* db, const std::string& unit_name) -> Status {
    const int64_t saved = trace::CurrentRequest();
    if (request_of) trace::SetRequest(request_of(unit_name));
    calls->fetch_add(1, std::memory_order_relaxed);
    Status status;
    {
      trace::Span span("core.gbo.readfn");
      status = inner(db, unit_name);
    }
    trace::SetRequest(saved);
    return status;
  };
}

}  // namespace perfbench
