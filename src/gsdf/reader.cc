#include "gsdf/reader.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/strings.h"
#include "gsdf/format.h"

namespace godiva::gsdf {
namespace {

// Bounds-checked cursor over a byte buffer.
class Cursor {
 public:
  Cursor(const uint8_t* data, int64_t size) : data_(data), size_(size) {}

  Result<uint32_t> ReadU32() {
    GODIVA_RETURN_IF_ERROR(Need(4));
    uint32_t value = DecodeU32(data_ + pos_);
    pos_ += 4;
    return value;
  }

  Result<uint64_t> ReadU64() {
    GODIVA_RETURN_IF_ERROR(Need(8));
    uint64_t value = DecodeU64(data_ + pos_);
    pos_ += 8;
    return value;
  }

  Result<uint8_t> ReadU8() {
    GODIVA_RETURN_IF_ERROR(Need(1));
    return data_[pos_++];
  }

  Result<std::string> ReadString() {
    GODIVA_ASSIGN_OR_RETURN(uint32_t length, ReadU32());
    GODIVA_RETURN_IF_ERROR(Need(length));
    std::string out(reinterpret_cast<const char*>(data_ + pos_), length);
    pos_ += length;
    return out;
  }

  int64_t remaining() const { return size_ - pos_; }
  int64_t position() const { return pos_; }

  Result<AttributeList> ReadAttributes() {
    GODIVA_ASSIGN_OR_RETURN(uint32_t count, ReadU32());
    // Each attribute needs at least two length prefixes (8 bytes); a count
    // beyond that is corruption — reject before reserving memory for it.
    if (static_cast<int64_t>(count) > remaining() / 8) {
      return DataLossError("gsdf attribute count exceeds directory size");
    }
    AttributeList attrs;
    attrs.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      GODIVA_ASSIGN_OR_RETURN(std::string key, ReadString());
      GODIVA_ASSIGN_OR_RETURN(std::string value, ReadString());
      attrs.emplace_back(std::move(key), std::move(value));
    }
    return attrs;
  }

 private:
  Status Need(int64_t n) {
    if (pos_ + n > size_) {
      return DataLossError("gsdf directory truncated");
    }
    return Status::Ok();
  }

  const uint8_t* data_;
  int64_t size_;
  int64_t pos_ = 0;
};

// INVALID_ARGUMENT unless a buffer of `out_bytes` holds all of `info`.
Status CheckBufferSize(const DatasetInfo& info, int64_t out_bytes) {
  if (out_bytes >= info.nbytes) return Status::Ok();
  return InvalidArgumentError(
      StrFormat("buffer of %lld bytes too small for dataset %s (%lld)",
                static_cast<long long>(out_bytes), info.name.c_str(),
                static_cast<long long>(info.nbytes)));
}

}  // namespace

const std::string* DatasetInfo::FindAttribute(const std::string& key) const {
  for (const auto& [attr_key, attr_value] : attributes) {
    if (attr_key == key) return &attr_value;
  }
  return nullptr;
}

Reader::Reader(Env* env, std::string path)
    : path_(std::move(path)), env_(env) {}

Result<std::unique_ptr<Reader>> Reader::Open(Env* env,
                                             const std::string& path) {
  auto reader = std::unique_ptr<Reader>(new Reader(env, path));
  GODIVA_RETURN_IF_ERROR(reader->Load());
  return reader;
}

Result<std::unique_ptr<Reader>> Reader::OpenSalvage(Env* env,
                                                    const std::string& path) {
  auto reader = std::unique_ptr<Reader>(new Reader(env, path));
  Status status = reader->Load();
  if (status.ok()) return reader;
  // A structurally broken file falls back to the recovery scan; an
  // unreadable one (missing, I/O error) does not — there is nothing to scan.
  if (reader->file_ == nullptr) return status;
  reader->datasets_.clear();
  reader->by_name_.clear();
  reader->file_attributes_.clear();
  reader->salvaged_ = true;
  reader->salvage_error_ = status;
  GODIVA_RETURN_IF_ERROR(reader->LoadSalvage());
  return reader;
}

Status Reader::Load() {
  GODIVA_ASSIGN_OR_RETURN(file_, env_->NewRandomAccessFile(path_));
  int64_t file_size = file_->Size();
  if (file_size < kHeaderSize + kFooterSizeV1) {
    return DataLossError(StrCat(path_, ": too small to be a gsdf file"));
  }

  uint8_t header[kHeaderSize];
  GODIVA_RETURN_IF_ERROR(file_->Read(0, kHeaderSize, header));
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return DataLossError(StrCat(path_, ": bad gsdf magic"));
  }
  uint32_t version = DecodeU32(header + 4);
  if (!IsSupportedVersion(version)) {
    return DataLossError(
        StrFormat("%s: unsupported gsdf version %u", path_.c_str(), version));
  }
  version_ = version;
  const int64_t footer_size = FooterSizeForVersion(version);
  if (file_size < kHeaderSize + footer_size) {
    return DataLossError(StrCat(path_, ": too small to be a gsdf file"));
  }

  uint8_t footer[kFooterSize];  // large enough for either version
  GODIVA_RETURN_IF_ERROR(
      file_->Read(file_size - footer_size, footer_size, footer));
  if (std::memcmp(footer + footer_size - 4, kFooterMagic,
                  sizeof(kFooterMagic)) != 0) {
    return DataLossError(StrCat(path_, ": bad gsdf footer magic"));
  }
  int64_t dir_offset = static_cast<int64_t>(DecodeU64(footer));
  int64_t dataset_count = static_cast<int64_t>(DecodeU64(footer + 8));
  if (dir_offset < kHeaderSize || dir_offset > file_size - footer_size) {
    return DataLossError(StrCat(path_, ": directory offset out of range"));
  }

  int64_t dir_size = file_size - footer_size - dir_offset;
  std::vector<uint8_t> dir_bytes(static_cast<size_t>(dir_size));
  GODIVA_RETURN_IF_ERROR(file_->Read(dir_offset, dir_size, dir_bytes.data()));

  if (version >= kVersion) {
    // v2 tail CRC covers [dir_offset, file_size - 8): the directory bytes
    // plus the footer's dir_offset and dataset_count fields.
    uint32_t computed = Crc32(dir_bytes.data(), dir_size);
    computed = Crc32(footer, 16, computed);
    uint32_t stored = DecodeU32(footer + 16);
    if (computed != stored) {
      return DataLossError(StrFormat(
          "%s: directory CRC mismatch (stored %08x, computed %08x)",
          path_.c_str(), stored, computed));
    }
  }

  // A directory entry is at least name-length + type + offset + size +
  // attribute-count = 25 bytes; a larger claimed count is corruption.
  if (dataset_count < 0 || dataset_count > dir_size / 25) {
    return DataLossError(
        StrCat(path_, ": dataset count exceeds directory size"));
  }

  Cursor cursor(dir_bytes.data(), dir_size);
  datasets_.reserve(static_cast<size_t>(dataset_count));
  for (int64_t i = 0; i < dataset_count; ++i) {
    DatasetInfo info;
    GODIVA_ASSIGN_OR_RETURN(info.name, cursor.ReadString());
    GODIVA_ASSIGN_OR_RETURN(uint8_t raw_type, cursor.ReadU8());
    if (!IsValidDataType(raw_type)) {
      return DataLossError(
          StrFormat("%s: dataset %s has invalid type %u", path_.c_str(),
                    info.name.c_str(), raw_type));
    }
    info.type = static_cast<DataType>(raw_type);
    GODIVA_ASSIGN_OR_RETURN(uint64_t offset, cursor.ReadU64());
    GODIVA_ASSIGN_OR_RETURN(uint64_t nbytes, cursor.ReadU64());
    info.offset = static_cast<int64_t>(offset);
    info.nbytes = static_cast<int64_t>(nbytes);
    // Payloads precede the directory. Compared without forming
    // offset + nbytes, which a hostile entry can overflow.
    if (info.nbytes < 0 || info.offset < kHeaderSize ||
        info.offset > dir_offset || info.nbytes > dir_offset - info.offset) {
      return DataLossError(StrCat(path_, ": dataset ", info.name,
                                  " payload out of range"));
    }
    // The writer refuses such a size, so only corruption produces one.
    if (info.nbytes % SizeOf(info.type) != 0) {
      return DataLossError(StrCat(path_, ": dataset ", info.name, " size ",
                                  info.nbytes,
                                  " is not a multiple of element size ",
                                  SizeOf(info.type)));
    }
    GODIVA_ASSIGN_OR_RETURN(info.attributes, cursor.ReadAttributes());
    datasets_.push_back(std::move(info));
  }
  GODIVA_ASSIGN_OR_RETURN(file_attributes_, cursor.ReadAttributes());
  IndexDirectory();
  return Status::Ok();
}

void Reader::IndexDirectory() {
  by_name_.resize(datasets_.size());
  for (size_t i = 0; i < by_name_.size(); ++i) {
    by_name_[i] = static_cast<uint32_t>(i);
  }
  std::sort(by_name_.begin(), by_name_.end(), [this](uint32_t a, uint32_t b) {
    const int order = datasets_[a].name.compare(datasets_[b].name);
    return order < 0 || (order == 0 && a < b);
  });
}

namespace {

// A directory entry is at least name_len + 1-char name + type + offset +
// nbytes + attr count.
constexpr int64_t kMinEntrySize = 4 + 1 + 1 + 8 + 8 + 4;

}  // namespace

int64_t Reader::TrySalvageEntry(const uint8_t* data, int64_t pos,
                                int64_t size, DatasetInfo* out) const {
  Cursor cursor(data + pos, size - pos);
  Result<std::string> name = cursor.ReadString();
  if (!name.ok() || name->empty() || name->size() > 4096) return -1;
  for (char c : *name) {
    if (c < 0x20 || c > 0x7e) return -1;  // gsdf names are printable ASCII
  }
  Result<uint8_t> raw_type = cursor.ReadU8();
  if (!raw_type.ok() || !IsValidDataType(*raw_type)) return -1;
  Result<uint64_t> offset = cursor.ReadU64();
  Result<uint64_t> nbytes = cursor.ReadU64();
  if (!offset.ok() || !nbytes.ok()) return -1;
  int64_t payload_offset = static_cast<int64_t>(*offset);
  int64_t payload_bytes = static_cast<int64_t>(*nbytes);
  if (payload_bytes < 0 || payload_offset < kHeaderSize ||
      payload_bytes > pos || payload_offset > pos - payload_bytes) {
    return -1;  // payloads always precede the directory
  }
  if (payload_bytes % SizeOf(static_cast<DataType>(*raw_type)) != 0) {
    return -1;  // the writer never stores a partial element
  }
  Result<AttributeList> attributes = cursor.ReadAttributes();
  if (!attributes.ok()) return -1;
  out->name = std::move(*name);
  out->type = static_cast<DataType>(*raw_type);
  out->offset = payload_offset;
  out->nbytes = payload_bytes;
  out->attributes = std::move(*attributes);
  // Unchecksummed datasets cannot be proven intact; salvage skips them.
  if (!CheckChecksum(*out, data + payload_offset).ok()) return -1;
  return cursor.position();
}

Status Reader::LoadSalvage() {
  int64_t file_size = file_->Size();
  if (file_size < kHeaderSize) {
    return DataLossError(StrCat(path_, ": too small to salvage"));
  }
  std::vector<uint8_t> all(static_cast<size_t>(file_size));
  GODIVA_RETURN_IF_ERROR(file_->Read(0, file_size, all.data()));
  if (std::memcmp(all.data(), kMagic, sizeof(kMagic)) != 0) {
    return DataLossError(StrCat(path_, ": bad gsdf magic"));
  }
  version_ = DecodeU32(all.data() + 4);  // best effort; may itself be torn
  // Forward scan: at each byte try to parse a provably-intact directory
  // entry; on success jump past it, otherwise advance one byte. A crash
  // mid-directory thus recovers every complete entry before the tear.
  for (int64_t pos = kHeaderSize; pos + kMinEntrySize <= file_size;) {
    DatasetInfo info;
    int64_t consumed = TrySalvageEntry(all.data(), pos, file_size, &info);
    if (consumed < 0) {
      ++pos;
      continue;
    }
    pos += consumed;
    datasets_.push_back(std::move(info));
  }
  // The first entry under a name wins: drop every later one.
  IndexDirectory();
  std::vector<bool> later(datasets_.size(), false);
  for (size_t i = 1; i < by_name_.size(); ++i) {
    later[by_name_[i]] =
        datasets_[by_name_[i]].name == datasets_[by_name_[i - 1]].name;
  }
  size_t kept = 0;
  for (size_t i = 0; i < datasets_.size(); ++i) {
    if (later[i]) continue;
    if (kept != i) datasets_[kept] = std::move(datasets_[i]);
    ++kept;
  }
  if (kept < datasets_.size()) {
    datasets_.resize(kept);
    IndexDirectory();
  }
  return Status::Ok();
}

Result<const DatasetInfo*> Reader::Find(const std::string& name) const {
  auto it = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [this](uint32_t i, const std::string& key) {
        return datasets_[i].name < key;
      });
  if (it == by_name_.end() || datasets_[*it].name != name) {
    return NotFoundError(StrCat(path_, ": no dataset named ", name));
  }
  return &datasets_[*it];
}

Status Reader::CheckChecksum(const DatasetInfo& info,
                             std::optional<const void*> payload) const {
  const std::string* stored = info.FindAttribute(kChecksumAttribute);
  if (stored == nullptr) {
    return FailedPreconditionError(
        StrCat(path_, ": dataset ", info.name, " has no checksum"));
  }
  if (!payload.has_value()) return Status::Ok();
  // The writer's "%08x": eight lowercase hex digits.
  const uint32_t crc = Crc32(*payload, info.nbytes);
  char actual[9];
  for (int i = 0; i < 8; ++i) {
    actual[i] = "0123456789abcdef"[(crc >> (28 - 4 * i)) & 0xf];
  }
  actual[8] = '\0';
  if (*stored != std::string_view(actual, 8)) {
    return DataLossError(StrFormat(
        "%s: dataset %s checksum mismatch (stored %s, computed %s)",
        path_.c_str(), info.name.c_str(), stored->c_str(), actual));
  }
  return Status::Ok();
}

Status Reader::ReadDataset(const DatasetInfo& info, void* out,
                           int64_t out_bytes, bool verify) const {
  if (verify) GODIVA_RETURN_IF_ERROR(CheckChecksum(info));
  GODIVA_RETURN_IF_ERROR(CheckBufferSize(info, out_bytes));
  GODIVA_RETURN_IF_ERROR(file_->Read(info.offset, info.nbytes, out));
  return verify ? CheckChecksum(info, out) : Status::Ok();
}

Status Reader::Read(const std::string& name, void* out,
                    int64_t out_bytes) const {
  GODIVA_ASSIGN_OR_RETURN(const DatasetInfo* info, Find(name));
  return ReadDataset(*info, out, out_bytes, /*verify=*/false);
}

Status Reader::ReadVerified(const std::string& name, void* out,
                            int64_t out_bytes) const {
  GODIVA_ASSIGN_OR_RETURN(const DatasetInfo* info, Find(name));
  return ReadDataset(*info, out, out_bytes, /*verify=*/true);
}

Status Reader::VerifyChecksum(const std::string& name) const {
  GODIVA_ASSIGN_OR_RETURN(const DatasetInfo* info, Find(name));
  std::vector<uint8_t> payload(static_cast<size_t>(info->nbytes));
  return ReadDataset(*info, payload.data(), info->nbytes, /*verify=*/true);
}

Status Reader::VerifyAllChecksums() const {
  for (const DatasetInfo& info : datasets_) {
    if (info.FindAttribute(kChecksumAttribute) == nullptr) continue;
    GODIVA_RETURN_IF_ERROR(VerifyChecksum(info.name));
  }
  return Status::Ok();
}

Result<BatchStats> Reader::ReadBatch(
    const std::vector<BatchRequest>& requests,
    const BatchOptions& options) const {
  struct Resolved {
    const DatasetInfo* info;
    const BatchRequest* request;
  };
  std::vector<Resolved> resolved;
  resolved.reserve(requests.size());
  for (const BatchRequest& request : requests) {
    GODIVA_ASSIGN_OR_RETURN(const DatasetInfo* info, Find(request.name));
    GODIVA_RETURN_IF_ERROR(CheckBufferSize(*info, request.out_bytes));
    if (options.verify) GODIVA_RETURN_IF_ERROR(CheckChecksum(*info));
    resolved.push_back({info, &request});
  }
  std::sort(resolved.begin(), resolved.end(),
            [](const Resolved& a, const Resolved& b) {
              return a.info->offset < b.info->offset;
            });

  BatchStats stats;
  // Landing buffer for runs that cannot land in place: grown, never
  // zero-filled, and never copied, since every run overwrites the bytes it
  // uses.
  std::unique_ptr<uint8_t[]> scratch;
  int64_t scratch_bytes = 0;
  int64_t max_gap = std::max<int64_t>(0, options.max_gap);
  int64_t max_transfer = std::max<int64_t>(1, options.max_transfer);
  for (size_t begin = 0; begin < resolved.size();) {
    // Grow the run while the next dataset starts within max_gap of the
    // run's end and the merged span stays under max_transfer. It lands in
    // place while each dataset starts where the last one ended, both in
    // the file and in memory.
    int64_t run_start = resolved[begin].info->offset;
    int64_t run_end = run_start + resolved[begin].info->nbytes;
    bool in_place = true;
    size_t end = begin + 1;
    while (end < resolved.size()) {
      const DatasetInfo* next = resolved[end].info;
      if (next->offset > run_end + max_gap) break;
      int64_t merged_end = std::max(run_end, next->offset + next->nbytes);
      if (merged_end - run_start > max_transfer &&
          run_end - run_start > 0) {
        break;
      }
      const Resolved& last = resolved[end - 1];
      in_place = in_place && next->offset == run_end &&
                 resolved[end].request->out ==
                     static_cast<uint8_t*>(last.request->out) +
                         last.info->nbytes;
      run_end = merged_end;
      ++end;
    }

    ++stats.transfers;
    const int64_t span = run_end - run_start;
    uint8_t* landed = static_cast<uint8_t*>(resolved[begin].request->out);
    if (!in_place) {
      if (span > scratch_bytes) {
        scratch = std::make_unique_for_overwrite<uint8_t[]>(
            static_cast<size_t>(span));
        scratch_bytes = span;
      }
      landed = scratch.get();
    }
    GODIVA_RETURN_IF_ERROR(file_->Read(run_start, span, landed));
    // Each dataset is verified exactly once, on the bytes the read landed.
    int64_t payload_bytes = 0;
    for (size_t i = begin; i < end; ++i) {
      const Resolved& entry = resolved[i];
      const uint8_t* src = landed + (entry.info->offset - run_start);
      if (options.verify) {
        GODIVA_RETURN_IF_ERROR(CheckChecksum(*entry.info, src));
      }
      if (!in_place) {
        std::memcpy(entry.request->out, src,
                    static_cast<size_t>(entry.info->nbytes));
      }
      payload_bytes += entry.info->nbytes;
    }
    stats.coalesced += static_cast<int64_t>(end - begin) - 1;
    stats.gap_bytes += std::max<int64_t>(0, span - payload_bytes);
    begin = end;
  }
  return stats;
}

}  // namespace godiva::gsdf
