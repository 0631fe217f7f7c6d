// A record instance: one buffer slot per member of its record type. GODIVA
// manages buffer *locations*, never interpreting contents (paper §3.1);
// the visualization code reads/writes the buffers directly.
#ifndef GODIVA_CORE_RECORD_H_
#define GODIVA_CORE_RECORD_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/record_type.h"

namespace godiva {

// Fixed bookkeeping cost charged per record against the database memory
// limit ("a small overhead for the record indexing system", paper §3.2).
inline constexpr int64_t kRecordOverheadBytes = 128;

class Record {
 public:
  explicit Record(const RecordType* type);
  Record(const Record&) = delete;
  Record& operator=(const Record&) = delete;

  const RecordType& type() const { return *type_; }

  // Name of the processing unit this record belongs to; empty if unbound.
  const std::string& unit() const { return unit_; }
  bool committed() const { return committed_; }

  // Allocates the buffers of `member_indices[i]` with `sizes[i]` bytes as
  // one allocation, back to back in the given order, and adds the sizes to
  // MemoryUsage(). Fails without effect if any member is already allocated
  // or listed twice, or a size is invalid for its field's element type or
  // would leave a buffer misaligned for it.
  Status AllocateSlots(std::span<const int> member_indices,
                       std::span<const int64_t> sizes);

  bool slot_allocated(int member_index) const {
    return slots_[member_index].data != nullptr;
  }

  // Raw buffer pointer / size for an allocated member. Null / kUnknownSize
  // when unallocated.
  void* slot_data(int member_index) const {
    return slots_[member_index].data;
  }
  int64_t slot_size(int member_index) const {
    return slots_[member_index].size;
  }

  // Named variants (convenience; NOT_FOUND for unknown fields,
  // FAILED_PRECONDITION for unallocated buffers).
  Result<void*> FieldBuffer(std::string_view field_name) const;
  Result<int64_t> FieldBufferSize(std::string_view field_name) const;

  // Bytes charged against the database memory budget for this record.
  int64_t MemoryUsage() const { return kRecordOverheadBytes + payload_bytes_; }

  // Encodes the key by concatenating the key-field buffer bytes in key
  // order. Fails if any key buffer is unallocated or not exactly the
  // declared key-field size.
  Result<std::string> EncodeKey() const;

 private:
  friend class Gbo;

  struct Slot {
    uint8_t* data = nullptr;  // null until allocated
    int64_t size = kUnknownSize;
    // The allocation that starts at `data`, held by the first slot of each
    // AllocateSlots call; later slots of the same call point into it.
    std::unique_ptr<uint8_t[]> owned;
  };

  const RecordType* type_;
  std::vector<Slot> slots_;
  int64_t payload_bytes_ = 0;
  std::string unit_;        // maintained by Gbo
  bool committed_ = false;  // maintained by Gbo
  std::string key_;         // cached at commit, used for index removal
};

}  // namespace godiva

#endif  // GODIVA_CORE_RECORD_H_
