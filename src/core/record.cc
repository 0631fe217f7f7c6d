#include "core/record.h"

#include <algorithm>
#include <string>
#include <string_view>

#include "common/strings.h"

namespace godiva {

Record::Record(const RecordType* type)
    : type_(type), slots_(type->members().size()) {}

Status Record::AllocateSlots(std::span<const int> member_indices,
                             std::span<const int64_t> sizes) {
  if (member_indices.empty()) return Status::Ok();
  int64_t total = 0;
  for (size_t i = 0; i < member_indices.size(); ++i) {
    const int index = member_indices[i];
    const FieldTypeDef& field = *type_->members()[index].field;
    const auto listed = member_indices.begin() + static_cast<ptrdiff_t>(i);
    if (slots_[index].data != nullptr ||
        std::find(member_indices.begin(), listed, index) != listed) {
      return AlreadyExistsError(
          StrCat("field ", field.name, " buffer is already allocated"));
    }
    const int64_t size = sizes[i];
    if (size < 0) {
      return InvalidArgumentError(
          StrCat("field ", field.name, ": negative buffer size"));
    }
    const int64_t element = SizeOf(field.type);
    if (size % element != 0) {
      return InvalidArgumentError(StrFormat(
          "field %s: size %lld not a multiple of element size %lld",
          field.name.c_str(), static_cast<long long>(size),
          static_cast<long long>(element)));
    }
    if (total % element != 0) {
      return InvalidArgumentError(StrFormat(
          "field %s: offset %lld in a shared allocation not a multiple of "
          "element size %lld",
          field.name.c_str(), static_cast<long long>(total),
          static_cast<long long>(element)));
    }
    total += size;
  }
  // No zero-initialization: the caller fills the buffers from the input
  // file (reading uninitialized contents is the visualization tool's
  // responsibility, exactly as the paper states in §3.3).
  auto allocation = std::make_unique_for_overwrite<uint8_t[]>(
      static_cast<size_t>(total > 0 ? total : 1));
  uint8_t* next = allocation.get();
  for (size_t i = 0; i < member_indices.size(); ++i) {
    Slot& slot = slots_[member_indices[i]];
    slot.data = next;
    slot.size = sizes[i];
    next += sizes[i];
  }
  slots_[member_indices[0]].owned = std::move(allocation);
  payload_bytes_ += total;
  return Status::Ok();
}

Result<void*> Record::FieldBuffer(std::string_view field_name) const {
  int index = type_->FindMemberIndex(field_name);
  if (index < 0) {
    return NotFoundError(StrCat("record type ", type_->name(),
                                " has no field ", field_name));
  }
  if (slots_[index].data == nullptr) {
    return FailedPreconditionError(
        StrCat("field ", field_name, " buffer is not allocated"));
  }
  return static_cast<void*>(slots_[index].data);
}

Result<int64_t> Record::FieldBufferSize(std::string_view field_name) const {
  int index = type_->FindMemberIndex(field_name);
  if (index < 0) {
    return NotFoundError(StrCat("record type ", type_->name(),
                                " has no field ", field_name));
  }
  if (slots_[index].data == nullptr) {
    return FailedPreconditionError(
        StrCat("field ", field_name, " buffer is not allocated"));
  }
  return slots_[index].size;
}

Result<std::string> Record::EncodeKey() const {
  std::string key;
  key.reserve(static_cast<size_t>(type_->key_bytes()));
  for (int index : type_->key_member_indices()) {
    const RecordType::Member& member = type_->members()[index];
    const Slot& slot = slots_[index];
    if (slot.data == nullptr) {
      return FailedPreconditionError(
          StrCat("key field ", member.field->name, " is not allocated"));
    }
    if (slot.size != member.field->default_size) {
      return FailedPreconditionError(StrFormat(
          "key field %s has %lld bytes, declared %lld",
          member.field->name.c_str(), static_cast<long long>(slot.size),
          static_cast<long long>(member.field->default_size)));
    }
    key.append(reinterpret_cast<const char*>(slot.data),
               static_cast<size_t>(slot.size));
  }
  return key;
}

}  // namespace godiva
