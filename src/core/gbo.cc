// Gbo: construction/destruction, schema definition, record operations, and
// queries. Unit lifecycle and the background I/O machinery live in
// gbo_units.cc.
//
// Sharding (DESIGN.md §10): queries and unit cache hits route by hash to
// one of metadata_shards stripes and take only that stripe's lock; the
// global mu_ is reserved for schema changes, record ownership, the I/O
// queues and the memory budget. Routing functions:
//   unit name → std::hash<std::string>(name) % shards
//   record key → hash(type name) ⊕ hash(encoded key) · φ  % shards
#include "core/gbo.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "core/unit_context.h"

namespace godiva {

std::string_view UnitStateName(UnitState state) {
  switch (state) {
    case UnitState::kQueued:
      return "QUEUED";
    case UnitState::kLoading:
      return "LOADING";
    case UnitState::kReady:
      return "READY";
    case UnitState::kFailed:
      return "FAILED";
    case UnitState::kDeleted:
      return "DELETED";
  }
  return "INVALID";
}

namespace {

int ClampShardCount(int requested) {
  return std::clamp(requested, 1, lock_rank::kGboMaxShards);
}

}  // namespace

Gbo::Gbo(GboOptions options)
    : options_(options), memory_limit_(options.memory_limit_bytes) {
  int shard_count = ClampShardCount(options_.metadata_shards);
  shards_.reserve(static_cast<size_t>(shard_count));
  for (int i = 0; i < shard_count; ++i) {
    // Distinct ranks per shard: the lock-rank checker then rejects any
    // out-of-order multi-shard acquisition at run time.
    shards_.push_back(std::make_unique<Shard>(lock_rank::kGboShardBase + i,
                                              "Gbo::shard"));
  }
  if (options_.background_io) {
    size_t pool_size =
        static_cast<size_t>(std::max(1, options_.io_threads));
    io_busy_.reserve(pool_size);
    io_threads_.reserve(pool_size);
    for (size_t i = 0; i < pool_size; ++i) {
      io_busy_.push_back(std::make_unique<TimeAccumulator>());
    }
    // Spawn only after io_busy_ is fully built: threads index into it.
    for (size_t i = 0; i < pool_size; ++i) {
      io_threads_.emplace_back([this, i] { IoThreadMain(i); });
    }
  }
}

Gbo::~Gbo() {
  {
    MutexLock lock(&mu_);
    shutdown_.store(true, std::memory_order_release);
  }
  queue_cv_.NotifyAll();
  memory_cv_.NotifyAll();
  // Lock/unlock each shard before notifying its waiters: a waiter between
  // its predicate check and its wait enqueue holds the shard lock, so
  // acquiring it here guarantees every waiter observes shutdown_ or is
  // already enqueued when the notify lands.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(&shard->mu);
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->unit_cv.NotifyAll();
  }
  for (Thread& thread : io_threads_) {
    if (thread.joinable()) thread.join();
  }
}

// ---------------------------------------------------------------------
// Shard routing.

size_t Gbo::ShardIndexOfUnitName(const std::string& unit_name) const {
  return std::hash<std::string>{}(unit_name) % shards_.size();
}

Gbo::Shard& Gbo::ShardOfUnitName(const std::string& unit_name) const {
  return *shards_[ShardIndexOfUnitName(unit_name)];
}

size_t Gbo::ShardIndexOfKey(const RecordType* type,
                            const std::string& encoded_key) const {
  // Mix the type name in so two types sharing key bytes spread
  // independently; the golden-ratio multiplier decorrelates the hashes.
  size_t h = std::hash<std::string>{}(type->name()) ^
             (std::hash<std::string>{}(encoded_key) * 0x9e3779b97f4a7c15ULL);
  return h % shards_.size();
}

// ---------------------------------------------------------------------
// Schema.

Status Gbo::DefineField(const std::string& name, DataType type,
                        int64_t size_bytes) {
  if (name.empty()) return InvalidArgumentError("field name is empty");
  if (size_bytes != kUnknownSize &&
      (size_bytes < 0 || size_bytes % SizeOf(type) != 0)) {
    return InvalidArgumentError(
        StrCat("field ", name, ": invalid default size ", size_bytes));
  }
  MutexLock lock(&mu_);
  auto [it, inserted] = field_types_.try_emplace(name);
  if (!inserted) {
    return AlreadyExistsError(StrCat("field type already defined: ", name));
  }
  it->second = std::make_unique<FieldTypeDef>(
      FieldTypeDef{name, type, size_bytes});
  return Status::Ok();
}

Status Gbo::DefineRecord(const std::string& name, int num_key_fields) {
  if (name.empty()) return InvalidArgumentError("record type name is empty");
  if (num_key_fields < 0) {
    return InvalidArgumentError("negative key field count");
  }
  MutexLock lock(&mu_);
  auto [it, inserted] = record_types_.try_emplace(name);
  if (!inserted) {
    return AlreadyExistsError(StrCat("record type already defined: ", name));
  }
  it->second = std::make_unique<RecordType>(name, num_key_fields);
  return Status::Ok();
}

Status Gbo::InsertField(const std::string& record_type,
                        const std::string& field_name, bool is_key) {
  MutexLock lock(&mu_);
  auto type_it = record_types_.find(record_type);
  if (type_it == record_types_.end()) {
    return NotFoundError(StrCat("no record type named ", record_type));
  }
  auto field_it = field_types_.find(field_name);
  if (field_it == field_types_.end()) {
    return NotFoundError(StrCat("no field type named ", field_name));
  }
  return type_it->second->AddMember(field_it->second.get(), is_key);
}

void Gbo::PublishSchemaSnapshotLocked() {
  auto snapshot = std::make_unique<SchemaSnapshot>();
  for (const auto& [name, type] : record_types_) {
    if (type->committed()) snapshot->types[name] = type.get();
  }
  // Readers may still hold the previous snapshot pointer; retire it to
  // schema_history_ instead of freeing (types commit rarely — once per
  // schema in practice — so the history stays tiny).
  schema_snapshot_.store(snapshot.get(), std::memory_order_release);
  schema_history_.push_back(std::move(snapshot));
}

Status Gbo::CommitRecordType(const std::string& record_type) {
  MutexLock lock(&mu_);
  auto it = record_types_.find(record_type);
  if (it == record_types_.end()) {
    return NotFoundError(StrCat("no record type named ", record_type));
  }
  GODIVA_RETURN_IF_ERROR(it->second->Commit());
  PublishSchemaSnapshotLocked();
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Records.

Result<RecordType*> Gbo::FindCommittedTypeLocked(
    const std::string& record_type) {
  auto it = record_types_.find(record_type);
  if (it == record_types_.end()) {
    return NotFoundError(StrCat("no record type named ", record_type));
  }
  if (!it->second->committed()) {
    return FailedPreconditionError(
        StrCat("record type ", record_type, " is not committed"));
  }
  return it->second.get();
}

Result<RecordType*> Gbo::ResolveCommittedType(const std::string& record_type) {
  const SchemaSnapshot* snapshot =
      schema_snapshot_.load(std::memory_order_acquire);
  if (snapshot != nullptr) {
    auto it = snapshot->types.find(record_type);
    if (it != snapshot->types.end()) return it->second;
  }
  // Miss: the type is unknown, uncommitted, or committed after this
  // snapshot. Fall back to mu_ for the exact error (or the fresh type).
  MutexLock lock(&mu_);
  return FindCommittedTypeLocked(record_type);
}

Result<Record*> Gbo::NewRecord(const std::string& record_type) {
  MutexLock lock(&mu_);
  GODIVA_ASSIGN_OR_RETURN(RecordType * type,
                          FindCommittedTypeLocked(record_type));
  auto record = std::make_unique<Record>(type);
  Record* raw = record.get();

  // Eagerly allocate all fixed-size field buffers (paper §3.1).
  const std::vector<RecordType::Member>& members = type->members();
  for (size_t i = 0; i < members.size(); ++i) {
    if (members[i].field->has_known_size()) {
      const int index = static_cast<int>(i);
      // Accounted below via MemoryUsage().
      GODIVA_RETURN_IF_ERROR(raw->AllocateSlots(
          {&index, 1}, {&members[i].field->default_size, 1}));
    }
  }

  // Bind to the unit currently being read on this thread, if any. The
  // unit's record list and byte count are shard state.
  if (const std::string* unit_name = internal_unit_context::Current(this)) {
    Shard& s = ShardOfUnitName(*unit_name);
    MutexLock shard_lock(&s.mu);
    if (Unit* unit = FindUnitLocked(s, *unit_name)) {
      unit->records.push_back(raw);
      unit->memory_bytes += raw->MemoryUsage();
      raw->unit_ = *unit_name;
    }
  }

  records_[raw] = std::move(record);
  ++counters_.records_created;
  ChargeMemoryLocked(raw->MemoryUsage());
  EvictToLimitLocked();
  return raw;
}

Result<void*> Gbo::AllocFieldBuffer(Record* record,
                                    const std::string& field_name,
                                    int64_t size_bytes) {
  const std::string_view name = field_name;
  return AllocFieldBuffers(record, {&name, 1}, {&size_bytes, 1});
}

Result<void*> Gbo::AllocFieldBuffers(
    Record* record, std::span<const std::string_view> field_names,
    std::span<const int64_t> sizes) {
  if (field_names.size() != sizes.size()) {
    return InvalidArgumentError(StrFormat(
        "%zu field names but %zu buffer sizes", field_names.size(),
        sizes.size()));
  }
  if (field_names.empty()) {
    return InvalidArgumentError("no field buffers to allocate");
  }
  MutexLock lock(&mu_);
  auto rec_it = records_.find(record);
  if (rec_it == records_.end()) {
    return InvalidArgumentError("unknown record handle");
  }
  std::vector<int> indices(field_names.size());
  for (size_t i = 0; i < field_names.size(); ++i) {
    indices[i] = record->type().FindMemberIndex(field_names[i]);
    if (indices[i] < 0) {
      return NotFoundError(StrCat("record type ", record->type().name(),
                                  " has no field ", field_names[i]));
    }
  }
  if (record->committed_ && !record->key_.empty()) {
    // The record is already published through its key index, so lookups
    // on its key shard may be reading the slot table concurrently:
    // mutate it under that shard's lock.
    Shard& key_shard = *shards_[ShardIndexOfKey(&record->type(),
                                                record->key_)];
    MutexLock key_lock(&key_shard.mu);
    GODIVA_RETURN_IF_ERROR(record->AllocateSlots(indices, sizes));
  } else {
    GODIVA_RETURN_IF_ERROR(record->AllocateSlots(indices, sizes));
  }
  // Field by field, as that many AllocFieldBuffer calls would charge it.
  for (int64_t charged : sizes) {
    if (!record->unit_.empty()) {
      Shard& s = ShardOfUnitName(record->unit_);
      MutexLock shard_lock(&s.mu);
      Unit* unit = FindUnitLocked(s, record->unit_);
      if (unit != nullptr) unit->memory_bytes += charged;
    }
    ChargeMemoryLocked(charged);
    EvictToLimitLocked();
  }
  return record->slot_data(indices[0]);
}

Status Gbo::CommitRecord(Record* record) {
  MutexLock lock(&mu_);
  auto rec_it = records_.find(record);
  if (rec_it == records_.end()) {
    return InvalidArgumentError("unknown record handle");
  }
  if (record->committed_) {
    return FailedPreconditionError("record is already committed");
  }
  const RecordType* type = &record->type();
  if (type->key_member_indices().empty()) {
    record->committed_ = true;  // keyless types are not indexed
    ++counters_.records_committed;
    return Status::Ok();
  }
  GODIVA_ASSIGN_OR_RETURN(std::string key, record->EncodeKey());
  // Publish into the owning key shard's index slice. Identical keys hash
  // to the same shard, so the per-shard try_emplace still enforces global
  // key uniqueness.
  Shard& key_shard = *shards_[ShardIndexOfKey(type, key)];
  {
    MutexLock key_lock(&key_shard.mu);
    auto [it, inserted] = key_shard.indexes[type].try_emplace(key, record);
    if (!inserted) {
      return AlreadyExistsError(
          StrCat("a record of type ", type->name(),
                 " with the same key is already committed"));
    }
    record->key_ = std::move(key);
    record->committed_ = true;
  }
  ++counters_.records_committed;
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Queries (the sharded hot path: one shard lock, no mu_ once the type
// resolves through the schema snapshot).

Status Gbo::EncodeLookupKey(const RecordType& type,
                            const std::vector<std::string>& key_values,
                            std::string* key) {
  const std::vector<int>& key_indices = type.key_member_indices();
  if (key_values.size() != key_indices.size()) {
    return InvalidArgumentError(StrFormat(
        "record type %s has %d key fields, got %d key values",
        type.name().c_str(), static_cast<int>(key_indices.size()),
        static_cast<int>(key_values.size())));
  }
  key->clear();
  key->reserve(static_cast<size_t>(type.key_bytes()));
  for (size_t i = 0; i < key_indices.size(); ++i) {
    const FieldTypeDef* field = type.members()[key_indices[i]].field;
    if (static_cast<int64_t>(key_values[i].size()) != field->default_size) {
      return InvalidArgumentError(StrFormat(
          "key value %d for field %s has %d bytes, expected %lld",
          static_cast<int>(i), field->name.c_str(),
          static_cast<int>(key_values[i].size()),
          static_cast<long long>(field->default_size)));
    }
    key->append(key_values[i]);
  }
  return Status::Ok();
}

template <typename R, typename ReadRecord>
R Gbo::LookupRecord(const std::string& record_type,
                    const std::vector<std::string>& key_values,
                    ReadRecord read) {
  GODIVA_ASSIGN_OR_RETURN(RecordType * type,
                          ResolveCommittedType(record_type));
  if (type->key_member_indices().empty()) {
    return FailedPreconditionError(
        StrCat("record type ", record_type, " has no key fields"));
  }
  std::string key;
  GODIVA_RETURN_IF_ERROR(EncodeLookupKey(*type, key_values, &key));
  Shard& s = *shards_[ShardIndexOfKey(type, key)];
  MutexLock lock(&s.mu);
  s.key_lookups.fetch_add(1, std::memory_order_relaxed);
  auto index_it = s.indexes.find(type);
  if (index_it != s.indexes.end()) {
    auto it = index_it->second.find(key);
    if (it != index_it->second.end()) return read(it->second);
  }
  s.failed_lookups.fetch_add(1, std::memory_order_relaxed);
  return NotFoundError(
      StrCat("no record of type ", record_type, " with the given key"));
}

Result<Record*> Gbo::FindRecord(const std::string& record_type,
                                const std::vector<std::string>& key_values) {
  return LookupRecord<Result<Record*>>(record_type, key_values,
                                       [](Record* record) { return record; });
}

Result<void*> Gbo::GetFieldBuffer(const std::string& record_type,
                                  const std::string& field_name,
                                  const std::vector<std::string>& key_values) {
  return LookupRecord<Result<void*>>(
      record_type, key_values,
      [&](Record* record) { return record->FieldBuffer(field_name); });
}

Result<int64_t> Gbo::GetFieldBufferSize(
    const std::string& record_type, const std::string& field_name,
    const std::vector<std::string>& key_values) {
  return LookupRecord<Result<int64_t>>(
      record_type, key_values,
      [&](Record* record) { return record->FieldBufferSize(field_name); });
}

Result<Gbo::RawField> Gbo::GetFieldRaw(
    const std::string& record_type, const std::string& field_name,
    const std::vector<std::string>& key_values, int64_t elem_size) {
  return LookupRecord<Result<RawField>>(
      record_type, key_values, [&](Record* record) -> Result<RawField> {
        int index = record->type().FindMemberIndex(field_name);
        if (index < 0) {
          return NotFoundError(StrCat("no field named ", field_name));
        }
        const FieldTypeDef* field = record->type().members()[index].field;
        if (elem_size != SizeOf(field->type)) {
          return InvalidArgumentError(StrCat(
              "element type size mismatch for field ", field_name));
        }
        if (!record->slot_allocated(index)) {
          return FailedPreconditionError(StrCat(
              "field buffer not allocated: ", field_name));
        }
        return RawField{record->slot_data(index), record->slot_size(index)};
      });
}

Result<std::vector<Record*>> Gbo::ListRecords(const std::string& record_type) {
  GODIVA_ASSIGN_OR_RETURN(RecordType * type,
                          ResolveCommittedType(record_type));
  // Merge the per-shard index slices in global key order. Shards are
  // visited in index order (the documented multi-shard lock order), each
  // released before the next is taken — a cross-shard-consistent snapshot
  // is not needed, only per-shard consistency.
  std::vector<std::pair<std::string, Record*>> keyed;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(&shard->mu);
    auto index_it = shard->indexes.find(type);
    if (index_it == shard->indexes.end()) continue;
    keyed.reserve(keyed.size() + index_it->second.size());
    for (const auto& [key, record] : index_it->second) {
      keyed.emplace_back(key, record);
    }
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Record*> out;
  out.reserve(keyed.size());
  for (const auto& [key, record] : keyed) out.push_back(record);
  return out;
}

// ---------------------------------------------------------------------
// Introspection.

GboStats Gbo::stats() const {
  MutexLock lock(&mu_);
  GboStats out = counters_;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    out.key_lookups += shard->key_lookups.load(std::memory_order_relaxed);
    out.failed_lookups +=
        shard->failed_lookups.load(std::memory_order_relaxed);
    out.unit_cache_hits +=
        shard->unit_cache_hits.load(std::memory_order_relaxed);
    out.lru_touches += shard->lru_touches.load(std::memory_order_relaxed);
  }
  out.watch_notifications =
      watch_notifications_.load(std::memory_order_relaxed);
  out.current_memory_bytes = memory_used_.load(std::memory_order_relaxed);
  out.visible_io_seconds = visible_io_time_.TotalSeconds();
  out.read_fn_seconds = read_fn_time_.TotalSeconds();
  out.prefetch_seconds = prefetch_time_.TotalSeconds();
  out.io_thread_busy_seconds.reserve(io_busy_.size());
  for (const std::unique_ptr<TimeAccumulator>& busy : io_busy_) {
    double seconds = busy->TotalSeconds();
    out.io_thread_busy_seconds.push_back(seconds);
    out.io_busy_seconds += seconds;
  }
  return out;
}

int64_t Gbo::memory_usage() const {
  return memory_used_.load(std::memory_order_relaxed);
}

int64_t Gbo::memory_limit() const {
  return memory_limit_.load(std::memory_order_relaxed);
}

std::string Gbo::DebugString() const {
  MutexLock lock(&mu_);
  std::string out =
      StrCat("Gbo{",
             options_.background_io
                 ? StrCat("multi-thread (", io_threads_.size(),
                          " I/O threads)")
                 : "single-thread",
             ", ", shards_.size(), shards_.size() == 1 ? " shard" : " shards",
             ", mem ",
             FormatBytes(memory_used_.load(std::memory_order_relaxed)), "/",
             FormatBytes(memory_limit_.load(std::memory_order_relaxed)),
             "\n");
  // Indexed-record counts per type, summed over the shard slices.
  std::map<const RecordType*, size_t> indexed_counts;
  size_t evictable_total = 0;
  // (name, description) pairs gathered shard by shard, then merged so the
  // listing stays name-sorted like the single-map original.
  std::vector<std::pair<std::string, std::string>> unit_lines;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock shard_lock(&shard->mu);
    for (const auto& [type, index] : shard->indexes) {
      indexed_counts[type] += index.size();
    }
    evictable_total += shard->evictable.size();
    for (const auto& [name, unit] : shard->units) {
      unit_lines.emplace_back(
          name,
          StrCat("    ", name, ": ", UnitStateName(unit->state), ", ",
                 unit->records.size(), " records, ",
                 FormatBytes(unit->memory_bytes), ", refcount ",
                 unit->refcount, unit->finished ? ", finished" : "", "\n"));
    }
  }
  out += "  record types:\n";
  for (const auto& [name, type] : record_types_) {
    auto count_it = indexed_counts.find(type.get());
    size_t indexed = count_it == indexed_counts.end() ? 0 : count_it->second;
    out += StrCat("    ", name, ": ", type->members().size(), " fields, ",
                  type->key_member_indices().size(), " keys, ", indexed,
                  " records", type->committed() ? "" : " (uncommitted)",
                  "\n");
  }
  out += "  units:\n";
  std::sort(unit_lines.begin(), unit_lines.end());
  for (const auto& [name, line] : unit_lines) out += line;
  out += StrCat("  prefetch queue: ", prefetch_queue_.size(),
                ", demand queue: ", demand_queue_.size(),
                ", loading: ", loads_in_flight_,
                ", evictable: ", evictable_total, "}");
  return out;
}

}  // namespace godiva
