// Gbo — the GODIVA Buffer Object (paper §3.3): the in-memory database that
// manages field buffer locations, answers key-lookup queries, and performs
// unit-granular background prefetching and LRU caching through a single
// background I/O thread that calls back into developer-supplied read
// functions.
//
// Paper API name mapping (the paper uses lowerCamelCase):
//   defineField → DefineField         newRecord        → NewRecord
//   defineRecord → DefineRecord       allocFieldBuffer → AllocFieldBuffer
//   insertField → InsertField         commitRecord     → CommitRecord
//   commitRecordType → CommitRecordType
//   getFieldBuffer → GetFieldBuffer   getFieldBufferSize → GetFieldBufferSize
//   addUnit → AddUnit   readUnit → ReadUnit   waitUnit → WaitUnit
//   finishUnit → FinishUnit   deleteUnit → DeleteUnit
//   setMemSpace → SetMemSpace
//
// Threading model: any number of application threads plus an internal I/O
// pool of GboOptions::io_threads threads (1 reproduces the paper's single
// background thread). All public methods are thread safe. User read
// functions run without internal locks held — enforced at compile time by
// the Clang thread-safety annotations below and at run time by the
// lock-rank checker — and may call any record operation on the same Gbo.
// With io_threads > 1 several read functions run concurrently, so they
// must also be re-entrant against each other (the provided gsdf read
// paths are; see DESIGN.md §8).
//
// Locking (DESIGN.md §10): the database state is striped across
// GboOptions::metadata_shards shards. Each shard owns a slice of the
// key → record indexes, a slice of the unit-state table, its own LRU
// list, and the hot read-path counters (relaxed atomics). The global
// mu_ keeps the cold state: schema, record ownership, the I/O queues,
// the memory budget and the per-file circuit breaker. Lock order is
// always mu_ → shard[i] → shard[j] (i < j) — each shard mutex carries
// rank lock_rank::kGboShardBase + index, so the debug rank checker
// enforces the order mechanically. Pure key lookups and unit cache hits
// take exactly one shard lock and never touch mu_.
#ifndef GODIVA_CORE_GBO_H_
#define GODIVA_CORE_GBO_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/field_type.h"
#include "core/options.h"
#include "core/record.h"
#include "core/record_type.h"
#include "core/stats.h"

namespace godiva {

// Lifecycle of a processing unit (paper §3.2).
enum class UnitState {
  kQueued,   // added, not yet read
  kLoading,  // read function running
  kReady,    // records resident in the database
  kFailed,   // read function returned an error (or deadlock resolution)
  kDeleted,  // explicitly deleted or evicted by the cache policy
};

std::string_view UnitStateName(UnitState state);

class Gbo {
 public:
  // A developer-supplied read function: reads the records of `unit_name`
  // into `db` (creating records, allocating buffers, committing). Called on
  // the background I/O thread for prefetched units and on the caller's
  // thread for blocking reads.
  using ReadFn = std::function<Status(Gbo* db, const std::string& unit_name)>;

  explicit Gbo(GboOptions options = GboOptions());
  Gbo(const Gbo&) = delete;
  Gbo& operator=(const Gbo&) = delete;
  // Terminates the background I/O thread (paper: "the background I/O
  // thread is terminated when the GBO object is deleted").
  ~Gbo();

  // ---------------------------------------------------------------------
  // Record operations (schema definition), paper §3.1.

  // Defines a named field type with an element type and a default buffer
  // size in bytes (kUnknownSize if discovered at read time).
  Status DefineField(const std::string& name, DataType type,
                     int64_t size_bytes) EXCLUDES(mu_);

  // Starts a record type expecting exactly `num_key_fields` key fields.
  Status DefineRecord(const std::string& name, int num_key_fields)
      EXCLUDES(mu_);

  // Adds a previously defined field type to a record type. `is_key` marks
  // it a key field; key fields must have known (fixed) sizes.
  Status InsertField(const std::string& record_type,
                     const std::string& field_name, bool is_key)
      EXCLUDES(mu_);

  // Freezes the record type; records can be created from it afterwards.
  Status CommitRecordType(const std::string& record_type) EXCLUDES(mu_);

  // ---------------------------------------------------------------------
  // Record instances.

  // Creates a record of a committed type. Buffers of fields with known
  // sizes are allocated eagerly. When called from inside a read function,
  // the record is bound to the unit being read; otherwise it is unbound
  // (never auto-evicted, freed only with the database).
  // The returned pointer is owned by the database and valid until the
  // record's unit is deleted/evicted or the Gbo is destroyed.
  Result<Record*> NewRecord(const std::string& record_type) EXCLUDES(mu_);

  // Allocates the buffer of a field whose size was UNKNOWN at definition
  // time (or simply not yet allocated). Returns the buffer.
  Result<void*> AllocFieldBuffer(Record* record, const std::string& field_name,
                                 int64_t size_bytes) EXCLUDES(mu_);

  // Allocates the buffers of several fields as one allocation, back to
  // back in the order given: field_names[i] gets sizes[i] bytes, starting
  // sizes[0] + … + sizes[i-1] bytes past the returned pointer, so one read
  // can fill datasets that sit back to back in a file. Memory is charged
  // exactly as one AllocFieldBuffer call per field in that order would
  // charge it (record and unit bytes, peak, eviction check). Fails
  // without effect on an unknown field, one already allocated or listed
  // twice, or a size that is not a whole number of the field's elements
  // or would leave a later field misaligned for its element type.
  Result<void*> AllocFieldBuffers(Record* record,
                                  std::span<const std::string_view> field_names,
                                  std::span<const int64_t> sizes)
      EXCLUDES(mu_);

  // Inserts the record into the key index. All key-field buffers must be
  // filled with final values first (GODIVA does not detect later key
  // mutation — paper §3.3).
  Status CommitRecord(Record* record) EXCLUDES(mu_);

  // ---------------------------------------------------------------------
  // Dataset queries. `key_values` holds the raw bytes of each key field in
  // key order (see core/key_util.h); each must be exactly the declared
  // field size. These are the sharded hot path: one shard lock, no mu_.

  Result<void*> GetFieldBuffer(const std::string& record_type,
                               const std::string& field_name,
                               const std::vector<std::string>& key_values)
      EXCLUDES(mu_);
  Result<int64_t> GetFieldBufferSize(const std::string& record_type,
                                     const std::string& field_name,
                                     const std::vector<std::string>& key_values)
      EXCLUDES(mu_);

  // Typed view over a field buffer: GetFieldBuffer + GetFieldBufferSize in
  // one lookup, checked against the field's element type. T must match the
  // declared element size (e.g. double for FLOAT64 fields).
  template <typename T>
  Result<std::span<T>> GetFieldSpan(const std::string& record_type,
                                    const std::string& field_name,
                                    const std::vector<std::string>& key_values)
      EXCLUDES(mu_) {
    GODIVA_ASSIGN_OR_RETURN(
        RawField raw, GetFieldRaw(record_type, field_name, key_values,
                                  static_cast<int64_t>(sizeof(T))));
    return std::span<T>(static_cast<T*>(raw.data),
                        static_cast<size_t>(raw.size) / sizeof(T));
  }

  // The record with the given key, or NOT_FOUND.
  Result<Record*> FindRecord(const std::string& record_type,
                             const std::vector<std::string>& key_values)
      EXCLUDES(mu_);

  // All committed records of a type, in key order.
  Result<std::vector<Record*>> ListRecords(const std::string& record_type)
      EXCLUDES(mu_);

  // All records bound to a unit (insertion order). The unit must exist.
  Result<std::vector<Record*>> RecordsInUnit(const std::string& unit_name)
      EXCLUDES(mu_);

  // ---------------------------------------------------------------------
  // Background I/O (paper §3.2).

  // Appends a unit to the prefetch FIFO; the I/O thread will read it with
  // `read_fn` as memory allows. Non-blocking.
  Status AddUnit(const std::string& unit_name, ReadFn read_fn) EXCLUDES(mu_);

  // Like AddUnit, additionally declaring the files the read function will
  // touch. Declared resources feed the per-file health tracker: permanent
  // read failures count against each file, and once a file trips
  // options().quarantine_threshold the unit (and any later unit declaring
  // that file) fails fast with DATA_LOSS instead of being read.
  Status AddUnit(const std::string& unit_name, ReadFn read_fn,
                 std::vector<std::string> resources) EXCLUDES(mu_);

  // Blocking read. If the unit is already resident this is a cache hit; if
  // it is being prefetched, waits for it; otherwise reads it on the calling
  // thread. Pins the unit on success (like WaitUnit).
  Status ReadUnit(const std::string& unit_name, ReadFn read_fn) EXCLUDES(mu_);

  // Like ReadUnit, but gives up with DEADLINE_EXCEEDED once `timeout` has
  // elapsed. When waiting on a background load, the wait is abandoned (the
  // load itself continues and the unit can be waited for again). When the
  // read runs on the calling thread, the deadline is checked between retry
  // attempts — a single in-flight read-function call is never interrupted.
  Status ReadUnitFor(const std::string& unit_name, ReadFn read_fn,
                     Duration timeout) EXCLUDES(mu_);

  // Blocks until the unit is ready, then pins it against automatic
  // eviction. In the single-thread build, performs the queued read inline
  // (paper §4.2: "a readUnit operation is performed inside the
  // corresponding waitUnit call").
  Status WaitUnit(const std::string& unit_name) EXCLUDES(mu_);

  // WaitUnit with a deadline; DEADLINE_EXCEEDED semantics as ReadUnitFor.
  Status WaitUnitFor(const std::string& unit_name, Duration timeout)
      EXCLUDES(mu_);

  // Declares processing of the unit complete: unpins it; once unpinned by
  // all waiters it becomes evictable under the cache policy.
  Status FinishUnit(const std::string& unit_name) EXCLUDES(mu_);

  // Deletes the unit's records immediately (even if pinned — the caller
  // asserts the data is no longer needed). Fails while the unit's read
  // function is actively running; a unit sleeping out a retry backoff is
  // cancelled and deleted. Like eviction, releases the unit's read
  // function and what it holds: a reload brings its own.
  // lint: holds_on_entry(none)
  Status DeleteUnit(const std::string& unit_name) EXCLUDES(mu_);

  // Adjusts the database memory limit at runtime.
  Status SetMemSpace(int64_t bytes) EXCLUDES(mu_);

  Result<UnitState> GetUnitState(const std::string& unit_name) const
      EXCLUDES(mu_);

  // Bytes of record buffers currently charged to the unit (0 for a unit
  // that has not loaded). NOT_FOUND if no unit with this name exists.
  // Shard-lock-only, like GetUnitState — the serving layer uses it for
  // per-session pinned-bytes accounting.
  Result<int64_t> UnitMemoryBytes(const std::string& unit_name) const
      EXCLUDES(mu_);

  // The most recent terminal read error of the unit (OK if it never
  // failed; the preserved error of a kFailed unit). NOT_FOUND if no unit
  // with this name exists.
  Status GetUnitError(const std::string& unit_name) const EXCLUDES(mu_);

  // ---------------------------------------------------------------------
  // Query planning (QueryPlanner, DESIGN.md §15).

  // One-shard-lock dedup probe for the batch-query planner. kResident: the
  // unit is cached and fresh — it has been PINNED on behalf of the caller
  // (exactly like a ReadUnit cache hit, with no queue round-trip; pair
  // with FinishUnit). kInFlight: a load or reload is already underway
  // (queued, loading, or stale awaiting reload) — the planner should wait
  // for it instead of issuing new I/O. kAbsent: no live unit exists
  // (unknown, failed, or deleted) — the planner must issue the read.
  enum class UnitProbe { kAbsent, kResident, kInFlight };
  UnitProbe ProbeUnitForPlan(const std::string& unit_name) EXCLUDES(mu_);

  // ---------------------------------------------------------------------
  // Live ingest: watch / supersede / invalidation (DESIGN.md §11).

  enum class WatchEventKind {
    kReady,        // a watched unit settled as kReady
    kFailed,       // a watched unit settled as kFailed
    kInvalidated,  // a newer publish superseded the watched unit
  };
  struct WatchEvent {
    std::string unit_name;
    WatchEventKind kind = WatchEventKind::kReady;
    // The unit's staleness epoch the event belongs to: each accepted
    // publish of a name bumps its epoch, so a consumer can ignore kReady
    // events older than the newest kInvalidated it has seen.
    int64_t epoch = 0;
  };
  // Watch callbacks run with no Gbo locks held, on whichever thread
  // settled the unit (an I/O pool thread, a foreground reader, or the
  // SupersedeUnit caller). They may call back into this Gbo.
  using WatchFn = std::function<void(const WatchEvent&)>;

  // Registers interest in every unit whose name matches `glob` ('*' / '?'
  // wildcards). Returns the watch id for UnregisterWatch.
  int64_t RegisterWatch(std::string glob, WatchFn fn) EXCLUDES(watch_mu_);
  // Removes the watch and BLOCKS until every in-flight delivery of it has
  // returned: after this call no thread is inside (or will ever enter)
  // the callback, so the caller may free state the callback touches (the
  // GboServer destructor depends on this). Consequently it must never be
  // called from within the same watch's own callback — that would
  // self-join.
  Status UnregisterWatch(int64_t watch_id) EXCLUDES(watch_mu_);

  // Publishes a new version of `unit_name`: the ingest-side counterpart of
  // AddUnit. If no live unit with the name exists, behaves like AddUnit.
  // Otherwise the current version is invalidated — unpinned cached data is
  // dropped and the unit requeued with `read_fn` immediately; a pinned or
  // loading unit is marked stale, keeps serving its current (old-epoch)
  // data to the pins that already hold it, and is reloaded once the last
  // pin drains (in-flight readers finish; nobody ever observes torn
  // state). Matching watchers get a kInvalidated event when a live unit
  // was superseded, then the usual kReady/kFailed when the new version
  // settles. Requires background_io (the reload path needs the pool);
  // FAILED_PRECONDITION otherwise.
  // lint: holds_on_entry(none)
  Status SupersedeUnit(const std::string& unit_name, ReadFn read_fn,
                       std::vector<std::string> resources = {})
      EXCLUDES(mu_);

  // The unit's current staleness epoch (bumped by every accepted publish
  // of the name). NOT_FOUND if no unit with this name exists.
  Result<int64_t> GetUnitEpoch(const std::string& unit_name) const
      EXCLUDES(mu_);

  // ---------------------------------------------------------------------
  // File health (per-file circuit breaker).

  // True iff the file has tripped the quarantine threshold.
  bool IsFileQuarantined(const std::string& path) const EXCLUDES(mu_);

  // All currently quarantined files, sorted (for run reports).
  std::vector<std::string> QuarantinedFiles() const EXCLUDES(mu_);

  // Manually forgives a file: clears its failure count and lifts its
  // quarantine (e.g. after the operator replaced the file on disk).
  // NOT_FOUND if the file was never tracked.
  Status ResetFileHealth(const std::string& path) EXCLUDES(mu_);

  // ---------------------------------------------------------------------
  // Introspection.

  GboStats stats() const EXCLUDES(mu_);
  int64_t memory_usage() const;
  int64_t memory_limit() const;
  const GboOptions& options() const { return options_; }
  // The clamped shard count actually in use ([1, lock_rank::kGboMaxShards]).
  int metadata_shards() const { return static_cast<int>(shards_.size()); }

  // Which shard owns a unit name / serves it from its unit table and LRU
  // list: std::hash<std::string> of the name modulo metadata_shards().
  // Stable within a process; exposed so tests can build per-shard models.
  size_t ShardIndexOfUnitName(const std::string& unit_name) const;

  // Human-readable snapshot of the database: record types, units and
  // their states, memory. For debugging and logging only.
  std::string DebugString() const EXCLUDES(mu_);

  // Runs the internal consistency audit (per-shard LRU lists vs unit
  // states vs the global memory accounting vs waiter counts) and returns
  // the first violation found, or OK. Always compiled (the
  // GODIVA_DEBUG_INVARIANTS build additionally runs it, fatally, at every
  // unit state transition); exposed so tests can assert the database is
  // coherent at interesting points.
  // lint: holds_on_entry(none)
  Status CheckInvariants() const EXCLUDES(mu_);

 private:
  struct Unit {
    std::string name;
    size_t shard_index = 0;  // owning shard; immutable after creation
    ReadFn read_fn;
    UnitState state = UnitState::kQueued;
    Status error;
    int refcount = 0;      // pins from WaitUnit/ReadUnit
    int waiters = 0;       // threads currently blocked on this unit
    bool finished = false; // FinishUnit was called
    // Retry bookkeeping, meaningful while state == kLoading.
    int attempt = 0;                // 1-based read-fn attempt number
    bool in_backoff = false;        // sleeping between attempts
    bool cancel_requested = false;  // DeleteUnit wants the load abandoned
    int64_t ready_seq = -1;
    // Global LRU stamp taken when the unit last became evictable; the
    // cross-shard eviction victim is the minimum over all shard fronts.
    int64_t lru_seq = -1;
    int64_t memory_bytes = 0;
    std::vector<Record*> records;
    // Files this unit's read function touches (AddUnit's resources
    // argument); input to the per-file circuit breaker.
    std::vector<std::string> resources;
    // --- live ingest (DESIGN.md §11).
    // Staleness epoch: bumped on every accepted publish of this name
    // (EmplaceUnitLocked and SupersedeUnit). Survives state resets.
    int64_t epoch = 0;
    // A newer publish superseded this version while it was kReady-pinned
    // or kLoading. Stale units keep serving their old-epoch data to
    // existing pins, are never handed to new readers, never entered into
    // an eviction list, and convert to a fresh kQueued load (with
    // pending_read_fn) once the last pin/load drains.
    bool stale = false;
    // The superseding publish's read fn / resources, installed when the
    // stale unit is requeued.
    ReadFn pending_read_fn;
    std::vector<std::string> pending_resources;
  };

  // One metadata stripe. `mu` (rank kGboShardBase + index) guards every
  // member below it, plus all mutable fields of the Units its table owns
  // (the Unit pointers themselves additionally appear in the mu_-guarded
  // I/O queues, which never dereference them without this lock). The
  // counters are relaxed atomics: incremented on the lock-free-of-mu_ hot
  // path under `mu` only by convention, summed by stats() without it.
  struct Shard {
    Shard(int rank, const char* name) : mu(rank, name) {}

    // lint: rank(kGboShardBase)
    mutable Mutex mu;
    CondVar unit_cv;  // state transitions of units owned by this shard
    std::map<std::string, std::unique_ptr<Unit>> units GUARDED_BY(mu);
    // Key index slice per record type: an RB-tree map, as in the paper
    // ("organized in a C++ STL map, indexed with the key field values").
    std::map<const RecordType*, std::map<std::string, Record*>> indexes
        GUARDED_BY(mu);
    // This shard's eviction list (order per options_.eviction_policy;
    // coldest at the front).
    std::list<Unit*> evictable GUARDED_BY(mu);

    // Hot read-path counters (ISSUE 5): bumped while holding `mu`, read
    // by stats() without it, hence atomics with relaxed ordering.
    std::atomic<int64_t> key_lookups{0};
    std::atomic<int64_t> failed_lookups{0};
    std::atomic<int64_t> unit_cache_hits{0};
    std::atomic<int64_t> lru_touches{0};
  };

  // Health record of one declared resource file.
  struct FileHealth {
    int permanent_failures = 0;
    bool quarantined = false;
  };

  // Immutable snapshot of the committed record types, rebuilt under mu_ on
  // every CommitRecordType and read lock-free by the query hot path.
  // Superseded snapshots are retired to schema_history_ (readers may still
  // hold the raw pointer), freed with the database.
  struct SchemaSnapshot {
    std::map<std::string, RecordType*> types;
  };

  struct RawField {
    void* data;
    int64_t size;
  };

  // --- shard routing (pure functions of immutable state).

  Shard& ShardOfUnitName(const std::string& unit_name) const;
  size_t ShardIndexOfKey(const RecordType* type,
                         const std::string& encoded_key) const;

  // --- schema and record helpers.

  Result<RecordType*> FindCommittedTypeLocked(const std::string& record_type)
      REQUIRES(mu_);
  // Lock-free committed-type resolution through the schema snapshot;
  // falls back to mu_ for exact NOT_FOUND / FAILED_PRECONDITION errors.
  Result<RecordType*> ResolveCommittedType(const std::string& record_type)
      EXCLUDES(mu_);
  // Encodes and validates a lookup key against an (immutable, committed)
  // record type. Lock-free.
  static Status EncodeLookupKey(const RecordType& type,
                                const std::vector<std::string>& key_values,
                                std::string* key);
  // The keyed lookups' one body: resolves the type, encodes the key, finds
  // the record in its key shard (bumping the shard's lookup counters) and
  // returns `read(record)`, still under that shard's lock. Defined in
  // gbo.cc, the only file that instantiates it.
  template <typename R, typename ReadRecord>
  R LookupRecord(const std::string& record_type,
                 const std::vector<std::string>& key_values, ReadRecord read)
      EXCLUDES(mu_);
  // Shared body of GetFieldSpan: resolves, looks up, type-checks.
  Result<RawField> GetFieldRaw(const std::string& record_type,
                               const std::string& field_name,
                               const std::vector<std::string>& key_values,
                               int64_t elem_size) EXCLUDES(mu_);
  // Rebuilds the schema snapshot after a successful type commit.
  void PublishSchemaSnapshotLocked() REQUIRES(mu_);

  // --- memory accounting and eviction.

  // Charges `bytes` against the global budget and the peak/total stats.
  // (The owning unit's memory_bytes is updated separately, under its
  // shard lock.)
  void ChargeMemoryLocked(int64_t bytes) REQUIRES(mu_);
  // Evicts the globally coldest evictable unit (minimum LRU stamp / ready
  // sequence over all shard fronts); returns false if none. Takes shard
  // locks internally — no shard lock may be held on entry.
  bool EvictOneLocked() REQUIRES(mu_);
  // Evicts until memory_used_ < memory_limit_ or nothing evictable.
  void EvictToLimitLocked() REQUIRES(mu_);
  // Unindexes `victims` (locking each record's key shard), drops their
  // ownership, and returns `freed` bytes to the budget. No shard lock may
  // be held on entry.
  void ReleaseRecordsLocked(const std::vector<Record*>& victims,
                            int64_t freed) REQUIRES(mu_);
  // Rolls a failed load's partial records back. No locks held on entry or
  // exit.
  void RollbackRecords(Shard& s, Unit* unit) EXCLUDES(mu_);
  void MakeEvictableLocked(Shard& s, Unit* unit) REQUIRES(s.mu);
  void PinLocked(Shard& s, Unit* unit) REQUIRES(s.mu);
  // A cache hit: pins `unit` and counts the hit if it is kReady and fresh
  // (a stale unit's data belongs to a superseded epoch and is never handed
  // to a new reader). False, touching nothing, otherwise — `unit` may be
  // null.
  bool PinCacheHitLocked(Shard& s, Unit* unit) REQUIRES(s.mu);
  // Deletes/evicts a unit. Entry: mu_ and s.mu held. Exit: only mu_ held
  // (s.mu is released so the record purge can lock key shards in order).
  // lint: holds_on_entry(Gbo::mu_, Gbo::Shard::mu)
  // lint: on_exit_releases(Gbo::Shard::mu)
  void EvictUnitLocked(Shard& s, Unit* unit, bool explicit_delete)
      NO_THREAD_SAFETY_ANALYSIS;

  // --- read execution.

  // Runs the read function with the unit bound as the calling thread's
  // current unit. Called WITHOUT any Gbo lock held — the read function
  // re-enters the public API (any record operation re-locks mu_; the
  // lock-rank checker turns a violation of this rule into a self-deadlock
  // abort).
  Status RunReadFn(Unit* unit) EXCLUDES(mu_);

  // Runs the read function under the retry policy: rolls partial records
  // back after every failed attempt and sleeps a jittered exponential
  // backoff (interruptible by shutdown and DeleteUnit) before the next.
  // No locks held on entry or exit; takes mu_ and s.mu internally in
  // short critical sections around bookkeeping and the backoff sleep. The
  // caller owns the unit's state transition.
  Status ExecuteRead(Shard& s, Unit* unit, const TimePoint* deadline,
                     bool on_io_thread) EXCLUDES(mu_);

  // The next jittered backoff delay for the given base.
  Duration JitteredBackoffLocked(Duration base) REQUIRES(mu_);

  // Blocking load on the caller's thread (foreground read / single-thread
  // WaitUnit). Entry: mu_ and s.mu held. Exit: only s.mu held (mu_ is
  // released before the read runs and not re-taken, so the caller can pin
  // the settled unit in the same s.mu critical section). Settles the unit
  // and stores the watch event to raise in `*settled` — unless a publish
  // superseded it mid-load, in which case it stays kLoading and stale for
  // the caller to convert (HandleStaleSettle).
  // lint: holds_on_entry(Gbo::mu_, Gbo::Shard::mu)
  // lint: on_exit_releases(Gbo::mu_)
  Status LoadInlineAndLock(Shard& s, Unit* unit, const TimePoint* deadline,
                           std::optional<WatchEvent>* settled)
      NO_THREAD_SAFETY_ANALYSIS;

  // The one settle: moves `unit` to kReady (`status` OK) or kFailed with
  // `status` preserved, stamps its completion order and wakes its waiters.
  // Returns the watch event the caller raises once it holds no Gbo lock.
  WatchEvent SettleUnitLocked(Shard& s, Unit* unit, Status status)
      REQUIRES(s.mu);

  // Waits until `unit` leaves Queued/Loading (or `deadline`, if non-null,
  // passes). Returns the unit's terminal status or DEADLINE_EXCEEDED.
  // s.mu is held on entry, across the waits, and on exit.
  Status AwaitReadyLocked(Shard& s, Unit* unit, const TimePoint* deadline)
      REQUIRES(s.mu);

  // True once `unit` is out of Queued/Loading — AwaitReadyLocked's wait
  // predicate (backoff sleeps count as settled enough for a foreground
  // caller to take over the load). Requires the owning shard's lock.
  bool UnitSettled(const Unit& unit) const;

  // The unit named `unit_name` in `s`, or null.
  Unit* FindUnitLocked(Shard& s, const std::string& unit_name) const
      REQUIRES(s.mu);
  // True for a present unit that is neither deleted nor failed. A name
  // without a live unit is added, published or read afresh; WaitUnit has
  // nothing to wait for. Requires the unit's shard lock.
  static bool IsLive(const Unit* unit);

  // Resets `unit` for a fresh load by `read_fn`: kQueued, no error, pin,
  // retry or staleness state. Its resources and epoch are the caller's.
  void ResetForLoadLocked(Shard& s, Unit* unit, ReadFn read_fn)
      REQUIRES(s.mu);

  // Finds the existing entry for `unit_name` in `s` or creates one, starts
  // a new staleness epoch and resets it for a fresh load by `read_fn`.
  Unit* EmplaceUnitLocked(Shard& s, const std::string& unit_name,
                          ReadFn read_fn) REQUIRES(s.mu);

  // AddUnit's body (also SupersedeUnit's for a name with no live unit):
  // emplaces the unit and queues it at the back of the speculative FIFO.
  Unit* AddUnitLocked(Shard& s, const std::string& unit_name, ReadFn read_fn,
                      std::vector<std::string> resources) REQUIRES(mu_, s.mu);

  // The one body of ReadUnit(For) and WaitUnit(For): a cache hit pins the
  // unit; a queued or loading unit is waited for as a demand miss; the G
  // build loads a queued unit inline. They differ only in what an absent,
  // deleted or failed unit means: with a `read_fn` it is loaded inline on
  // the calling thread, without one the answer is NOT_FOUND or the stored
  // error. Pins the unit on success.
  // lint: holds_on_entry(none)
  Status AcquireUnit(const std::string& unit_name, ReadFn* read_fn,
                     const TimePoint* deadline) EXCLUDES(mu_);

  // The by-name getters' one lookup: `read(unit)` under the unit's shard
  // lock, or NOT_FOUND if no unit of that name exists. Defined in
  // gbo_units.cc, the only file that instantiates it.
  template <typename R, typename ReadField>
  R ReadUnitField(const std::string& unit_name, ReadField read) const
      EXCLUDES(mu_);

  // --- live ingest (watch registry + staleness; DESIGN.md §11).

  // Delivers `event` to every watcher whose glob matches its unit name.
  // Must be called with NO Gbo locks held (callbacks may re-enter the
  // public API); snapshots the matching callbacks under watch_mu_ and
  // invokes them after releasing it.
  void NotifyWatchers(const WatchEvent& event) EXCLUDES(mu_, watch_mu_);

  // Converts a stale unit that still holds records (a superseded kReady
  // unit whose last pin just drained, or a stale load that completed) into
  // a fresh kQueued load of its pending read fn: purges the old records,
  // resets lifecycle state, requeues. Entry: mu_ and s.mu held. Exit: only
  // mu_ held (record purge locks key shards in order, like
  // EvictUnitLocked).
  // lint: holds_on_entry(Gbo::mu_, Gbo::Shard::mu)
  // lint: on_exit_releases(Gbo::Shard::mu)
  void RequeueStaleUnitLocked(Shard& s, Unit* unit)
      NO_THREAD_SAFETY_ANALYSIS;

  // Called with no locks held after a load settled on a unit that a
  // concurrent publish marked stale: rolls partial records back and
  // requeues the unit for its pending read fn (re-checking staleness
  // under the locks). The unit stays kLoading until this runs.
  // lint: holds_on_entry(none)
  void HandleStaleSettle(Shard& s, Unit* unit) EXCLUDES(mu_);

  // --- circuit breaker.

  // Charges a permanent unit failure against each of the unit's declared
  // resource files, quarantining any that reach the threshold.
  void RecordUnitFailureLocked(const Unit& unit) REQUIRES(mu_);
  // The first quarantined resource of `unit`, or nullptr.
  const std::string* QuarantinedResourceLocked(const Unit& unit) const
      REQUIRES(mu_);
  // Fails `unit` fast with DATA_LOSS naming the quarantined `path`, without
  // running its read function. The unit must not hold records. Requires
  // mu_ and the unit's shard lock. Returns the kFailed watch event.
  WatchEvent ShortCircuitUnitLocked(Shard& s, Unit* unit,
                                    const std::string& path)
      REQUIRES(mu_, s.mu);

  // --- I/O pool.

  // Body of one I/O pool thread. `thread_index` selects the per-thread
  // busy-time accumulator.
  // lint: holds_on_entry(none)
  void IoThreadMain(size_t thread_index) EXCLUDES(mu_);
  // Fails `unit` with ABORTED to break a detected deadlock. Takes the
  // unit's shard lock internally; no shard lock may be held on entry.
  // Returns the kFailed watch event.
  WatchEvent ResolveDeadlockLocked(Unit* unit) REQUIRES(mu_);
  // A queued unit some thread is blocked on (deadlock candidate), if any.
  // Scans the demand queue first, then the speculative queue, peeking
  // each unit's shard lock. No shard lock may be held on entry.
  Unit* FindBlockedQueuedUnitLocked() REQUIRES(mu_);

  // Erases `unit` from both the demand and the speculative queue (it
  // appears in at most one).
  void RemoveFromQueuesLocked(Unit* unit) REQUIRES(mu_);
  // The next unit a pool thread should load: demand queue first (a thread
  // is blocked on those), then the speculative prefetch FIFO. Null when
  // both queues are empty.
  Unit* PopNextQueuedLocked() REQUIRES(mu_);
  // Queue placement under the demand-promotion rule (DESIGN.md §8). A
  // unit some thread is blocked on (`blocked`) is a demand miss: with more
  // than one I/O thread it goes to the back of the demand queue, ahead of
  // speculative prefetches — moved there from the speculative FIFO if it
  // is already `queued`. Otherwise an unqueued unit joins the back of the
  // FIFO and a queued one keeps its place, so a single I/O thread keeps
  // the paper's strict FIFO order byte for byte.
  void QueueUnitLocked(Unit* unit, bool queued, bool blocked) REQUIRES(mu_);
  // Records the current queued-unit count into the high-water stat.
  void NoteQueueDepthLocked() REQUIRES(mu_);

  // --- invariants.

  // Acquire/release every shard mutex in index order (the documented
  // multi-shard order; the rank checker verifies it at run time).
  // lint: holds_on_entry(none)
  // lint: on_exit_holds(Gbo::Shard::mu)
  void LockAllShards() const NO_THREAD_SAFETY_ANALYSIS;
  // lint: holds_on_entry(Gbo::Shard::mu)
  // lint: on_exit_releases(Gbo::Shard::mu)
  void UnlockAllShards() const NO_THREAD_SAFETY_ANALYSIS;

  // The audit behind CheckInvariants(): walks every shard's units,
  // indexes and eviction list plus the global record table, queues and
  // memory accounting, and cross-checks them. Requires mu_ AND every
  // shard lock (asserted at run time; not expressible to the static
  // analysis).
  // lint: holds_on_entry(Gbo::mu_, Gbo::Shard::mu)
  Status AuditInvariantsLocked() const NO_THREAD_SAFETY_ANALYSIS;
  // Fatal audit wrapper, compiled to a no-op unless
  // GODIVA_DEBUG_INVARIANTS: called (with no Gbo lock held) after every
  // unit state transition; locks mu_ + all shards, logs and aborts on
  // violation.
  // lint: holds_on_entry(none)
  void CheckInvariantsDebug() EXCLUDES(mu_);

  const GboOptions options_;

  // The metadata shards (see Shard above). The vector itself is immutable
  // after construction — always at least one shard.
  // lint: unguarded(set in the constructor, never resized after)
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable Mutex mu_{lock_rank::kGboMu, "Gbo::mu_"};
  CondVar memory_cv_;  // memory freed / evictables appeared / waiter blocked
  CondVar queue_cv_;   // prefetch queue / shutdown

  std::map<std::string, std::unique_ptr<FieldTypeDef>> field_types_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<RecordType>> record_types_
      GUARDED_BY(mu_);
  // Lock-free view of the committed types for the query hot path; retired
  // snapshots are kept alive in schema_history_.
  std::atomic<const SchemaSnapshot*> schema_snapshot_{nullptr};
  std::vector<std::unique_ptr<const SchemaSnapshot>> schema_history_
      GUARDED_BY(mu_);
  // Record ownership (all shards' records live here; per-shard state only
  // holds raw pointers).
  std::map<Record*, std::unique_ptr<Record>> records_ GUARDED_BY(mu_);

  // Speculative prefetch FIFO (AddUnit order) …
  std::deque<Unit*> prefetch_queue_ GUARDED_BY(mu_);
  // … and the priority lane in front of it: queued units some thread is
  // already blocked on (demand misses). Pool threads drain this first.
  // Always empty when io_threads == 1. A unit sits in at most one queue.
  std::deque<Unit*> demand_queue_ GUARDED_BY(mu_);
  // Declared resource file → failure count / quarantine flag.
  std::map<std::string, FileHealth> file_health_ GUARDED_BY(mu_);

  // Global memory budget (ISSUE 5: "shared atomic byte counter"). Only
  // mutated under mu_ (so eviction decisions stay exact), but readable
  // without it.
  std::atomic<int64_t> memory_limit_;
  std::atomic<int64_t> memory_used_{0};
  // Completion order stamp; assigned under the settling unit's shard lock.
  std::atomic<int64_t> next_ready_seq_{0};
  // Global LRU clock; stamped under the owning shard's lock whenever a
  // unit becomes evictable.
  std::atomic<int64_t> lru_clock_{0};
  // Threads blocked in AwaitReadyLocked across all shards (the deadlock
  // detector's signal; per-unit waiter counts live in the shards).
  std::atomic<int> blocked_waiters_{0};
  // I/O threads parked in the memory gate. FinishUnit makes units
  // evictable under only a shard lock; when this is non-zero it re-takes
  // mu_ briefly to deliver the memory_cv_ wakeup, keeping prefetch
  // latency at notify speed instead of the gate's bounded-poll backstop.
  std::atomic<int> memory_gate_waiters_{0};
  std::atomic<bool> shutdown_{false};
  // Units currently being loaded by pool threads. Deadlock detection may
  // only fire when this is zero: an in-flight load can still complete and
  // let its waiter free memory.
  int loads_in_flight_ GUARDED_BY(mu_) = 0;

  // Cold counters guarded by mu_; per-shard hot counters live in the
  // shards and are summed into these by stats(). Mutable so the const
  // audit path can count itself.
  mutable GboStats counters_ GUARDED_BY(mu_);

  // Backoff jitter source (fixed seed: deterministic runs).
  Random retry_rng_ GUARDED_BY(mu_){0x60D1FA};

  // --- watch registry (live ingest). watch_mu_ ranks above the shard
  // range: a thread holding mu_ / shard locks may take it to snapshot the
  // watcher list, but callbacks always run with no Gbo locks held.
  struct Watcher {
    int64_t id = 0;
    std::string glob;
    WatchFn fn;
  };
  mutable Mutex watch_mu_{lock_rank::kGboWatch, "Gbo::watch_mu_"};
  std::vector<Watcher> watchers_ GUARDED_BY(watch_mu_);
  int64_t next_watch_id_ GUARDED_BY(watch_mu_) = 1;
  // In-flight deliveries per watch id; UnregisterWatch waits on watch_cv_
  // for its id to drain so the callback's captures can be freed safely.
  std::map<int64_t, int> watch_running_ GUARDED_BY(watch_mu_);
  CondVar watch_cv_;
  // Callbacks delivered; relaxed atomic (bumped outside any lock), summed
  // into stats().
  std::atomic<int64_t> watch_notifications_{0};

  // Time accumulators (internally thread safe, updated outside mu_).
  TimeAccumulator visible_io_time_;
  TimeAccumulator read_fn_time_;
  TimeAccumulator prefetch_time_;
  // One busy-time accumulator per pool thread; each thread writes only its
  // own slot, stats() reads them all. Sized at construction, never
  // resized, so the slots are safe to touch without mu_.
  // lint: unguarded(per-thread slots; vector sized at construction only)
  std::vector<std::unique_ptr<TimeAccumulator>> io_busy_;

  // lint: unguarded(written at construction and in ~Gbo after the pool stops)
  std::vector<Thread> io_threads_;  // empty unless background_io
};

}  // namespace godiva

#endif  // GODIVA_CORE_GBO_H_
