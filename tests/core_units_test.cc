// Tests for processing-unit lifecycle and background I/O (paper §3.2):
// AddUnit/ReadUnit/WaitUnit/FinishUnit/DeleteUnit, prefetching order,
// single-thread mode, failure propagation, and deadlock detection.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/gbo.h"
#include "core/key_util.h"
#include "core/options.h"
#include "core/record.h"

namespace godiva {
namespace {

using std::chrono::milliseconds;

// Defines a record type keyed by unit name; the read function creates
// `records_per_unit` records of `payload_bytes` each.
void DefineUnitSchema(Gbo* db) {
  ASSERT_TRUE(db->DefineField("unit", DataType::kString, 16).ok());
  ASSERT_TRUE(db->DefineField("index", DataType::kInt32, 4).ok());
  ASSERT_TRUE(
      db->DefineField("payload", DataType::kFloat64, kUnknownSize).ok());
  ASSERT_TRUE(db->DefineRecord("chunk", 2).ok());
  ASSERT_TRUE(db->InsertField("chunk", "unit", true).ok());
  ASSERT_TRUE(db->InsertField("chunk", "index", true).ok());
  ASSERT_TRUE(db->InsertField("chunk", "payload", false).ok());
  ASSERT_TRUE(db->CommitRecordType("chunk").ok());
}

Gbo::ReadFn MakeReadFn(int records_per_unit, int64_t payload_bytes,
                       std::atomic<int>* reads = nullptr,
                       Duration delay = Duration::zero()) {
  return [=](Gbo* db, const std::string& unit_name) -> Status {
    if (reads != nullptr) reads->fetch_add(1);
    if (delay > Duration::zero()) std::this_thread::sleep_for(delay);
    for (int32_t i = 0; i < records_per_unit; ++i) {
      GODIVA_ASSIGN_OR_RETURN(Record * rec, db->NewRecord("chunk"));
      std::memcpy(*rec->FieldBuffer("unit"), PadKey(unit_name, 16).data(),
                  16);
      std::memcpy(*rec->FieldBuffer("index"), &i, 4);
      GODIVA_ASSIGN_OR_RETURN(void* payload,
                              db->AllocFieldBuffer(rec, "payload",
                                                   payload_bytes));
      static_cast<double*>(payload)[0] = i + 0.5;
      GODIVA_RETURN_IF_ERROR(db->CommitRecord(rec));
    }
    return Status::Ok();
  };
}

std::vector<std::string> ChunkKey(const std::string& unit, int32_t index) {
  return {PadKey(unit, 16), KeyBytes(index)};
}

TEST(UnitsTest, AddWaitProcessDeleteBatchFlow) {
  // The paper's sample main(): add all units up front, wait for each,
  // process, delete.
  Gbo db;
  DefineUnitSchema(&db);
  ASSERT_TRUE(db.AddUnit("file1", MakeReadFn(4, 256)).ok());
  ASSERT_TRUE(db.AddUnit("file2", MakeReadFn(4, 256)).ok());

  for (const std::string unit : {"file1", "file2"}) {
    ASSERT_TRUE(db.WaitUnit(unit).ok());
    auto buffer = db.GetFieldBuffer("chunk", "payload", ChunkKey(unit, 2));
    ASSERT_TRUE(buffer.ok()) << buffer.status();
    EXPECT_EQ(static_cast<double*>(*buffer)[0], 2.5);
    ASSERT_TRUE(db.DeleteUnit(unit).ok());
    // Deleted unit's records are gone.
    EXPECT_EQ(
        db.GetFieldBuffer("chunk", "payload", ChunkKey(unit, 2))
            .status()
            .code(),
        StatusCode::kNotFound);
  }
  GboStats stats = db.stats();
  EXPECT_EQ(stats.units_added, 2);
  EXPECT_EQ(stats.units_deleted, 2);
  EXPECT_EQ(stats.current_memory_bytes, 0);
}

TEST(UnitsTest, PrefetchHappensInBackground) {
  Gbo db;
  DefineUnitSchema(&db);
  std::atomic<int> reads{0};
  ASSERT_TRUE(db.AddUnit("u", MakeReadFn(1, 64, &reads)).ok());
  // The background thread performs the read without any Wait call.
  for (int i = 0; i < 200 && reads.load() == 0; ++i) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_EQ(reads.load(), 1);
  ASSERT_TRUE(db.WaitUnit("u").ok());
  EXPECT_EQ(db.stats().units_prefetched, 1);
  EXPECT_EQ(db.stats().units_read_foreground, 0);
}

TEST(UnitsTest, UnitsPrefetchInFifoOrder) {
  Gbo db;
  DefineUnitSchema(&db);
  std::vector<std::string> order;
  std::mutex order_mu;
  for (int i = 0; i < 5; ++i) {
    std::string name = "u" + std::to_string(i);
    ASSERT_TRUE(db.AddUnit(name,
                           [&, base = MakeReadFn(1, 64)](
                               Gbo* g, const std::string& n) -> Status {
                             {
                               std::lock_guard<std::mutex> lock(order_mu);
                               order.push_back(n);
                             }
                             return base(g, n);
                           })
                    .ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.WaitUnit("u" + std::to_string(i)).ok());
  }
  std::lock_guard<std::mutex> lock(order_mu);
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(order[i], "u" + std::to_string(i));
  }
}

TEST(UnitsTest, SingleThreadModeReadsInsideWait) {
  Gbo db(GboOptions::SingleThread());
  DefineUnitSchema(&db);
  std::atomic<int> reads{0};
  ASSERT_TRUE(db.AddUnit("u", MakeReadFn(2, 128, &reads)).ok());
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_EQ(reads.load(), 0);  // nothing happens until the wait
  ASSERT_TRUE(db.WaitUnit("u").ok());
  EXPECT_EQ(reads.load(), 1);
  GboStats stats = db.stats();
  EXPECT_EQ(stats.units_read_foreground, 1);
  EXPECT_EQ(stats.units_prefetched, 0);
  EXPECT_GT(stats.visible_io_seconds, 0.0);
}

TEST(UnitsTest, ReadUnitPerformsForegroundBlockingRead) {
  Gbo db;
  DefineUnitSchema(&db);
  std::atomic<int> reads{0};
  // Interactive pattern: no AddUnit; explicit blocking ReadUnit.
  ASSERT_TRUE(db.ReadUnit("u", MakeReadFn(1, 64, &reads)).ok());
  EXPECT_EQ(reads.load(), 1);
  EXPECT_TRUE(db.GetFieldBuffer("chunk", "payload", ChunkKey("u", 0)).ok());
  EXPECT_EQ(db.stats().units_read_foreground, 1);
}

TEST(UnitsTest, ReadUnitOnResidentUnitIsCacheHit) {
  Gbo db;
  DefineUnitSchema(&db);
  std::atomic<int> reads{0};
  ASSERT_TRUE(db.ReadUnit("u", MakeReadFn(1, 64, &reads)).ok());
  ASSERT_TRUE(db.ReadUnit("u", MakeReadFn(1, 64, &reads)).ok());
  EXPECT_EQ(reads.load(), 1);  // second call did no I/O
  EXPECT_EQ(db.stats().unit_cache_hits, 1);
}

TEST(UnitsTest, WaitUnknownUnitIsNotFound) {
  Gbo db;
  EXPECT_EQ(db.WaitUnit("ghost").code(), StatusCode::kNotFound);
  EXPECT_EQ(db.FinishUnit("ghost").code(), StatusCode::kNotFound);
  EXPECT_EQ(db.DeleteUnit("ghost").code(), StatusCode::kNotFound);
}

TEST(UnitsTest, DuplicateAddRejected) {
  Gbo db;
  DefineUnitSchema(&db);
  ASSERT_TRUE(db.AddUnit("u", MakeReadFn(1, 64)).ok());
  EXPECT_EQ(db.AddUnit("u", MakeReadFn(1, 64)).code(),
            StatusCode::kAlreadyExists);
}

TEST(UnitsTest, AddValidatesArguments) {
  Gbo db;
  EXPECT_EQ(db.AddUnit("", MakeReadFn(1, 64)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.AddUnit("u", nullptr).code(), StatusCode::kInvalidArgument);
}

TEST(UnitsTest, UnitCanBeReAddedAfterDelete) {
  Gbo db;
  DefineUnitSchema(&db);
  std::atomic<int> reads{0};
  ASSERT_TRUE(db.AddUnit("u", MakeReadFn(1, 64, &reads)).ok());
  ASSERT_TRUE(db.WaitUnit("u").ok());
  ASSERT_TRUE(db.DeleteUnit("u").ok());
  ASSERT_TRUE(db.AddUnit("u", MakeReadFn(1, 64, &reads)).ok());
  ASSERT_TRUE(db.WaitUnit("u").ok());
  EXPECT_EQ(reads.load(), 2);
}

TEST(UnitsTest, FailedReadPropagatesToWaiters) {
  Gbo db;
  DefineUnitSchema(&db);
  ASSERT_TRUE(db.AddUnit("bad",
                         [](Gbo*, const std::string&) {
                           return IoError("disk on fire");
                         })
                  .ok());
  Status s = db.WaitUnit("bad");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.message(), "disk on fire");
  auto state = db.GetUnitState("bad");
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, UnitState::kFailed);
}

TEST(UnitsTest, FailedForegroundReadPropagates) {
  Gbo db(GboOptions::SingleThread());
  DefineUnitSchema(&db);
  Status s = db.ReadUnit("bad", [](Gbo*, const std::string&) {
    return DataLossError("corrupt");
  });
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

TEST(UnitsTest, RecordsInUnitListsBoundRecords) {
  Gbo db;
  DefineUnitSchema(&db);
  ASSERT_TRUE(db.AddUnit("u", MakeReadFn(3, 64)).ok());
  ASSERT_TRUE(db.WaitUnit("u").ok());
  auto records = db.RecordsInUnit("u");
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 3u);
  for (Record* record : *records) {
    EXPECT_EQ(record->unit(), "u");
  }
}

TEST(UnitsTest, RecordsOutsideReadFnAreUnbound) {
  Gbo db(GboOptions::SingleThread());
  DefineUnitSchema(&db);
  auto rec = db.NewRecord("chunk");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->unit(), "");
}

TEST(UnitsTest, GetUnitStateTracksLifecycle) {
  Gbo db(GboOptions::SingleThread());
  DefineUnitSchema(&db);
  ASSERT_TRUE(db.AddUnit("u", MakeReadFn(1, 64)).ok());
  EXPECT_EQ(*db.GetUnitState("u"), UnitState::kQueued);
  ASSERT_TRUE(db.WaitUnit("u").ok());
  EXPECT_EQ(*db.GetUnitState("u"), UnitState::kReady);
  ASSERT_TRUE(db.DeleteUnit("u").ok());
  EXPECT_EQ(*db.GetUnitState("u"), UnitState::kDeleted);
}

TEST(UnitsTest, VisibleIoTimeOnlyCoversBlockedTime) {
  // With background I/O and a slow read, waiting immediately costs visible
  // time; waiting after completion costs ~none.
  Gbo db;
  DefineUnitSchema(&db);
  ASSERT_TRUE(
      db.AddUnit("slow", MakeReadFn(1, 64, nullptr, milliseconds(50))).ok());
  ASSERT_TRUE(db.WaitUnit("slow").ok());
  double visible_after_block = db.stats().visible_io_seconds;
  EXPECT_GT(visible_after_block, 0.030);

  ASSERT_TRUE(
      db.AddUnit("slow2", MakeReadFn(1, 64, nullptr, milliseconds(50))).ok());
  std::this_thread::sleep_for(milliseconds(120));  // let prefetch finish
  ASSERT_TRUE(db.WaitUnit("slow2").ok());
  double visible_delta = db.stats().visible_io_seconds - visible_after_block;
  EXPECT_LT(visible_delta, 0.020);
  EXPECT_GE(db.stats().unit_cache_hits, 1);
}

TEST(UnitsTest, DeleteWhileLoadingIsRejected) {
  Gbo db;
  DefineUnitSchema(&db);
  std::atomic<bool> in_read{false};
  ASSERT_TRUE(db.AddUnit("u",
                         [&](Gbo* g, const std::string& n) -> Status {
                           in_read.store(true);
                           std::this_thread::sleep_for(milliseconds(100));
                           return MakeReadFn(1, 64)(g, n);
                         })
                  .ok());
  while (!in_read.load()) std::this_thread::sleep_for(milliseconds(1));
  EXPECT_EQ(db.DeleteUnit("u").code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(db.WaitUnit("u").ok());
  EXPECT_TRUE(db.DeleteUnit("u").ok());
}

TEST(UnitsTest, DeadlockDetectedWhenMemoryExhaustedAndNothingEvictable) {
  // Two units, each bigger than the whole database budget; the first is
  // never finished/deleted, so prefetching the second can make no progress
  // while the main thread waits for it: the paper's deadlock case.
  GboOptions options;
  options.memory_limit_bytes = 64 * 1024;
  Gbo db(options);
  DefineUnitSchema(&db);
  std::mutex events_mu;
  std::vector<Gbo::WatchEvent> events;
  db.RegisterWatch("*", [&](const Gbo::WatchEvent& event) {
    std::lock_guard<std::mutex> lock(events_mu);
    events.push_back(event);
  });
  ASSERT_TRUE(db.AddUnit("u1", MakeReadFn(2, 40 * 1024)).ok());
  ASSERT_TRUE(db.AddUnit("u2", MakeReadFn(2, 40 * 1024)).ok());
  ASSERT_TRUE(db.WaitUnit("u1").ok());
  // Processing "u1" but neglecting FinishUnit/DeleteUnit...
  Status s = db.WaitUnit("u2");
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_NE(s.message().find("deadlock"), std::string::npos) << s;
  EXPECT_EQ(db.stats().deadlocks_detected, 1);

  // Deadlock resolution settles u2 like any other failure: its watchers
  // get one kFailed event, delivered by the pool thread after the wakeup.
  auto count = [&](const std::string& unit, Gbo::WatchEventKind kind) {
    std::lock_guard<std::mutex> lock(events_mu);
    int n = 0;
    for (const Gbo::WatchEvent& event : events) {
      if (event.unit_name == unit && event.kind == kind) ++n;
    }
    return n;
  };
  for (int i = 0; i < 5000 && count("u2", Gbo::WatchEventKind::kFailed) == 0;
       ++i) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_EQ(count("u1", Gbo::WatchEventKind::kReady), 1);
  EXPECT_EQ(count("u2", Gbo::WatchEventKind::kFailed), 1);
  std::lock_guard<std::mutex> lock(events_mu);
  EXPECT_EQ(events.size(), 2u);
}

TEST(UnitsTest, NoDeadlockWhenUnitsAreDeleted) {
  // Same budget, but the application deletes processed units: everything
  // streams through fine.
  GboOptions options;
  options.memory_limit_bytes = 64 * 1024;
  Gbo db(options);
  DefineUnitSchema(&db);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        db.AddUnit("u" + std::to_string(i), MakeReadFn(2, 20 * 1024)).ok());
  }
  for (int i = 0; i < 6; ++i) {
    std::string name = "u" + std::to_string(i);
    ASSERT_TRUE(db.WaitUnit(name).ok()) << name;
    ASSERT_TRUE(db.DeleteUnit(name).ok());
  }
  EXPECT_EQ(db.stats().deadlocks_detected, 0);
}

TEST(UnitsTest, FailedReadRollsBackPartialRecords) {
  // The read function commits one record and then fails: the partial
  // record must not remain visible and its memory must be released.
  Gbo db(GboOptions::SingleThread());
  DefineUnitSchema(&db);
  auto partial_then_fail = [](Gbo* g, const std::string& n) -> Status {
    GODIVA_RETURN_IF_ERROR(MakeReadFn(1, 128)(g, n));  // one good record
    return IoError("failed after the first record");
  };
  EXPECT_EQ(db.ReadUnit("u", partial_then_fail).code(),
            StatusCode::kIoError);
  EXPECT_EQ(
      db.GetFieldBuffer("chunk", "payload", ChunkKey("u", 0)).status().code(),
      StatusCode::kNotFound);
  EXPECT_EQ(db.stats().current_memory_bytes, 0);
}

TEST(UnitsTest, ReadUnitRetriesAfterFailure) {
  Gbo db(GboOptions::SingleThread());
  DefineUnitSchema(&db);
  std::atomic<int> attempts{0};
  auto flaky = [&](Gbo* g, const std::string& n) -> Status {
    if (attempts.fetch_add(1) == 0) return IoError("transient");
    return MakeReadFn(1, 128)(g, n);
  };
  EXPECT_EQ(db.ReadUnit("u", flaky).code(), StatusCode::kIoError);
  EXPECT_TRUE(db.ReadUnit("u", flaky).ok());
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_TRUE(db.GetFieldBuffer("chunk", "payload", ChunkKey("u", 0)).ok());
}

TEST(UnitsTest, FailedUnitCanBeReAdded) {
  Gbo db;
  DefineUnitSchema(&db);
  ASSERT_TRUE(db.AddUnit("u",
                         [](Gbo*, const std::string&) {
                           return IoError("boom");
                         })
                  .ok());
  EXPECT_EQ(db.WaitUnit("u").code(), StatusCode::kIoError);
  // Re-adding a failed unit queues a fresh prefetch with the new fn.
  ASSERT_TRUE(db.AddUnit("u", MakeReadFn(2, 128)).ok());
  EXPECT_TRUE(db.WaitUnit("u").ok());
  EXPECT_TRUE(db.GetFieldBuffer("chunk", "payload", ChunkKey("u", 1)).ok());
}

TEST(UnitsTest, PrefetchFailureRollsBackToo) {
  Gbo db;
  DefineUnitSchema(&db);
  ASSERT_TRUE(db.AddUnit("u",
                         [](Gbo* g, const std::string& n) -> Status {
                           GODIVA_RETURN_IF_ERROR(MakeReadFn(2, 256)(g, n));
                           return DataLossError("corrupt tail");
                         })
                  .ok());
  EXPECT_EQ(db.WaitUnit("u").code(), StatusCode::kDataLoss);
  EXPECT_EQ(db.stats().current_memory_bytes, 0);
  auto records = db.RecordsInUnit("u");
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(UnitsTest, DestructorTerminatesIoThreadWithPendingUnits) {
  Gbo db;
  DefineUnitSchema(&db);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.AddUnit("u" + std::to_string(i),
                           MakeReadFn(1, 64, nullptr, milliseconds(5)))
                    .ok());
  }
  // Destructor runs with most units still queued; must not hang or crash.
}

TEST(UnitsTest, ManyUnitsStressWithTinyBudget) {
  GboOptions options;
  options.memory_limit_bytes = 32 * 1024;
  Gbo db(options);
  DefineUnitSchema(&db);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        db.AddUnit("u" + std::to_string(i), MakeReadFn(4, 1024)).ok());
  }
  for (int i = 0; i < 40; ++i) {
    std::string name = "u" + std::to_string(i);
    ASSERT_TRUE(db.WaitUnit(name).ok());
    // Verify a value to make sure the right records are resident.
    auto buffer = db.GetFieldBuffer("chunk", "payload", ChunkKey(name, 3));
    ASSERT_TRUE(buffer.ok());
    EXPECT_EQ(static_cast<double*>(*buffer)[0], 3.5);
    ASSERT_TRUE(db.FinishUnit(name).ok());
  }
  EXPECT_EQ(db.stats().deadlocks_detected, 0);
}

// Every unit call on every unit state: the Status code (or the probe
// result, or the value read) and the unit's state afterwards, each cell on
// a fresh database holding one unit "u" in the given state.
enum class UnitSetup {
  kAbsent,      // no unit of that name
  kQueued,      // added to a single-thread (G) database, not yet read
  kReady,       // loaded and finished: cached, unpinned
  kSuperseded,  // loaded, pinned, then superseded: a stale kReady unit
  kFailed,      // its read function failed with IO_ERROR
  kDeleted,     // loaded, then deleted
};

enum class UnitCall {
  kReadUnit,
  kWaitUnit,
  kProbeUnitForPlan,
  kGetUnitState,
  kGetUnitError,
  kUnitMemoryBytes,
  kGetUnitEpoch,
};

std::unique_ptr<Gbo> MakeUnitInState(UnitSetup setup) {
  auto db = std::make_unique<Gbo>(setup == UnitSetup::kQueued
                                      ? GboOptions::SingleThread()
                                      : GboOptions());
  DefineUnitSchema(db.get());
  switch (setup) {
    case UnitSetup::kAbsent:
      break;
    case UnitSetup::kQueued:
      EXPECT_TRUE(db->AddUnit("u", MakeReadFn(1, 64)).ok());
      break;
    case UnitSetup::kReady:
      EXPECT_TRUE(db->ReadUnit("u", MakeReadFn(1, 64)).ok());
      EXPECT_TRUE(db->FinishUnit("u").ok());
      break;
    case UnitSetup::kSuperseded:
      EXPECT_TRUE(db->ReadUnit("u", MakeReadFn(1, 64)).ok());
      EXPECT_TRUE(db->SupersedeUnit("u", MakeReadFn(1, 64)).ok());
      break;
    case UnitSetup::kFailed:
      EXPECT_EQ(db->ReadUnit("u",
                             [](Gbo*, const std::string&) {
                               return IoError("disk on fire");
                             })
                    .code(),
                StatusCode::kIoError);
      break;
    case UnitSetup::kDeleted:
      EXPECT_TRUE(db->ReadUnit("u", MakeReadFn(1, 64)).ok());
      EXPECT_TRUE(db->DeleteUnit("u").ok());
      break;
  }
  return db;
}

std::string CodeName(const Status& status) {
  return std::string(StatusCodeName(status.code()));
}

// What `call` returned, as text: a Status code name, a probe result, or
// the value read.
std::string RunUnitCall(Gbo* db, UnitCall call) {
  // The deadline only matters where the call waits for a reload that a
  // pin holds back (the superseded unit); elsewhere it settles at once.
  const Duration timeout = milliseconds(50);
  switch (call) {
    case UnitCall::kReadUnit:
      return CodeName(db->ReadUnitFor("u", MakeReadFn(1, 64), timeout));
    case UnitCall::kWaitUnit:
      return CodeName(db->WaitUnitFor("u", timeout));
    case UnitCall::kProbeUnitForPlan:
      switch (db->ProbeUnitForPlan("u")) {
        case Gbo::UnitProbe::kAbsent:
          return "absent";
        case Gbo::UnitProbe::kResident:
          return "resident";
        case Gbo::UnitProbe::kInFlight:
          return "in flight";
      }
      return "?";
    case UnitCall::kGetUnitState: {
      Result<UnitState> state = db->GetUnitState("u");
      if (!state.ok()) return CodeName(state.status());
      return std::string(UnitStateName(*state));
    }
    case UnitCall::kGetUnitError:
      return CodeName(db->GetUnitError("u"));
    case UnitCall::kUnitMemoryBytes: {
      Result<int64_t> bytes = db->UnitMemoryBytes("u");
      if (!bytes.ok()) return CodeName(bytes.status());
      return *bytes > 0 ? "bytes" : "0";
    }
    case UnitCall::kGetUnitEpoch: {
      Result<int64_t> epoch = db->GetUnitEpoch("u");
      if (!epoch.ok()) return CodeName(epoch.status());
      return "epoch " + std::to_string(*epoch);
    }
  }
  return "?";
}

TEST(UnitsTest, EveryUnitCallOnEveryUnitState) {
  struct Cell {
    UnitSetup setup;
    UnitCall call;
    const char* result;
    const char* state_after;  // "none": no unit of that name
  };
  using S = UnitSetup;
  using C = UnitCall;
  const Cell cells[] = {
      // ReadUnit loads an absent, failed or deleted unit inline (and a
      // queued one in the G build); it waits out a superseded one.
      {S::kAbsent, C::kReadUnit, "OK", "READY"},
      {S::kQueued, C::kReadUnit, "OK", "READY"},
      {S::kReady, C::kReadUnit, "OK", "READY"},
      {S::kSuperseded, C::kReadUnit, "DEADLINE_EXCEEDED", "READY"},
      {S::kFailed, C::kReadUnit, "OK", "READY"},
      {S::kDeleted, C::kReadUnit, "OK", "READY"},
      // WaitUnit never loads a unit nobody queued: NOT_FOUND or the
      // stored error instead.
      {S::kAbsent, C::kWaitUnit, "NOT_FOUND", "none"},
      {S::kQueued, C::kWaitUnit, "OK", "READY"},
      {S::kReady, C::kWaitUnit, "OK", "READY"},
      {S::kSuperseded, C::kWaitUnit, "DEADLINE_EXCEEDED", "READY"},
      {S::kFailed, C::kWaitUnit, "IO_ERROR", "FAILED"},
      {S::kDeleted, C::kWaitUnit, "NOT_FOUND", "DELETED"},
      {S::kAbsent, C::kProbeUnitForPlan, "absent", "none"},
      {S::kQueued, C::kProbeUnitForPlan, "in flight", "QUEUED"},
      {S::kReady, C::kProbeUnitForPlan, "resident", "READY"},
      {S::kSuperseded, C::kProbeUnitForPlan, "in flight", "READY"},
      {S::kFailed, C::kProbeUnitForPlan, "absent", "FAILED"},
      {S::kDeleted, C::kProbeUnitForPlan, "absent", "DELETED"},
      {S::kAbsent, C::kGetUnitState, "NOT_FOUND", "none"},
      {S::kQueued, C::kGetUnitState, "QUEUED", "QUEUED"},
      {S::kReady, C::kGetUnitState, "READY", "READY"},
      {S::kSuperseded, C::kGetUnitState, "READY", "READY"},
      {S::kFailed, C::kGetUnitState, "FAILED", "FAILED"},
      {S::kDeleted, C::kGetUnitState, "DELETED", "DELETED"},
      {S::kAbsent, C::kGetUnitError, "NOT_FOUND", "none"},
      {S::kQueued, C::kGetUnitError, "OK", "QUEUED"},
      {S::kReady, C::kGetUnitError, "OK", "READY"},
      {S::kSuperseded, C::kGetUnitError, "OK", "READY"},
      {S::kFailed, C::kGetUnitError, "IO_ERROR", "FAILED"},
      {S::kDeleted, C::kGetUnitError, "OK", "DELETED"},
      // A superseded unit keeps its old records until the last pin drains.
      {S::kAbsent, C::kUnitMemoryBytes, "NOT_FOUND", "none"},
      {S::kQueued, C::kUnitMemoryBytes, "0", "QUEUED"},
      {S::kReady, C::kUnitMemoryBytes, "bytes", "READY"},
      {S::kSuperseded, C::kUnitMemoryBytes, "bytes", "READY"},
      {S::kFailed, C::kUnitMemoryBytes, "0", "FAILED"},
      {S::kDeleted, C::kUnitMemoryBytes, "0", "DELETED"},
      {S::kAbsent, C::kGetUnitEpoch, "NOT_FOUND", "none"},
      {S::kQueued, C::kGetUnitEpoch, "epoch 1", "QUEUED"},
      {S::kReady, C::kGetUnitEpoch, "epoch 1", "READY"},
      {S::kSuperseded, C::kGetUnitEpoch, "epoch 2", "READY"},
      {S::kFailed, C::kGetUnitEpoch, "epoch 1", "FAILED"},
      {S::kDeleted, C::kGetUnitEpoch, "epoch 1", "DELETED"},
  };
  for (const Cell& cell : cells) {
    SCOPED_TRACE(testing::Message()
                 << "setup " << static_cast<int>(cell.setup) << ", call "
                 << static_cast<int>(cell.call));
    std::unique_ptr<Gbo> db = MakeUnitInState(cell.setup);
    EXPECT_EQ(RunUnitCall(db.get(), cell.call), cell.result);
    Result<UnitState> after = db->GetUnitState("u");
    EXPECT_EQ(after.ok() ? std::string(UnitStateName(*after)) : "none",
              cell.state_after);
    EXPECT_TRUE(db->CheckInvariants().ok()) << db->CheckInvariants();
  }
}

}  // namespace
}  // namespace godiva
