// Tests for the live-ingest surface of Gbo (DESIGN.md §11): the watch
// registry (kReady/kFailed/kInvalidated events), SupersedeUnit's staleness
// protocol (in-place swap of queued units, immediate reload of unpinned
// cached units, deferred conversion of pinned/loading units).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/types.h"
#include "core/gbo.h"
#include "core/key_util.h"
#include "core/options.h"
#include "core/record.h"

namespace godiva {
namespace {

using std::chrono::milliseconds;

void DefineUnitSchema(Gbo* db) {
  ASSERT_TRUE(db->DefineField("unit", DataType::kString, 16).ok());
  ASSERT_TRUE(
      db->DefineField("payload", DataType::kFloat64, kUnknownSize).ok());
  ASSERT_TRUE(db->DefineRecord("chunk", 1).ok());
  ASSERT_TRUE(db->InsertField("chunk", "unit", true).ok());
  ASSERT_TRUE(db->InsertField("chunk", "payload", false).ok());
  ASSERT_TRUE(db->CommitRecordType("chunk").ok());
}

// Commits one record whose payload[0] is `value`, counting invocations.
Gbo::ReadFn ValueReadFn(double value, std::atomic<int>* reads = nullptr) {
  return [value, reads](Gbo* db, const std::string& unit_name) -> Status {
    if (reads != nullptr) reads->fetch_add(1);
    GODIVA_ASSIGN_OR_RETURN(Record * rec, db->NewRecord("chunk"));
    std::memcpy(*rec->FieldBuffer("unit"), PadKey(unit_name, 16).data(), 16);
    GODIVA_ASSIGN_OR_RETURN(void* payload,
                            db->AllocFieldBuffer(rec, "payload", 64));
    static_cast<double*>(payload)[0] = value;
    return db->CommitRecord(rec);
  };
}

// Like ValueReadFn, but blocks until `gate` opens before doing anything.
Gbo::ReadFn GatedValueReadFn(std::atomic<bool>* gate, double value) {
  Gbo::ReadFn inner = ValueReadFn(value);
  return [gate, inner](Gbo* db, const std::string& unit_name) -> Status {
    while (!gate->load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    return inner(db, unit_name);
  };
}

Result<double> PayloadValue(Gbo* db, const std::string& unit_name) {
  GODIVA_ASSIGN_OR_RETURN(Record * rec,
                          db->FindRecord("chunk", {PadKey(unit_name, 16)}));
  GODIVA_ASSIGN_OR_RETURN(void* payload, rec->FieldBuffer("payload"));
  return static_cast<double*>(payload)[0];
}

// Thread-safe log of watch events.
class EventLog {
 public:
  void Add(const Gbo::WatchEvent& event) {
    MutexLock lock(&mu_);
    events_.push_back(event);
  }
  std::vector<Gbo::WatchEvent> Snapshot() const {
    MutexLock lock(&mu_);
    return events_;
  }
  int CountKind(Gbo::WatchEventKind kind) const {
    MutexLock lock(&mu_);
    int n = 0;
    for (const Gbo::WatchEvent& e : events_) {
      if (e.kind == kind) ++n;
    }
    return n;
  }
  // Polls until at least `count` events of `kind` arrived (2 s cap).
  bool AwaitKind(Gbo::WatchEventKind kind, int count) const {
    for (int i = 0; i < 2000; ++i) {
      if (CountKind(kind) >= count) return true;
      std::this_thread::sleep_for(milliseconds(1));
    }
    return false;
  }

 private:
  mutable Mutex mu_;
  std::vector<Gbo::WatchEvent> events_;
};

GboOptions BackgroundNoRetry(int io_threads = 1) {
  GboOptions options;  // background_io = true
  options.io_threads = io_threads;
  options.retry = RetryPolicy::None();
  return options;
}

TEST(WatchTest, ReadyAndFailedEventsFireOnSettle) {
  Gbo db(BackgroundNoRetry());
  DefineUnitSchema(&db);
  EventLog log;
  db.RegisterWatch("u*", [&log](const Gbo::WatchEvent& e) { log.Add(e); });

  ASSERT_TRUE(db.AddUnit("u_good", ValueReadFn(1.0)).ok());
  ASSERT_TRUE(db.AddUnit("u_bad",
                         [](Gbo*, const std::string&) -> Status {
                           return DataLossError("synthetic");
                         })
                  .ok());
  ASSERT_TRUE(db.AddUnit("other", ValueReadFn(2.0)).ok());
  EXPECT_TRUE(db.WaitUnit("u_good").ok());
  EXPECT_FALSE(db.WaitUnit("u_bad").ok());
  EXPECT_TRUE(db.WaitUnit("other").ok());

  ASSERT_TRUE(log.AwaitKind(Gbo::WatchEventKind::kReady, 1));
  ASSERT_TRUE(log.AwaitKind(Gbo::WatchEventKind::kFailed, 1));
  // The glob filtered out "other".
  for (const Gbo::WatchEvent& e : log.Snapshot()) {
    EXPECT_NE(e.unit_name, "other");
    EXPECT_EQ(e.epoch, 1);
  }
  EXPECT_GE(db.stats().watch_notifications, 2);
}

TEST(WatchTest, UnregisterStopsDelivery) {
  Gbo db(BackgroundNoRetry());
  DefineUnitSchema(&db);
  EventLog log;
  int64_t id =
      db.RegisterWatch("*", [&log](const Gbo::WatchEvent& e) { log.Add(e); });
  ASSERT_TRUE(db.AddUnit("u0", ValueReadFn(1.0)).ok());
  ASSERT_TRUE(db.WaitUnit("u0").ok());
  ASSERT_TRUE(log.AwaitKind(Gbo::WatchEventKind::kReady, 1));

  ASSERT_TRUE(db.UnregisterWatch(id).ok());
  EXPECT_EQ(db.UnregisterWatch(id).code(), StatusCode::kNotFound);
  ASSERT_TRUE(db.AddUnit("u1", ValueReadFn(2.0)).ok());
  ASSERT_TRUE(db.WaitUnit("u1").ok());
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_EQ(log.CountKind(Gbo::WatchEventKind::kReady), 1);
}

TEST(WatchTest, SupersedeRequiresBackgroundIo) {
  Gbo db(GboOptions::SingleThread());
  DefineUnitSchema(&db);
  EXPECT_EQ(db.SupersedeUnit("u0", ValueReadFn(1.0)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(WatchTest, SupersedeAbsentUnitBehavesLikeAddUnit) {
  Gbo db(BackgroundNoRetry());
  DefineUnitSchema(&db);
  ASSERT_TRUE(db.SupersedeUnit("u0", ValueReadFn(7.0)).ok());
  ASSERT_TRUE(db.WaitUnit("u0").ok());
  EXPECT_EQ(*PayloadValue(&db, "u0"), 7.0);
  EXPECT_EQ(*db.GetUnitEpoch("u0"), 1);
  EXPECT_EQ(db.GetUnitEpoch("missing").status().code(),
            StatusCode::kNotFound);
  GboStats stats = db.stats();
  EXPECT_EQ(stats.units_superseded, 1);
  EXPECT_EQ(stats.units_invalidated, 0);
  ASSERT_TRUE(db.FinishUnit("u0").ok());
}

TEST(WatchTest, SupersedeUnpinnedReadyReloadsImmediately) {
  Gbo db(BackgroundNoRetry());
  DefineUnitSchema(&db);
  EventLog log;
  db.RegisterWatch("u*", [&log](const Gbo::WatchEvent& e) { log.Add(e); });
  std::atomic<int> v2_reads{0};

  ASSERT_TRUE(db.AddUnit("u0", ValueReadFn(1.0)).ok());
  ASSERT_TRUE(db.WaitUnit("u0").ok());
  ASSERT_TRUE(db.FinishUnit("u0").ok());  // cached, unpinned

  ASSERT_TRUE(db.SupersedeUnit("u0", ValueReadFn(2.0, &v2_reads)).ok());
  ASSERT_TRUE(db.WaitUnit("u0").ok());
  EXPECT_EQ(*PayloadValue(&db, "u0"), 2.0);
  EXPECT_EQ(*db.GetUnitEpoch("u0"), 2);
  EXPECT_EQ(v2_reads.load(), 1);

  ASSERT_TRUE(log.AwaitKind(Gbo::WatchEventKind::kInvalidated, 1));
  ASSERT_TRUE(log.AwaitKind(Gbo::WatchEventKind::kReady, 2));
  GboStats stats = db.stats();
  EXPECT_EQ(stats.units_superseded, 1);
  EXPECT_EQ(stats.units_invalidated, 1);
  EXPECT_TRUE(db.CheckInvariants().ok()) << db.CheckInvariants();
  ASSERT_TRUE(db.FinishUnit("u0").ok());
}

TEST(WatchTest, SupersedePinnedUnitDefersReloadUntilFinish) {
  Gbo db(BackgroundNoRetry());
  DefineUnitSchema(&db);
  ASSERT_TRUE(db.AddUnit("u0", ValueReadFn(1.0)).ok());
  ASSERT_TRUE(db.WaitUnit("u0").ok());  // pinned

  ASSERT_TRUE(db.SupersedeUnit("u0", ValueReadFn(2.0)).ok());
  // The pin still sees the old epoch's data, torn-free.
  EXPECT_EQ(*PayloadValue(&db, "u0"), 1.0);
  // A new reader refuses the stale version and waits for the reload...
  EXPECT_EQ(db.WaitUnitFor("u0", milliseconds(50)).code(),
            StatusCode::kDeadlineExceeded);
  // ...which starts once the last pin drains.
  ASSERT_TRUE(db.FinishUnit("u0").ok());
  ASSERT_TRUE(db.WaitUnit("u0").ok());
  EXPECT_EQ(*PayloadValue(&db, "u0"), 2.0);
  EXPECT_EQ(*db.GetUnitEpoch("u0"), 2);
  EXPECT_TRUE(db.CheckInvariants().ok()) << db.CheckInvariants();
  ASSERT_TRUE(db.FinishUnit("u0").ok());
}

TEST(WatchTest, SupersedeQueuedUnitSwapsReadFnInPlace) {
  Gbo db(BackgroundNoRetry(/*io_threads=*/1));
  DefineUnitSchema(&db);
  std::atomic<bool> gate{false};
  std::atomic<int> v1_reads{0};
  // u_block occupies the only I/O thread, so u0 stays queued.
  ASSERT_TRUE(db.AddUnit("u_block", GatedValueReadFn(&gate, 0.0)).ok());
  ASSERT_TRUE(db.AddUnit("u0", ValueReadFn(1.0, &v1_reads)).ok());
  ASSERT_TRUE(db.SupersedeUnit("u0", ValueReadFn(2.0)).ok());
  gate.store(true, std::memory_order_release);

  ASSERT_TRUE(db.WaitUnit("u0").ok());
  EXPECT_EQ(*PayloadValue(&db, "u0"), 2.0);
  EXPECT_EQ(v1_reads.load(), 0);  // the superseded publish never ran
  EXPECT_EQ(*db.GetUnitEpoch("u0"), 2);
  ASSERT_TRUE(db.FinishUnit("u0").ok());
  ASSERT_TRUE(db.WaitUnit("u_block").ok());
  ASSERT_TRUE(db.FinishUnit("u_block").ok());
}

TEST(WatchTest, SupersedeLoadingUnitDiscardsInFlightResult) {
  Gbo db(BackgroundNoRetry(/*io_threads=*/1));
  DefineUnitSchema(&db);
  EventLog log;
  db.RegisterWatch("u0", [&log](const Gbo::WatchEvent& e) { log.Add(e); });
  std::atomic<bool> gate{false};
  ASSERT_TRUE(db.AddUnit("u0", GatedValueReadFn(&gate, 1.0)).ok());
  // Wait until the load is actually in flight.
  for (int i = 0; i < 2000; ++i) {
    if (*db.GetUnitState("u0") == UnitState::kLoading) break;
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(*db.GetUnitState("u0"), UnitState::kLoading);

  ASSERT_TRUE(db.SupersedeUnit("u0", ValueReadFn(2.0)).ok());
  gate.store(true, std::memory_order_release);
  ASSERT_TRUE(db.WaitUnit("u0").ok());
  // The v1 result was discarded at settle; only v2 is observable.
  EXPECT_EQ(*PayloadValue(&db, "u0"), 2.0);
  ASSERT_TRUE(log.AwaitKind(Gbo::WatchEventKind::kReady, 1));
  for (const Gbo::WatchEvent& e : log.Snapshot()) {
    if (e.kind == Gbo::WatchEventKind::kReady) {
      EXPECT_EQ(e.epoch, 2);
    }
  }
  EXPECT_TRUE(db.CheckInvariants().ok()) << db.CheckInvariants();
  ASSERT_TRUE(db.FinishUnit("u0").ok());
}

TEST(WatchTest, DeleteUnitCancelsPendingPublish) {
  Gbo db(BackgroundNoRetry());
  DefineUnitSchema(&db);
  ASSERT_TRUE(db.AddUnit("u0", ValueReadFn(1.0)).ok());
  ASSERT_TRUE(db.WaitUnit("u0").ok());
  ASSERT_TRUE(db.SupersedeUnit("u0", ValueReadFn(2.0)).ok());
  // The delete wins: both the cached v1 and the pending v2 are gone.
  ASSERT_TRUE(db.DeleteUnit("u0").ok());
  EXPECT_EQ(*db.GetUnitState("u0"), UnitState::kDeleted);
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_EQ(*db.GetUnitState("u0"), UnitState::kDeleted);
  EXPECT_TRUE(db.CheckInvariants().ok()) << db.CheckInvariants();
}

TEST(WatchTest, RepeatedSupersedesUnderConcurrentReadersConverge) {
  // A small soak: one producer republishes three units while four readers
  // pin/read/finish them; epochs only grow and the audit stays clean.
  GboOptions options = BackgroundNoRetry(/*io_threads=*/2);
  Gbo db(options);
  DefineUnitSchema(&db);
  const std::vector<std::string> units = {"u0", "u1", "u2"};
  for (const std::string& unit : units) {
    ASSERT_TRUE(db.SupersedeUnit(unit, ValueReadFn(0.0)).ok());
  }
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    for (int round = 1; round <= 30; ++round) {
      for (const std::string& unit : units) {
        ASSERT_TRUE(db.SupersedeUnit(unit, ValueReadFn(round)).ok());
      }
      std::this_thread::sleep_for(milliseconds(1));
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&db, &units, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        for (const std::string& unit : units) {
          if (!db.WaitUnitFor(unit, milliseconds(200)).ok()) continue;
          Result<double> value = PayloadValue(&db, unit);
          EXPECT_TRUE(value.ok());  // a pin always sees committed data
          ASSERT_TRUE(db.FinishUnit(unit).ok());
        }
      }
    });
  }
  producer.join();
  for (std::thread& t : readers) t.join();
  for (const std::string& unit : units) {
    EXPECT_EQ(*db.GetUnitEpoch(unit), 31);
  }
  EXPECT_TRUE(db.CheckInvariants().ok()) << db.CheckInvariants();
  GboStats stats = db.stats();
  EXPECT_EQ(stats.units_superseded, 93);
}

}  // namespace
}  // namespace godiva
