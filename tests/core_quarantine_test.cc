// Tests for the per-file health circuit breaker (GboOptions::
// quarantine_threshold): after N permanent unit failures against the same
// declared resource file, further units touching it fail fast with
// DATA_LOSS — their read functions never run — while units on healthy
// files keep streaming. ResetFileHealth re-arms the file.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
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

void DefineUnitSchema(Gbo* db) {
  ASSERT_TRUE(db->DefineField("unit", DataType::kString, 16).ok());
  ASSERT_TRUE(
      db->DefineField("payload", DataType::kFloat64, kUnknownSize).ok());
  ASSERT_TRUE(db->DefineRecord("chunk", 1).ok());
  ASSERT_TRUE(db->InsertField("chunk", "unit", true).ok());
  ASSERT_TRUE(db->InsertField("chunk", "payload", false).ok());
  ASSERT_TRUE(db->CommitRecordType("chunk").ok());
}

// A read fn that always fails with DATA_LOSS, counting invocations.
Gbo::ReadFn FailingReadFn(std::atomic<int>* reads) {
  return [reads](Gbo*, const std::string&) -> Status {
    reads->fetch_add(1);
    return DataLossError("simulated corrupt read");
  };
}

// A read fn that commits one small record, counting invocations.
Gbo::ReadFn GoodReadFn(std::atomic<int>* reads) {
  return [reads](Gbo* db, const std::string& unit_name) -> Status {
    reads->fetch_add(1);
    GODIVA_ASSIGN_OR_RETURN(Record * rec, db->NewRecord("chunk"));
    std::memcpy(*rec->FieldBuffer("unit"), PadKey(unit_name, 16).data(), 16);
    GODIVA_ASSIGN_OR_RETURN(void* payload,
                            db->AllocFieldBuffer(rec, "payload", 64));
    static_cast<double*>(payload)[0] = 1.0;
    return db->CommitRecord(rec);
  };
}

GboOptions SingleThreadNoRetry(int quarantine_threshold) {
  GboOptions options = GboOptions::SingleThread();
  options.retry = RetryPolicy::None();
  options.quarantine_threshold = quarantine_threshold;
  return options;
}

TEST(QuarantineTest, FileQuarantinedAfterThresholdFailures) {
  Gbo db(SingleThreadNoRetry(2));
  DefineUnitSchema(&db);
  std::atomic<int> reads{0};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.AddUnit("u" + std::to_string(i), FailingReadFn(&reads),
                           {"bad.gsdf"})
                    .ok());
  }
  for (int i = 0; i < 5; ++i) {
    Status wait = db.WaitUnit("u" + std::to_string(i));
    EXPECT_EQ(wait.code(), StatusCode::kDataLoss) << wait;
  }
  // Only the first two failures ran the read function; the breaker
  // swallowed the rest.
  EXPECT_EQ(reads.load(), 2);
  EXPECT_TRUE(db.IsFileQuarantined("bad.gsdf"));
  EXPECT_EQ(db.QuarantinedFiles(),
            std::vector<std::string>{"bad.gsdf"});
  GboStats stats = db.stats();
  EXPECT_EQ(stats.files_quarantined, 1);
  EXPECT_EQ(stats.reads_short_circuited, 3);
  EXPECT_EQ(stats.units_failed_permanent, 2);
}

TEST(QuarantineTest, ShortCircuitErrorNamesTheFile) {
  Gbo db(SingleThreadNoRetry(1));
  DefineUnitSchema(&db);
  std::atomic<int> reads{0};
  ASSERT_TRUE(db.AddUnit("first", FailingReadFn(&reads), {"bad.gsdf"}).ok());
  ASSERT_TRUE(db.AddUnit("second", FailingReadFn(&reads), {"bad.gsdf"}).ok());
  EXPECT_FALSE(db.WaitUnit("first").ok());
  Status second = db.WaitUnit("second");
  EXPECT_EQ(second.code(), StatusCode::kDataLoss);
  EXPECT_NE(second.ToString().find("bad.gsdf"), std::string::npos)
      << second;
  EXPECT_NE(second.ToString().find("quarantined"), std::string::npos)
      << second;
  EXPECT_EQ(reads.load(), 1);
}

TEST(QuarantineTest, HealthyFilesStreamWhileDeadFileIsQuarantined) {
  // Background-I/O mode: a dead file burns at most threshold read
  // attempts while units over the healthy file all complete.
  GboOptions options;  // background_io = true
  options.retry = RetryPolicy::None();
  options.quarantine_threshold = 2;
  Gbo db(options);
  DefineUnitSchema(&db);
  std::atomic<int> dead_reads{0};
  std::atomic<int> good_reads{0};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db.AddUnit("dead" + std::to_string(i),
                           FailingReadFn(&dead_reads), {"dead.gsdf"})
                    .ok());
    ASSERT_TRUE(db.AddUnit("good" + std::to_string(i),
                           GoodReadFn(&good_reads), {"good.gsdf"})
                    .ok());
  }
  int dead_failures = 0;
  for (int i = 0; i < 8; ++i) {
    if (!db.WaitUnit("dead" + std::to_string(i)).ok()) ++dead_failures;
    EXPECT_TRUE(db.WaitUnit("good" + std::to_string(i)).ok());
  }
  EXPECT_EQ(dead_failures, 8);
  // At most `threshold` actual read attempts hit the dead file.
  EXPECT_LE(dead_reads.load(), 2);
  EXPECT_EQ(good_reads.load(), 8);
  EXPECT_TRUE(db.IsFileQuarantined("dead.gsdf"));
  EXPECT_FALSE(db.IsFileQuarantined("good.gsdf"));
}

TEST(QuarantineTest, ResetFileHealthReenablesReads) {
  Gbo db(SingleThreadNoRetry(1));
  DefineUnitSchema(&db);
  std::atomic<int> reads{0};
  ASSERT_TRUE(db.AddUnit("u0", FailingReadFn(&reads), {"flaky.gsdf"}).ok());
  EXPECT_FALSE(db.WaitUnit("u0").ok());
  ASSERT_TRUE(db.IsFileQuarantined("flaky.gsdf"));

  // The operator repaired the file (say via gsdf_fsck) and re-arms it.
  ASSERT_TRUE(db.ResetFileHealth("flaky.gsdf").ok());
  EXPECT_FALSE(db.IsFileQuarantined("flaky.gsdf"));
  std::atomic<int> good_reads{0};
  ASSERT_TRUE(
      db.AddUnit("u1", GoodReadFn(&good_reads), {"flaky.gsdf"}).ok());
  EXPECT_TRUE(db.WaitUnit("u1").ok());
  EXPECT_EQ(good_reads.load(), 1);

  // Unknown files are reported, not silently accepted.
  EXPECT_EQ(db.ResetFileHealth("never-seen.gsdf").code(),
            StatusCode::kNotFound);
}

TEST(QuarantineTest, ResetFileHealthFullCycleStats) {
  // The operator's full repair cycle — quarantine, rewrite, reset,
  // re-admit — with the stats counters checked at every step.
  Gbo db(SingleThreadNoRetry(1));
  DefineUnitSchema(&db);

  // Corruption trips the breaker on the first permanent failure, and a
  // second unit over the same file short-circuits without reading.
  std::atomic<int> bad_reads{0};
  ASSERT_TRUE(db.AddUnit("v0", FailingReadFn(&bad_reads), {"cyc.gsdf"}).ok());
  EXPECT_EQ(db.WaitUnit("v0").code(), StatusCode::kDataLoss);
  ASSERT_TRUE(db.IsFileQuarantined("cyc.gsdf"));
  ASSERT_TRUE(db.AddUnit("v1", FailingReadFn(&bad_reads), {"cyc.gsdf"}).ok());
  EXPECT_EQ(db.WaitUnit("v1").code(), StatusCode::kDataLoss);
  EXPECT_EQ(bad_reads.load(), 1);  // v1 never ran
  GboStats tripped = db.stats();
  EXPECT_EQ(tripped.files_quarantined, 1);
  EXPECT_EQ(tripped.reads_short_circuited, 1);
  EXPECT_EQ(tripped.units_failed_permanent, 1);

  // The file is rewritten out of band; ResetFileHealth re-arms it and a
  // fresh unit streams normally — the read function really runs.
  ASSERT_TRUE(db.ResetFileHealth("cyc.gsdf").ok());
  EXPECT_FALSE(db.IsFileQuarantined("cyc.gsdf"));
  EXPECT_TRUE(db.QuarantinedFiles().empty());
  std::atomic<int> good_reads{0};
  ASSERT_TRUE(db.AddUnit("v2", GoodReadFn(&good_reads), {"cyc.gsdf"}).ok());
  EXPECT_TRUE(db.WaitUnit("v2").ok());
  EXPECT_EQ(good_reads.load(), 1);
  auto record = db.FindRecord("chunk", {PadKey("v2", 16)});
  EXPECT_TRUE(record.ok()) << record.status();

  // A healthy pass charges nothing new to the counters.
  GboStats healthy = db.stats();
  EXPECT_EQ(healthy.files_quarantined, 1);
  EXPECT_EQ(healthy.reads_short_circuited, 1);

  // A relapse after the reset counts as a second quarantine event.
  std::atomic<int> relapse_reads{0};
  ASSERT_TRUE(
      db.AddUnit("v3", FailingReadFn(&relapse_reads), {"cyc.gsdf"}).ok());
  EXPECT_FALSE(db.WaitUnit("v3").ok());
  EXPECT_EQ(relapse_reads.load(), 1);  // the breaker really was re-armed
  EXPECT_TRUE(db.IsFileQuarantined("cyc.gsdf"));
  EXPECT_EQ(db.stats().files_quarantined, 2);
}

TEST(QuarantineTest, ZeroThresholdDisablesTheBreaker) {
  Gbo db(SingleThreadNoRetry(0));
  DefineUnitSchema(&db);
  std::atomic<int> reads{0};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db.AddUnit("u" + std::to_string(i), FailingReadFn(&reads),
                           {"bad.gsdf"})
                    .ok());
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(db.WaitUnit("u" + std::to_string(i)).ok());
  }
  EXPECT_EQ(reads.load(), 4);  // every unit really tried
  EXPECT_FALSE(db.IsFileQuarantined("bad.gsdf"));
  EXPECT_EQ(db.stats().files_quarantined, 0);
  EXPECT_EQ(db.stats().reads_short_circuited, 0);
}

TEST(QuarantineTest, UnitsWithoutResourcesNeverParticipate) {
  Gbo db(SingleThreadNoRetry(1));
  DefineUnitSchema(&db);
  std::atomic<int> reads{0};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        db.AddUnit("u" + std::to_string(i), FailingReadFn(&reads)).ok());
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(db.WaitUnit("u" + std::to_string(i)).ok());
  }
  EXPECT_EQ(reads.load(), 3);
  EXPECT_TRUE(db.QuarantinedFiles().empty());
  EXPECT_EQ(db.stats().files_quarantined, 0);
}

TEST(QuarantineTest, RetriesCountOncePerPermanentFailure) {
  // With a retry policy, one unit burns max_attempts read invocations but
  // only ONE permanent failure is charged to the file's health.
  GboOptions options = GboOptions::SingleThread();
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = std::chrono::milliseconds(0);
  options.quarantine_threshold = 2;
  Gbo db(options);
  DefineUnitSchema(&db);
  std::atomic<int> reads{0};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db.AddUnit("u" + std::to_string(i), FailingReadFn(&reads),
                           {"bad.gsdf"})
                    .ok());
  }
  EXPECT_FALSE(db.WaitUnit("u0").ok());
  EXPECT_FALSE(db.WaitUnit("u1").ok());
  EXPECT_FALSE(db.WaitUnit("u2").ok());
  // Units 0 and 1: 3 attempts each; unit 2 short-circuited.
  EXPECT_EQ(reads.load(), 6);
  EXPECT_TRUE(db.IsFileQuarantined("bad.gsdf"));
  EXPECT_EQ(db.stats().reads_short_circuited, 1);
}

}  // namespace
}  // namespace godiva
