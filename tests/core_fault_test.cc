// Fault-injection tests: FaultInjectionEnv driving the Gbo retry/backoff/
// deadline machinery through real gsdf files — transient faults are retried
// to success, permanent ones preserve their error, rollback leaves no
// orphans, deadlines bound every wait, and DeleteUnit/shutdown interrupt a
// backoff sleep promptly.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/types.h"
#include "core/gbo.h"
#include "core/key_util.h"
#include "core/options.h"
#include "core/record.h"
#include "gsdf/reader.h"
#include "gsdf/writer.h"
#include "sim/fault_env.h"
#include "sim/sim_env.h"

namespace godiva {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

constexpr char kPath[] = "data/payload.gsdf";
constexpr char kDataset[] = "values";
constexpr int kElements = 256;
// Reader::Open performs exactly three reads (header, footer, directory)
// before any payload read; fault rules use this to target the payload.
constexpr int kOpenReads = 3;

// ---------------------------------------------------------------------
// FaultInjectionEnv in isolation.

TEST(GlobMatchTest, Basics) {
  EXPECT_TRUE(GlobMatch("*", ""));
  EXPECT_TRUE(GlobMatch("*", "anything/at/all"));
  EXPECT_TRUE(GlobMatch("data/*.gsdf", "data/snap_0001_f00.gsdf"));
  EXPECT_FALSE(GlobMatch("data/*.gsdf", "other/snap_0001_f00.gsdf"));
  EXPECT_TRUE(GlobMatch("*/snap_0003_*", "data/snap_0003_f01.gsdf"));
  EXPECT_FALSE(GlobMatch("*/snap_0003_*", "data/snap_0004_f01.gsdf"));
  EXPECT_TRUE(GlobMatch("snap_000?", "snap_0007"));
  EXPECT_FALSE(GlobMatch("snap_000?", "snap_00077"));
  EXPECT_TRUE(GlobMatch("a*b*c", "a-x-b-y-c"));
  EXPECT_FALSE(GlobMatch("a*b*c", "a-x-c"));
}

TEST(FaultEnvTest, WindowSkipsThenInjectsThenExpires) {
  SimEnv base{SimEnv::Options{}};
  auto writer = gsdf::Writer::Create(&base, kPath);
  ASSERT_TRUE(writer.ok());
  double value = 1.0;
  ASSERT_TRUE(
      (*writer)->AddDataset(kDataset, DataType::kFloat64, &value, 8).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  FaultInjectionEnv fault(&base);
  FaultRule rule;
  rule.op = FaultOp::kOpen;
  rule.skip_first = 1;
  rule.max_faults = 2;
  fault.AddRule(rule);

  // Open #1 passes (skipped), #2 and #3 fail, #4 onwards pass again.
  EXPECT_TRUE(fault.NewRandomAccessFile(kPath).ok());
  auto second = fault.NewRandomAccessFile(kPath);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(fault.NewRandomAccessFile(kPath).ok());
  EXPECT_TRUE(fault.NewRandomAccessFile(kPath).ok());

  FaultStats stats = fault.stats();
  EXPECT_EQ(stats.errors_injected, 2);
  EXPECT_EQ(stats.faults_injected, 2);
  EXPECT_GE(stats.ops_seen, 4);
}

TEST(FaultEnvTest, CorruptionIsCaughtByGsdfChecksum) {
  SimEnv base{SimEnv::Options{}};
  auto writer = gsdf::Writer::Create(&base, kPath);
  ASSERT_TRUE(writer.ok());
  std::vector<double> values(kElements);
  std::iota(values.begin(), values.end(), 0.0);
  ASSERT_TRUE((*writer)
                  ->AddDataset(kDataset, DataType::kFloat64, values.data(),
                               kElements * 8)
                  .ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  FaultInjectionEnv fault(&base);
  FaultRule rule;
  rule.op = FaultOp::kRead;
  rule.kind = FaultKind::kCorrupt;
  rule.skip_first = kOpenReads;  // leave the directory intact
  fault.AddRule(rule);

  auto reader = gsdf::Reader::Open(&fault, kPath);
  ASSERT_TRUE(reader.ok()) << reader.status();
  std::vector<double> out(kElements);
  Status status = (*reader)->ReadVerified(kDataset, out.data(), kElements * 8);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  EXPECT_GE(fault.stats().reads_corrupted, 1);

  // The same read without verification silently returns corrupt data —
  // which is exactly why the snapshot path wires checksums in.
  ASSERT_TRUE((*reader)->Read(kDataset, out.data(), kElements * 8).ok());
  EXPECT_NE(out, values);
}

// ---------------------------------------------------------------------
// Gbo retry pipeline over real gsdf files.

class FaultPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::make_unique<SimEnv>(SimEnv::Options{});
    auto writer = gsdf::Writer::Create(base_.get(), kPath);
    ASSERT_TRUE(writer.ok());
    values_.resize(kElements);
    std::iota(values_.begin(), values_.end(), 0.0);
    ASSERT_TRUE((*writer)
                    ->AddDataset(kDataset, DataType::kFloat64,
                                 values_.data(), kElements * 8)
                    .ok());
    ASSERT_TRUE((*writer)->Finish().ok());
    fault_ = std::make_unique<FaultInjectionEnv>(base_.get());
  }

  static void DefineSchema(Gbo* db) {
    ASSERT_TRUE(db->DefineField("unit", DataType::kString, 16).ok());
    ASSERT_TRUE(
        db->DefineField("values", DataType::kFloat64, kUnknownSize).ok());
    ASSERT_TRUE(db->DefineRecord("blob", 1).ok());
    ASSERT_TRUE(db->InsertField("blob", "unit", true).ok());
    ASSERT_TRUE(db->InsertField("blob", "values", false).ok());
    ASSERT_TRUE(db->CommitRecordType("blob").ok());
  }

  // A read function doing real file I/O through the fault env: commits a
  // record first (so rollback is observable), then loads the payload.
  Gbo::ReadFn MakeGsdfReadFn(bool verify = false) {
    Env* env = fault_.get();
    return [env, verify](Gbo* db, const std::string& unit_name) -> Status {
      GODIVA_ASSIGN_OR_RETURN(Record * record, db->NewRecord("blob"));
      std::memcpy(*record->FieldBuffer("unit"), PadKey(unit_name, 16).data(),
                  16);
      GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<gsdf::Reader> reader,
                              gsdf::Reader::Open(env, kPath));
      GODIVA_ASSIGN_OR_RETURN(const gsdf::DatasetInfo* info,
                              reader->Find(kDataset));
      GODIVA_ASSIGN_OR_RETURN(
          void* buffer,
          db->AllocFieldBuffer(record, "values", info->nbytes));
      GODIVA_RETURN_IF_ERROR(
          verify ? reader->ReadVerified(kDataset, buffer, info->nbytes)
                 : reader->Read(kDataset, buffer, info->nbytes));
      return db->CommitRecord(record);
    };
  }

  void ExpectUnitLoaded(Gbo* db, const std::string& unit) {
    auto span = db->GetFieldSpan<double>("blob", "values", {PadKey(unit, 16)});
    ASSERT_TRUE(span.ok()) << span.status();
    ASSERT_EQ(span->size(), static_cast<size_t>(kElements));
    EXPECT_EQ((*span)[kElements - 1], values_[kElements - 1]);
  }

  std::unique_ptr<SimEnv> base_;
  std::unique_ptr<FaultInjectionEnv> fault_;
  std::vector<double> values_;
};

TEST_F(FaultPipelineTest, TransientFaultsAreRetriedToSuccess) {
  FaultRule rule;
  rule.op = FaultOp::kOpen;
  rule.max_faults = 2;  // first two attempts fail at open, third succeeds
  fault_->AddRule(rule);

  GboOptions options = GboOptions::SingleThread();
  options.retry.initial_backoff = milliseconds(1);
  Gbo db(options);
  DefineSchema(&db);
  Status status = db.ReadUnit("u", MakeGsdfReadFn());
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(db.stats().read_retries, 2);
  EXPECT_EQ(db.stats().units_failed_permanent, 0);
  EXPECT_EQ(db.GetUnitState("u").value_or(UnitState::kFailed),
            UnitState::kReady);
  EXPECT_TRUE(db.GetUnitError("u").ok());
  ExpectUnitLoaded(&db, "u");
  EXPECT_EQ(fault_->stats().errors_injected, 2);
}

TEST_F(FaultPipelineTest, BackgroundPrefetchRetriesToo) {
  FaultRule rule;
  rule.op = FaultOp::kOpen;
  rule.max_faults = 1;
  fault_->AddRule(rule);

  GboOptions options;  // multi-thread
  options.retry.initial_backoff = milliseconds(1);
  Gbo db(options);
  DefineSchema(&db);
  ASSERT_TRUE(db.AddUnit("u", MakeGsdfReadFn()).ok());
  Status status = db.WaitUnit("u");
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(db.stats().read_retries, 1);
  ExpectUnitLoaded(&db, "u");
}

TEST_F(FaultPipelineTest, PermanentFailurePreservesErrorAndRollsBack) {
  FaultRule rule;
  rule.op = FaultOp::kOpen;  // unlimited: every attempt fails
  fault_->AddRule(rule);

  GboOptions options = GboOptions::SingleThread();
  options.retry.max_attempts = 3;
  options.retry.initial_backoff = milliseconds(1);
  Gbo db(options);
  DefineSchema(&db);
  Status status = db.ReadUnit("u", MakeGsdfReadFn());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);

  // The terminal error is preserved and queryable.
  EXPECT_EQ(db.GetUnitState("u").value_or(UnitState::kReady),
            UnitState::kFailed);
  Status preserved = db.GetUnitError("u");
  EXPECT_EQ(preserved.code(), StatusCode::kUnavailable);
  EXPECT_EQ(preserved, status);

  // All three attempts ran; the first two sleeps were counted as retries.
  EXPECT_EQ(db.stats().read_retries, 2);
  EXPECT_EQ(db.stats().units_failed_permanent, 1);
  EXPECT_EQ(fault_->stats().errors_injected, 3);

  // Rollback: the record committed before the failing open is gone.
  EXPECT_EQ(db.memory_usage(), 0);
  auto records = db.ListRecords("blob");
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());

  // A failed unit is re-readable once the fault clears.
  fault_->ClearRules();
  ASSERT_TRUE(db.ReadUnit("u", MakeGsdfReadFn()).ok());
  ExpectUnitLoaded(&db, "u");
}

TEST_F(FaultPipelineTest, NonRetryableErrorFailsWithoutRetry) {
  FaultRule rule;
  rule.op = FaultOp::kOpen;
  rule.error_code = StatusCode::kIoError;  // not retryable
  fault_->AddRule(rule);

  Gbo db(GboOptions::SingleThread());
  DefineSchema(&db);
  Status status = db.ReadUnit("u", MakeGsdfReadFn());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(db.stats().read_retries, 0);
  EXPECT_EQ(db.stats().units_failed_permanent, 1);
  EXPECT_EQ(fault_->stats().errors_injected, 1);
}

TEST_F(FaultPipelineTest, ChecksumCatchesCorruptionAndRetrySucceeds) {
  FaultRule rule;
  rule.op = FaultOp::kRead;
  rule.kind = FaultKind::kCorrupt;
  rule.skip_first = kOpenReads;  // corrupt the first payload read only
  rule.max_faults = 1;
  fault_->AddRule(rule);

  GboOptions options = GboOptions::SingleThread();
  options.retry.initial_backoff = milliseconds(1);
  Gbo db(options);
  DefineSchema(&db);
  Status status = db.ReadUnit("u", MakeGsdfReadFn(/*verify=*/true));
  ASSERT_TRUE(status.ok()) << status;
  // Attempt 1 read corrupt bytes, the checksum flagged DATA_LOSS, and the
  // retry loaded clean data.
  EXPECT_EQ(db.stats().read_retries, 1);
  EXPECT_GE(fault_->stats().reads_corrupted, 1);
  ExpectUnitLoaded(&db, "u");
}

TEST_F(FaultPipelineTest, WaitUnitForExpiresOnNeverCompletingUnit) {
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  Gbo db;  // multi-thread
  DefineSchema(&db);
  ASSERT_TRUE(db.AddUnit("stuck", [released](Gbo*, const std::string&) {
                  released.wait();
                  return Status::Ok();
                }).ok());

  Stopwatch stopwatch;
  Status status = db.WaitUnitFor("stuck", milliseconds(50));
  double elapsed = stopwatch.ElapsedSeconds();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status;
  EXPECT_GE(elapsed, 0.05);
  EXPECT_LT(elapsed, 5.0);  // generous slack for loaded CI machines

  release.set_value();  // the abandoned load still completes
  EXPECT_TRUE(db.WaitUnit("stuck").ok());
}

TEST_F(FaultPipelineTest, InlineDeadlineShortCircuitsLongBackoff) {
  FaultRule rule;
  rule.op = FaultOp::kOpen;
  fault_->AddRule(rule);

  GboOptions options = GboOptions::SingleThread();
  options.retry.max_attempts = 5;
  options.retry.initial_backoff = seconds(30);
  options.retry.max_backoff = seconds(30);
  Gbo db(options);
  DefineSchema(&db);

  // The first attempt fails instantly; the 30 s backoff would blow the
  // 100 ms deadline, so the loader gives up without sleeping it out.
  Stopwatch stopwatch;
  Status status = db.ReadUnitFor("u", MakeGsdfReadFn(), milliseconds(100));
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status;
  EXPECT_LT(stopwatch.ElapsedSeconds(), 5.0);
  EXPECT_EQ(db.stats().read_retries, 0);
  EXPECT_EQ(db.stats().units_failed_permanent, 1);
}

// Polls until the unit has entered its first retry backoff.
void AwaitFirstBackoff(Gbo* db) {
  Stopwatch guard;
  while (db->stats().read_retries < 1) {
    ASSERT_LT(guard.ElapsedSeconds(), 10.0) << "unit never started retrying";
    std::this_thread::sleep_for(milliseconds(1));
  }
}

TEST_F(FaultPipelineTest, DeleteUnitCancelsARetryBackoff) {
  FaultRule rule;
  rule.op = FaultOp::kOpen;
  fault_->AddRule(rule);

  GboOptions options;  // multi-thread
  options.retry.max_attempts = 5;
  options.retry.initial_backoff = seconds(30);
  options.retry.max_backoff = seconds(30);
  Gbo db(options);
  DefineSchema(&db);
  ASSERT_TRUE(db.AddUnit("u", MakeGsdfReadFn()).ok());
  AwaitFirstBackoff(&db);

  // The loader is asleep for ~30 s; DeleteUnit must cancel it promptly.
  // (FAILED_PRECONDITION can surface if the delete races the instant in
  // between attempts — retry until the cancel lands.)
  Stopwatch stopwatch;
  Status status;
  do {
    status = db.DeleteUnit("u");
  } while (status.code() == StatusCode::kFailedPrecondition);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_LT(stopwatch.ElapsedSeconds(), 5.0);
  EXPECT_EQ(db.GetUnitState("u").value_or(UnitState::kReady),
            UnitState::kDeleted);
  EXPECT_EQ(db.memory_usage(), 0);
}

TEST_F(FaultPipelineTest, ShutdownInterruptsARetryBackoff) {
  FaultRule rule;
  rule.op = FaultOp::kOpen;
  fault_->AddRule(rule);

  Stopwatch stopwatch;
  {
    GboOptions options;  // multi-thread
    options.retry.max_attempts = 5;
    options.retry.initial_backoff = seconds(30);
    options.retry.max_backoff = seconds(30);
    Gbo db(options);
    DefineSchema(&db);
    ASSERT_TRUE(db.AddUnit("u", MakeGsdfReadFn()).ok());
    AwaitFirstBackoff(&db);
    stopwatch = Stopwatch();
  }  // ~Gbo: must not sleep out the remaining ~30 s
  EXPECT_LT(stopwatch.ElapsedSeconds(), 5.0);
}

}  // namespace
}  // namespace godiva
