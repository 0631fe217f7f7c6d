// Tests for GODIVA queries: the key-lookup path (paper §3.1) —
// getFieldBuffer / getFieldBufferSize semantics, key encoding, lookup
// statistics — and the declarative batch query layer (DESIGN.md §15) —
// QueryPlanner dedup against cache-resident and in-flight units,
// cancellation and deadline semantics, push-down, and the session
// batch-ticket lane. How a unit's datasets become device transfers is
// gsdf::Reader::ReadBatch's alone and is tested in gsdf_test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/types.h"
#include "core/gbo.h"
#include "core/key_util.h"
#include "core/options.h"
#include "core/query.h"
#include "core/record.h"
#include "core/server.h"
#include "core/session.h"
#include "workloads/serving.h"

namespace godiva {
namespace {

// Schema with an integer + string composite key.
class QueryTest : public ::testing::Test {
 protected:
  QueryTest() : db_(GboOptions::SingleThread()) {
    EXPECT_TRUE(db_.DefineField("block", DataType::kInt32, 4).ok());
    EXPECT_TRUE(db_.DefineField("step", DataType::kString, 9).ok());
    EXPECT_TRUE(db_.DefineField("values", DataType::kFloat64, kUnknownSize)
                    .ok());
    EXPECT_TRUE(db_.DefineRecord("data", 2).ok());
    EXPECT_TRUE(db_.InsertField("data", "block", true).ok());
    EXPECT_TRUE(db_.InsertField("data", "step", true).ok());
    EXPECT_TRUE(db_.InsertField("data", "values", false).ok());
    EXPECT_TRUE(db_.CommitRecordType("data").ok());
  }

  Record* Insert(int32_t block, const std::string& step, int n_values) {
    auto rec = db_.NewRecord("data");
    EXPECT_TRUE(rec.ok());
    std::memcpy(*(*rec)->FieldBuffer("block"), &block, 4);
    std::memcpy(*(*rec)->FieldBuffer("step"), PadKey(step, 9).data(), 9);
    auto buffer = db_.AllocFieldBuffer(*rec, "values", n_values * 8);
    EXPECT_TRUE(buffer.ok());
    double* values = static_cast<double*>(*buffer);
    for (int i = 0; i < n_values; ++i) values[i] = block * 1000.0 + i;
    EXPECT_TRUE(db_.CommitRecord(*rec).ok());
    return *rec;
  }

  std::vector<std::string> Key(int32_t block, const std::string& step) {
    return {KeyBytes(block), PadKey(step, 9)};
  }

  Gbo db_;
};

TEST_F(QueryTest, GetFieldBufferFindsTheRightRecord) {
  Insert(1, "0.000025", 10);
  Insert(2, "0.000025", 10);
  Insert(1, "0.000050", 10);
  auto buffer = db_.GetFieldBuffer("data", "values", Key(2, "0.000025"));
  ASSERT_TRUE(buffer.ok()) << buffer.status();
  EXPECT_EQ(static_cast<double*>(*buffer)[0], 2000.0);
}

TEST_F(QueryTest, GetFieldBufferSize) {
  Insert(3, "0.000075", 17);
  auto size = db_.GetFieldBufferSize("data", "values", Key(3, "0.000075"));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 17 * 8);
}

TEST_F(QueryTest, MissLookupIsNotFound) {
  Insert(1, "0.000025", 4);
  EXPECT_EQ(
      db_.GetFieldBuffer("data", "values", Key(9, "0.000025")).status().code(),
      StatusCode::kNotFound);
  GboStats stats = db_.stats();
  EXPECT_EQ(stats.key_lookups, 1);
  EXPECT_EQ(stats.failed_lookups, 1);
}

TEST_F(QueryTest, WrongKeyCountRejected) {
  Insert(1, "0.000025", 4);
  EXPECT_EQ(db_.GetFieldBuffer("data", "values", {KeyBytes(int32_t{1})})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(QueryTest, WrongKeySizeRejected) {
  Insert(1, "0.000025", 4);
  // Key value for the 9-byte step field is only 5 bytes.
  EXPECT_EQ(db_.GetFieldBuffer("data", "values",
                               {KeyBytes(int32_t{1}), "short"})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(QueryTest, UnknownTypeOrFieldRejected) {
  Insert(1, "0.000025", 4);
  EXPECT_EQ(
      db_.GetFieldBuffer("ghost", "values", Key(1, "0.000025"))
          .status()
          .code(),
      StatusCode::kNotFound);
  EXPECT_EQ(
      db_.GetFieldBuffer("data", "ghost", Key(1, "0.000025")).status().code(),
      StatusCode::kNotFound);
}

TEST_F(QueryTest, UnallocatedFieldBufferIsFailedPrecondition) {
  auto rec = db_.NewRecord("data");
  ASSERT_TRUE(rec.ok());
  int32_t block = 5;
  std::memcpy(*(*rec)->FieldBuffer("block"), &block, 4);
  std::memcpy(*(*rec)->FieldBuffer("step"), PadKey("s", 9).data(), 9);
  ASSERT_TRUE(db_.CommitRecord(*rec).ok());
  EXPECT_EQ(db_.GetFieldBuffer("data", "values", Key(5, "s")).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(QueryTest, UncommittedRecordsAreInvisible) {
  auto rec = db_.NewRecord("data");
  ASSERT_TRUE(rec.ok());
  int32_t block = 7;
  std::memcpy(*(*rec)->FieldBuffer("block"), &block, 4);
  std::memcpy(*(*rec)->FieldBuffer("step"), PadKey("s", 9).data(), 9);
  EXPECT_EQ(db_.FindRecord("data", Key(7, "s")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(QueryTest, ListRecordsReturnsKeyOrder) {
  Insert(2, "b", 1);
  Insert(1, "a", 1);
  Insert(1, "b", 1);
  auto listed = db_.ListRecords("data");
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 3u);
  // Keys sort by raw bytes: block little-endian int32 then padded step.
  // block=1 sorts before block=2.
  auto step_of = [](Record* r) {
    const char* p = static_cast<const char*>(*r->FieldBuffer("step"));
    return std::string(p, 1);
  };
  EXPECT_EQ(step_of((*listed)[0]), "a");
  EXPECT_EQ(step_of((*listed)[1]), "b");
}

TEST_F(QueryTest, FindRecordReturnsSameHandle) {
  Record* inserted = Insert(4, "x", 2);
  auto found = db_.FindRecord("data", Key(4, "x"));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, inserted);
}

TEST_F(QueryTest, LookupStatsAccumulate) {
  Insert(1, "a", 1);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(db_.FindRecord("data", Key(1, "a")).ok());
  }
  EXPECT_FALSE(db_.FindRecord("data", Key(2, "a")).ok());
  GboStats stats = db_.stats();
  EXPECT_EQ(stats.key_lookups, 6);
  EXPECT_EQ(stats.failed_lookups, 1);
}

TEST_F(QueryTest, GetFieldSpanTypedAccess) {
  Insert(6, "step-a", 8);
  auto span = db_.GetFieldSpan<double>("data", "values", Key(6, "step-a"));
  ASSERT_TRUE(span.ok()) << span.status();
  ASSERT_EQ(span->size(), 8u);
  EXPECT_EQ((*span)[0], 6000.0);
  EXPECT_EQ((*span)[7], 6007.0);
  // Writable through the span (GODIVA manages locations, not contents).
  (*span)[0] = -1.0;
  auto again = db_.GetFieldSpan<double>("data", "values", Key(6, "step-a"));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)[0], -1.0);
}

TEST_F(QueryTest, GetFieldSpanRejectsWrongElementType) {
  Insert(1, "s", 4);
  EXPECT_EQ(
      db_.GetFieldSpan<float>("data", "values", Key(1, "s")).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      db_.GetFieldSpan<double>("data", "ghost", Key(1, "s")).status().code(),
      StatusCode::kNotFound);
}

TEST_F(QueryTest, GetFieldSpanUnallocatedField) {
  auto rec = db_.NewRecord("data");
  ASSERT_TRUE(rec.ok());
  int32_t block = 9;
  std::memcpy(*(*rec)->FieldBuffer("block"), &block, 4);
  std::memcpy(*(*rec)->FieldBuffer("step"), PadKey("t", 9).data(), 9);
  ASSERT_TRUE(db_.CommitRecord(*rec).ok());
  EXPECT_EQ(
      db_.GetFieldSpan<double>("data", "values", Key(9, "t")).status().code(),
      StatusCode::kFailedPrecondition);
}

TEST_F(QueryTest, DebugStringListsTypesAndRecords) {
  Insert(1, "a", 2);
  std::string debug = db_.DebugString();
  EXPECT_NE(debug.find("data:"), std::string::npos);
  EXPECT_NE(debug.find("1 records"), std::string::npos);
}

// Property sweep: many records, every one retrievable by its key, and the
// paper's example query pattern ("give me the address of the pressure data
// buffer of the block with ID B from the time-step with ID T").
class QueryScaleTest : public ::testing::TestWithParam<int> {};

TEST_P(QueryScaleTest, EveryInsertedRecordIsRetrievable) {
  int n = GetParam();
  Gbo db(GboOptions::SingleThread());
  ASSERT_TRUE(db.DefineField("id", DataType::kInt64, 8).ok());
  ASSERT_TRUE(db.DefineField("payload", DataType::kFloat64, 16).ok());
  ASSERT_TRUE(db.DefineRecord("r", 1).ok());
  ASSERT_TRUE(db.InsertField("r", "id", true).ok());
  ASSERT_TRUE(db.InsertField("r", "payload", false).ok());
  ASSERT_TRUE(db.CommitRecordType("r").ok());
  for (int64_t i = 0; i < n; ++i) {
    auto rec = db.NewRecord("r");
    ASSERT_TRUE(rec.ok());
    std::memcpy(*(*rec)->FieldBuffer("id"), &i, 8);
    static_cast<double*>(*(*rec)->FieldBuffer("payload"))[0] = i * 2.0;
    ASSERT_TRUE(db.CommitRecord(*rec).ok());
  }
  for (int64_t i = 0; i < n; ++i) {
    auto buffer = db.GetFieldBuffer("r", "payload", {KeyBytes(i)});
    ASSERT_TRUE(buffer.ok());
    EXPECT_EQ(static_cast<double*>(*buffer)[0], i * 2.0);
  }
  EXPECT_EQ(db.stats().records_committed, n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, QueryScaleTest,
                         ::testing::Values(1, 16, 256, 2048));

// ---------------------------------------------------------------------------
// QueryPlanner / QueryTicket (core/query.h), direct mode.
// ---------------------------------------------------------------------------

constexpr int64_t kUnitPayload = 64 * 1024;

std::unique_ptr<Gbo> MakeQueryDb(bool background) {
  GboOptions options;
  if (!background) options = GboOptions::SingleThread();
  options.io_threads = 2;
  options.memory_limit_bytes = 64 * 1024 * 1024;
  auto db = std::make_unique<Gbo>(options);
  EXPECT_TRUE(workloads::EnsureServingSchema(db.get()).ok());
  return db;
}

// Counts invocations, optionally parking until `gate` opens.
Gbo::ReadFn CountingRead(std::atomic<int>* runs,
                         std::atomic<bool>* gate = nullptr) {
  return [runs, gate](Gbo* db, const std::string& name) -> Status {
    runs->fetch_add(1);
    if (gate != nullptr) {
      while (!gate->load()) SleepFor(std::chrono::milliseconds(1));
    }
    return workloads::ServingReadFn(kUnitPayload, Duration::zero())(db, name);
  };
}

QueryUnitSpec Spec(const std::string& name, Gbo::ReadFn read_fn) {
  QueryUnitSpec spec;
  spec.name = name;
  spec.read_fn = std::move(read_fn);
  spec.bytes = kUnitPayload;
  return spec;
}

TEST(QueryApiTest, DedupAgainstResidentPinsImmediately) {
  auto db = MakeQueryDb(/*background=*/true);
  ASSERT_TRUE(
      db->ReadUnit("q/a", workloads::ServingReadFn(kUnitPayload,
                                                   Duration::zero()))
          .ok());
  ASSERT_TRUE(db->FinishUnit("q/a").ok());  // cached, unpinned

  std::atomic<int> a_runs{0};
  std::atomic<int> b_runs{0};
  GboQuery query;
  query.units.push_back(Spec("q/a", CountingRead(&a_runs)));
  query.units.push_back(Spec("q/b", CountingRead(&b_runs)));
  QueryPlanner planner(db.get());
  auto ticket = planner.Submit(std::move(query));
  ASSERT_TRUE(ticket.ok()) << ticket.status();

  EXPECT_EQ(*(*ticket)->DispositionOf("q/a"), QueryDisposition::kResident);
  EXPECT_EQ(*(*ticket)->DispositionOf("q/b"), QueryDisposition::kBatched);
  QueryPlanStats plan = (*ticket)->plan();
  EXPECT_EQ(plan.units_requested, 2);
  EXPECT_EQ(plan.dedup_resident, 1);
  EXPECT_EQ(plan.batches_issued, 1);
  EXPECT_EQ(plan.bytes_saved, kUnitPayload);

  EXPECT_TRUE((*ticket)->WaitAll().ok());
  EXPECT_EQ(a_runs.load(), 0);  // resident hit: never re-read
  EXPECT_EQ(b_runs.load(), 1);
  // The probe pinned q/a at plan time: FinishAll releasing both proves it.
  EXPECT_TRUE((*ticket)->FinishAll().ok());
}

TEST(QueryApiTest, DedupAgainstInFlightJoinsTheLoad) {
  auto db = MakeQueryDb(/*background=*/true);
  std::atomic<int> loader_runs{0};
  std::atomic<bool> gate{false};
  ASSERT_TRUE(db->AddUnit("q/g", CountingRead(&loader_runs, &gate)).ok());

  std::atomic<int> query_runs{0};
  GboQuery query;
  query.units.push_back(Spec("q/g", CountingRead(&query_runs)));
  QueryPlanner planner(db.get());
  auto ticket = planner.Submit(std::move(query));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  EXPECT_EQ(*(*ticket)->DispositionOf("q/g"), QueryDisposition::kInFlight);
  EXPECT_EQ((*ticket)->plan().dedup_in_flight, 1);

  gate.store(true);
  EXPECT_TRUE((*ticket)->WaitAll().ok());
  EXPECT_EQ(query_runs.load(), 0);  // joined, not re-issued
  EXPECT_EQ(loader_runs.load(), 1);
  EXPECT_TRUE((*ticket)->FinishAll().ok());
}

TEST(QueryApiTest, CancellationMidPlanDeletesQueuedLoads) {
  auto db = MakeQueryDb(/*background=*/false);  // loads stay queued
  std::atomic<int> runs{0};
  GboQuery query;
  for (int i = 0; i < 3; ++i) {
    query.units.push_back(Spec("q/u" + std::to_string(i),
                               CountingRead(&runs)));
  }
  QueryPlanner planner(db.get());
  auto ticket = planner.Submit(std::move(query));
  ASSERT_TRUE(ticket.ok()) << ticket.status();

  EXPECT_TRUE((*ticket)->Cancel().ok());
  Status all = (*ticket)->WaitAll();
  EXPECT_EQ(all.code(), StatusCode::kAborted) << all;
  EXPECT_EQ(runs.load(), 0);  // no read function ever ran
  for (int i = 0; i < 3; ++i) {
    std::string name = "q/u" + std::to_string(i);
    EXPECT_EQ((*ticket)->UnitStatus(name).code(), StatusCode::kAborted);
    // Cancel withdrew the queued direct-mode loads via DeleteUnit.
    EXPECT_EQ(db->ProbeUnitForPlan(name), Gbo::UnitProbe::kAbsent);
  }
}

TEST(QueryApiTest, PoollessLoadsRunInlineInPlanOrder) {
  auto db = MakeQueryDb(/*background=*/false);
  std::atomic<int> runs{0};
  GboQuery query;
  std::vector<std::string> consumed;
  query.on_unit = [&consumed](const std::string& name, const Status& s) {
    EXPECT_TRUE(s.ok()) << s;
    consumed.push_back(name);
  };
  for (int i = 0; i < 3; ++i) {
    query.units.push_back(Spec("q/u" + std::to_string(i),
                               CountingRead(&runs)));
  }
  QueryPlanner planner(db.get());
  auto ticket = planner.Submit(std::move(query));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  EXPECT_TRUE((*ticket)->WaitAll().ok());
  EXPECT_EQ(runs.load(), 3);
  ASSERT_EQ(consumed.size(), 3u);
  EXPECT_EQ(consumed[0], "q/u0");
  EXPECT_EQ(consumed[1], "q/u1");
  EXPECT_EQ(consumed[2], "q/u2");
  EXPECT_TRUE((*ticket)->FinishAll().ok());
}

TEST(QueryApiTest, PushdownRunsPerUnitAsItLands) {
  auto db = MakeQueryDb(/*background=*/true);
  std::atomic<int> runs{0};
  GboQuery query;
  query.units.push_back(Spec("q/p0", CountingRead(&runs)));
  query.units.push_back(Spec("q/p1", CountingRead(&runs)));
  query.pushdown = [](Gbo*, const std::string& unit,
                      std::vector<DerivedResult>* out) -> Status {
    DerivedResult result;
    result.unit = unit;
    result.field = "derived";
    result.values = {1.0, 2.0};
    out->push_back(std::move(result));
    return Status::Ok();
  };
  QueryPlanner planner(db.get());
  auto ticket = planner.Submit(std::move(query));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  EXPECT_TRUE((*ticket)->WaitAll().ok());
  std::vector<DerivedResult> derived = (*ticket)->TakeDerived();
  ASSERT_EQ(derived.size(), 2u);
  EXPECT_EQ(derived[0].field, "derived");
  EXPECT_TRUE((*ticket)->FinishAll().ok());
  EXPECT_TRUE((*ticket)->TakeDerived().empty());  // moved out above
}

TEST(QueryApiTest, DeadlineExpiresTheWait) {
  auto db = MakeQueryDb(/*background=*/true);
  std::atomic<int> runs{0};
  std::atomic<bool> gate{false};
  GboQuery query;
  query.units.push_back(Spec("q/slow", CountingRead(&runs, &gate)));
  query.deadline = std::chrono::milliseconds(50);
  QueryPlanner planner(db.get());
  auto ticket = planner.Submit(std::move(query));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  Status all = (*ticket)->WaitAll();
  EXPECT_EQ(all.code(), StatusCode::kDeadlineExceeded) << all;
  gate.store(true);  // let the parked load settle before teardown
}

// ---------------------------------------------------------------------------
// Session mode: the batch-ticket lane (GboSession::SubmitBatchSet).
// ---------------------------------------------------------------------------

TEST(QuerySessionTest, OutsideNamespaceIsRejectedAtSubmit) {
  auto db = MakeQueryDb(/*background=*/true);
  GboServer server(db.get());
  SessionConfig config;
  config.unit_namespace = "hot/";
  auto session = server.OpenSession(config);
  ASSERT_TRUE(session.ok());
  std::atomic<int> runs{0};
  GboQuery query;
  query.units.push_back(Spec("cold/x", CountingRead(&runs)));
  QueryPlanner planner(db.get(), session->get());
  auto ticket = planner.Submit(std::move(query));
  EXPECT_EQ(ticket.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*session)->stats().batch_submitted, 0);
}

TEST(QuerySessionTest, BatchGrantAndPinAccounting) {
  auto db = MakeQueryDb(/*background=*/true);
  GboServer server(db.get());
  auto session = server.OpenSession(SessionConfig{});
  ASSERT_TRUE(session.ok());

  std::atomic<int> runs{0};
  GboQuery query;
  for (int i = 0; i < 4; ++i) {
    query.units.push_back(Spec("b/u" + std::to_string(i),
                               CountingRead(&runs)));
  }
  QueryPlanner planner(db.get(), session->get());
  auto ticket = planner.Submit(std::move(query));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  EXPECT_TRUE((*ticket)->WaitAll().ok());
  EXPECT_EQ(runs.load(), 4);

  SessionStats stats = (*session)->stats();
  EXPECT_EQ(stats.batch_submitted, 4);
  EXPECT_EQ(stats.batch_granted, 4);
  EXPECT_EQ(stats.queued_batch, 0);
  EXPECT_EQ(stats.pinned_units, 4);  // plan pins adopted by the session
  EXPECT_EQ(stats.demand_samples, 4);

  EXPECT_TRUE((*ticket)->FinishAll().ok());
  EXPECT_EQ((*session)->stats().pinned_units, 0);
}

TEST(QuerySessionTest, DeadlineWithdrawalReleasesQueueQuota) {
  auto db = MakeQueryDb(/*background=*/true);
  GboServer server(db.get());
  SessionConfig config;
  config.max_inflight_loads = 1;  // one grant at a time; the rest queue
  config.max_queued_demand = 3;
  auto session = server.OpenSession(config);
  ASSERT_TRUE(session.ok());

  std::atomic<int> runs{0};
  std::atomic<bool> gate{false};
  auto batch = [&](const std::string& name) {
    SessionBatchRequest request;
    request.unit_name = name;
    request.read_fn = CountingRead(&runs, &gate);
    return request;
  };
  std::vector<SessionBatchRequest> set;
  set.push_back(batch("b/u0"));
  set.push_back(batch("b/u1"));
  set.push_back(batch("b/u2"));
  ASSERT_TRUE((*session)->SubmitBatchSet(std::move(set)).ok());
  // u0 granted (parked on the gate); u1, u2 still queued.
  Stopwatch poll;
  while ((*session)->stats().batch_granted < 1 &&
         poll.ElapsedSeconds() < 5.0) {
    SleepFor(std::chrono::milliseconds(1));
  }
  EXPECT_EQ((*session)->stats().queued_batch, 2);

  // Quota full: two more tickets would exceed max_queued_demand.
  std::vector<SessionBatchRequest> more;
  more.push_back(batch("b/u3"));
  more.push_back(batch("b/u4"));
  EXPECT_EQ((*session)->SubmitBatchSet(std::move(more)).code(),
            StatusCode::kResourceExhausted);

  // A passed deadline withdraws the still-queued ticket — and releases
  // its queue-quota slot.
  TimePoint past = Now() - std::chrono::seconds(1);
  EXPECT_EQ((*session)->AwaitBatchSettle("b/u1", &past).code(),
            StatusCode::kDeadlineExceeded);
  SessionStats stats = (*session)->stats();
  EXPECT_EQ(stats.queued_batch, 1);
  EXPECT_EQ(stats.demand_shed, 1);

  std::vector<SessionBatchRequest> again;
  again.push_back(batch("b/u3"));
  again.push_back(batch("b/u4"));
  EXPECT_TRUE((*session)->SubmitBatchSet(std::move(again)).ok());

  gate.store(true);
  EXPECT_TRUE((*session)->AwaitBatchSettle("b/u0", nullptr).ok());
  EXPECT_TRUE((*session)->AwaitBatchSettle("b/u2", nullptr).ok());
  EXPECT_TRUE((*session)->AwaitBatchSettle("b/u3", nullptr).ok());
  EXPECT_TRUE((*session)->AwaitBatchSettle("b/u4", nullptr).ok());
  // The withdrawn ticket never granted: no settle record to consume.
  EXPECT_EQ((*session)->AwaitBatchSettle("b/u1", nullptr).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace godiva
