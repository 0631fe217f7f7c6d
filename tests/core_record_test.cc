// Tests for record instances: creation, buffer allocation, commitment, and
// the paper's Figure 2 record layout.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/gbo.h"
#include "core/key_util.h"
#include "core/options.h"
#include "core/record.h"

namespace godiva {
namespace {

// Paper Table 1 schema.
void DefineFluidSchema(Gbo* db) {
  EXPECT_TRUE(db->DefineField("block id", DataType::kString, 11).ok());
  EXPECT_TRUE(db->DefineField("time-step id", DataType::kString, 9).ok());
  EXPECT_TRUE(
      db->DefineField("x coordinates", DataType::kFloat64, kUnknownSize)
          .ok());
  EXPECT_TRUE(
      db->DefineField("y coordinates", DataType::kFloat64, kUnknownSize)
          .ok());
  EXPECT_TRUE(
      db->DefineField("pressure", DataType::kFloat64, kUnknownSize).ok());
  EXPECT_TRUE(
      db->DefineField("temperature", DataType::kFloat64, kUnknownSize).ok());
  EXPECT_TRUE(db->DefineRecord("fluid", 2).ok());
  EXPECT_TRUE(db->InsertField("fluid", "block id", true).ok());
  EXPECT_TRUE(db->InsertField("fluid", "time-step id", true).ok());
  EXPECT_TRUE(db->InsertField("fluid", "x coordinates", false).ok());
  EXPECT_TRUE(db->InsertField("fluid", "y coordinates", false).ok());
  EXPECT_TRUE(db->InsertField("fluid", "pressure", false).ok());
  EXPECT_TRUE(db->InsertField("fluid", "temperature", false).ok());
  EXPECT_TRUE(db->CommitRecordType("fluid").ok());
}

class RecordTest : public ::testing::Test {
 protected:
  RecordTest() : db_(GboOptions::SingleThread()) { DefineFluidSchema(&db_); }

  // Creates and commits the Figure 2 record: 100×100 grid, 101 coordinates
  // per direction, 10,000 elements with pressure and temperature.
  Result<Record*> MakeFigure2Record(const std::string& block,
                                    const std::string& step) {
    GODIVA_ASSIGN_OR_RETURN(Record * rec, db_.NewRecord("fluid"));
    std::memcpy(*rec->FieldBuffer("block id"), PadKey(block, 11).data(), 11);
    std::memcpy(*rec->FieldBuffer("time-step id"), PadKey(step, 9).data(),
                9);
    GODIVA_RETURN_IF_ERROR(
        db_.AllocFieldBuffer(rec, "x coordinates", 101 * 8).status());
    GODIVA_RETURN_IF_ERROR(
        db_.AllocFieldBuffer(rec, "y coordinates", 101 * 8).status());
    GODIVA_RETURN_IF_ERROR(
        db_.AllocFieldBuffer(rec, "pressure", 10000 * 8).status());
    GODIVA_RETURN_IF_ERROR(
        db_.AllocFieldBuffer(rec, "temperature", 10000 * 8).status());
    GODIVA_RETURN_IF_ERROR(db_.CommitRecord(rec));
    return rec;
  }

  Gbo db_;
};

TEST_F(RecordTest, KnownSizeBuffersAllocatedEagerly) {
  auto rec = db_.NewRecord("fluid");
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE((*rec)->FieldBuffer("block id").ok());
  EXPECT_TRUE((*rec)->FieldBuffer("time-step id").ok());
  auto size = (*rec)->FieldBufferSize("block id");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 11);
  // Unknown-size buffers are not allocated yet.
  EXPECT_EQ((*rec)->FieldBuffer("pressure").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(RecordTest, Figure2RecordLayout) {
  auto rec = MakeFigure2Record("block_0001", "0.000025");
  ASSERT_TRUE(rec.ok()) << rec.status();
  // Sizes as drawn in Figure 2: 11, 9, 808, 808, 80000, 80000.
  EXPECT_EQ(*(*rec)->FieldBufferSize("block id"), 11);
  EXPECT_EQ(*(*rec)->FieldBufferSize("time-step id"), 9);
  EXPECT_EQ(*(*rec)->FieldBufferSize("x coordinates"), 808);
  EXPECT_EQ(*(*rec)->FieldBufferSize("y coordinates"), 808);
  EXPECT_EQ(*(*rec)->FieldBufferSize("pressure"), 80000);
  EXPECT_EQ(*(*rec)->FieldBufferSize("temperature"), 80000);
}

TEST_F(RecordTest, BuffersAreDirectlyWritable) {
  auto rec = MakeFigure2Record("block_0001", "0.000025");
  ASSERT_TRUE(rec.ok());
  auto buffer = (*rec)->FieldBuffer("pressure");
  ASSERT_TRUE(buffer.ok());
  double* pressure = static_cast<double*>(*buffer);
  for (int i = 0; i < 10000; ++i) pressure[i] = i * 0.25;
  // Re-query: same buffer, contents visible (GODIVA manages locations, not
  // contents).
  auto again = db_.GetFieldBuffer(
      "fluid", "pressure",
      {PadKey("block_0001", 11), PadKey("0.000025", 9)});
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(*again, *buffer);
  EXPECT_EQ(static_cast<double*>(*again)[9999], 9999 * 0.25);
}

TEST_F(RecordTest, DoubleAllocationRejected) {
  auto rec = db_.NewRecord("fluid");
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(db_.AllocFieldBuffer(*rec, "pressure", 800).ok());
  EXPECT_EQ(db_.AllocFieldBuffer(*rec, "pressure", 800).status().code(),
            StatusCode::kAlreadyExists);
  // Eagerly-allocated fixed-size buffers cannot be re-allocated either.
  EXPECT_EQ(db_.AllocFieldBuffer(*rec, "block id", 11).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(RecordTest, AllocationValidatesSize) {
  auto rec = db_.NewRecord("fluid");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(db_.AllocFieldBuffer(*rec, "pressure", -8).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db_.AllocFieldBuffer(*rec, "pressure", 13).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db_.AllocFieldBuffer(*rec, "ghost", 8).status().code(),
            StatusCode::kNotFound);
}

TEST_F(RecordTest, UnknownRecordHandleRejected) {
  Record* bogus = reinterpret_cast<Record*>(0x1234);
  EXPECT_EQ(db_.AllocFieldBuffer(bogus, "pressure", 8).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db_.CommitRecord(bogus).code(), StatusCode::kInvalidArgument);
}

TEST_F(RecordTest, CommitRequiresKeyBuffers) {
  // A record type whose keys have known sizes always has them allocated;
  // build a type with an unallocated key scenario via a keyless type plus
  // manual checks is impossible — instead verify commit fails when key
  // buffers exist but the record is committed twice.
  auto rec = MakeFigure2Record("block_0002", "0.000025");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(db_.CommitRecord(*rec).code(), StatusCode::kFailedPrecondition);
}

TEST_F(RecordTest, DuplicateKeyRejected) {
  ASSERT_TRUE(MakeFigure2Record("block_0001", "0.000025").ok());
  auto dup = MakeFigure2Record("block_0001", "0.000025");
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(RecordTest, SameBlockDifferentStepAllowed) {
  ASSERT_TRUE(MakeFigure2Record("block_0001", "0.000025").ok());
  EXPECT_TRUE(MakeFigure2Record("block_0001", "0.000050").ok());
  EXPECT_TRUE(MakeFigure2Record("block_0002", "0.000025").ok());
}

TEST_F(RecordTest, MemoryAccountingTracksAllocations) {
  int64_t before = db_.memory_usage();
  auto rec = MakeFigure2Record("block_0001", "0.000025");
  ASSERT_TRUE(rec.ok());
  int64_t after = db_.memory_usage();
  // 11+9+808+808+80000+80000 payload plus fixed overhead.
  EXPECT_EQ(after - before, 161636 + kRecordOverheadBytes);
}

TEST_F(RecordTest, StatsCountRecords) {
  ASSERT_TRUE(MakeFigure2Record("block_0001", "0.000025").ok());
  ASSERT_TRUE(MakeFigure2Record("block_0002", "0.000025").ok());
  GboStats stats = db_.stats();
  EXPECT_EQ(stats.records_created, 2);
  EXPECT_EQ(stats.records_committed, 2);
  EXPECT_GT(stats.peak_memory_bytes, 2 * 160000);
}

TEST_F(RecordTest, KeylessTypeCommitsWithoutIndexing) {
  ASSERT_TRUE(db_.DefineField("scratch", DataType::kFloat64, 64).ok());
  ASSERT_TRUE(db_.DefineRecord("keyless", 0).ok());
  ASSERT_TRUE(db_.InsertField("keyless", "scratch", false).ok());
  ASSERT_TRUE(db_.CommitRecordType("keyless").ok());
  auto rec = db_.NewRecord("keyless");
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(db_.CommitRecord(*rec).ok());
  // Keyless types cannot be queried by key.
  EXPECT_EQ(db_.FindRecord("keyless", {}).status().code(),
            StatusCode::kFailedPrecondition);
  // But they are listed nowhere (not indexed) — ListRecords is empty.
  auto listed = db_.ListRecords("keyless");
  ASSERT_TRUE(listed.ok());
  EXPECT_TRUE(listed->empty());
}

// The Figure 2 non-key fields, in layout order.
constexpr std::string_view kFigure2Fields[] = {
    "x coordinates", "y coordinates", "pressure", "temperature"};
constexpr int64_t kFigure2Sizes[] = {101 * 8, 101 * 8, 10000 * 8, 10000 * 8};

// A read function that loads one Figure 2 record keyed by the unit name,
// its buffers through one AllocFieldBuffers call or one AllocFieldBuffer
// call per field.
Gbo::ReadFn LoadFigure2Record(bool grouped) {
  return [grouped](Gbo* db, const std::string& unit) -> Status {
    GODIVA_ASSIGN_OR_RETURN(Record * rec, db->NewRecord("fluid"));
    std::memcpy(*rec->FieldBuffer("block id"), PadKey(unit, 11).data(), 11);
    std::memcpy(*rec->FieldBuffer("time-step id"), PadKey("0", 9).data(), 9);
    if (grouped) {
      GODIVA_RETURN_IF_ERROR(
          db->AllocFieldBuffers(rec, kFigure2Fields, kFigure2Sizes).status());
    } else {
      for (size_t i = 0; i < std::size(kFigure2Fields); ++i) {
        GODIVA_RETURN_IF_ERROR(
            db->AllocFieldBuffer(rec, std::string(kFigure2Fields[i]),
                                 kFigure2Sizes[i])
                .status());
      }
    }
    return db->CommitRecord(rec);
  };
}

TEST(AllocFieldBuffersTest, LaysFieldsOutBackToBack) {
  Gbo db(GboOptions::SingleThread());
  DefineFluidSchema(&db);
  ASSERT_TRUE(db.ReadUnit("u0", LoadFigure2Record(/*grouped=*/true)).ok());
  auto rec = db.FindRecord("fluid", {PadKey("u0", 11), PadKey("0", 9)});
  ASSERT_TRUE(rec.ok()) << rec.status();
  const uint8_t* next = static_cast<uint8_t*>(
      *(*rec)->FieldBuffer(std::string(kFigure2Fields[0])));
  for (size_t i = 0; i < std::size(kFigure2Fields); ++i) {
    const std::string field(kFigure2Fields[i]);
    EXPECT_EQ(*(*rec)->FieldBuffer(field), next) << field;
    EXPECT_EQ(*(*rec)->FieldBufferSize(field), kFigure2Sizes[i]) << field;
    next += kFigure2Sizes[i];
  }
}

// Charged as per-field calls would charge it: the same record and unit
// bytes, peak and evictions, with the limit crossed (and an older unit
// evicted) between two fields of one call.
TEST(AllocFieldBuffersTest, ChargesMemoryAsPerFieldCalls) {
  struct Observed {
    int64_t usage, u1_bytes, peak, evicted, allocated;
  };
  auto observe = [](bool grouped) -> Observed {
    GboOptions options = GboOptions::SingleThread();
    // u0 (161,764 bytes) is resident; u1's pressure buffer crosses the
    // limit and evicts it before temperature is charged.
    options.memory_limit_bytes = 200'000;
    Gbo db(options);
    DefineFluidSchema(&db);
    EXPECT_TRUE(db.ReadUnit("u0", LoadFigure2Record(grouped)).ok());
    EXPECT_TRUE(db.FinishUnit("u0").ok());
    EXPECT_TRUE(db.ReadUnit("u1", LoadFigure2Record(grouped)).ok());
    EXPECT_TRUE(db.CheckInvariants().ok());
    const GboStats stats = db.stats();
    return {db.memory_usage(), *db.UnitMemoryBytes("u1"),
            stats.peak_memory_bytes, stats.units_evicted,
            stats.total_bytes_allocated};
  };
  const Observed per_field = observe(/*grouped=*/false);
  const Observed grouped = observe(/*grouped=*/true);
  EXPECT_EQ(per_field.evicted, 1);
  EXPECT_EQ(per_field.peak, 2 * (161'636 + kRecordOverheadBytes) - 80'000);
  EXPECT_EQ(grouped.usage, per_field.usage);
  EXPECT_EQ(grouped.u1_bytes, per_field.u1_bytes);
  EXPECT_EQ(grouped.peak, per_field.peak);
  EXPECT_EQ(grouped.evicted, per_field.evicted);
  EXPECT_EQ(grouped.allocated, per_field.allocated);
}

TEST_F(RecordTest, AllocFieldBuffersFailsAsPerFieldCallsWithoutEffect) {
  auto rec = db_.NewRecord("fluid");
  ASSERT_TRUE(rec.ok());
  const int64_t usage = db_.memory_usage();
  auto expect_same_error = [&](std::span<const std::string_view> fields,
                               std::span<const int64_t> sizes,
                               const Status& per_field) {
    Status grouped = db_.AllocFieldBuffers(*rec, fields, sizes).status();
    EXPECT_EQ(grouped.code(), per_field.code()) << grouped;
    EXPECT_EQ(grouped.message(), per_field.message());
    EXPECT_EQ(db_.memory_usage(), usage);
    // Nothing before the failing field was allocated either.
    EXPECT_EQ((*rec)->FieldBuffer("x coordinates").status().code(),
              StatusCode::kFailedPrecondition);
  };
  const std::string_view x_and_pressure[] = {"x coordinates", "pressure"};
  const int64_t odd_size[] = {808, 13};
  expect_same_error(x_and_pressure, odd_size,
                    db_.AllocFieldBuffer(*rec, "pressure", 13).status());
  const std::string_view x_and_id[] = {"x coordinates", "block id"};
  const int64_t id_size[] = {808, 11};
  expect_same_error(x_and_id, id_size,
                    db_.AllocFieldBuffer(*rec, "block id", 11).status());
  ASSERT_TRUE(db_.AllocFieldBuffer(*rec, "pressure", 800).ok());
  const int64_t sizes[] = {808, 800};
  const int64_t allocated_usage = db_.memory_usage();
  Status already = db_.AllocFieldBuffer(*rec, "pressure", 800).status();
  EXPECT_EQ(already.code(), StatusCode::kAlreadyExists);
  Status grouped = db_.AllocFieldBuffers(*rec, x_and_pressure, sizes).status();
  EXPECT_EQ(grouped.code(), already.code());
  EXPECT_EQ(grouped.message(), already.message());
  EXPECT_EQ(db_.memory_usage(), allocated_usage);
  // A field listed twice is allocated twice.
  const std::string_view twice[] = {"temperature", "temperature"};
  EXPECT_EQ(db_.AllocFieldBuffers(*rec, twice, sizes).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ((*rec)->FieldBuffer("temperature").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(AllocFieldBuffersTest, RefusesAFieldMisalignedForItsElements) {
  Gbo db(GboOptions::SingleThread());
  ASSERT_TRUE(db.DefineField("tag", DataType::kByte, kUnknownSize).ok());
  ASSERT_TRUE(
      db.DefineField("values", DataType::kFloat64, kUnknownSize).ok());
  ASSERT_TRUE(db.DefineRecord("mixed", 0).ok());
  ASSERT_TRUE(db.InsertField("mixed", "tag", false).ok());
  ASSERT_TRUE(db.InsertField("mixed", "values", false).ok());
  ASSERT_TRUE(db.CommitRecordType("mixed").ok());
  auto rec = db.NewRecord("mixed");
  ASSERT_TRUE(rec.ok());
  const std::string_view fields[] = {"tag", "values"};
  const int64_t misaligned[] = {3, 16};
  EXPECT_EQ(db.AllocFieldBuffers(*rec, fields, misaligned).status().code(),
            StatusCode::kInvalidArgument);
  const int64_t aligned[] = {8, 16};
  EXPECT_TRUE(db.AllocFieldBuffers(*rec, fields, aligned).ok());
}

}  // namespace
}  // namespace godiva
