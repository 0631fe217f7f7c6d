// Live-ingest workload tests: an IngestProducer streams snapshots into a
// Gbo through the crash-consistent writer while reader threads follow the
// frontier through a FrontierWatch; backpressure bounds the frontier lag;
// and a power-loss crash matrix over a mid-stream snapshot file verifies
// that concurrent readers only ever see salvage-or-quarantine outcomes —
// never torn data, stale epochs, a deadlock, or an audit failure — and
// that a rewrite is re-admitted after ResetFileHealth.
//
// Every test runs on both clocks: scaled sleep, where producer, readers
// and the I/O pool overlap on real threads, and the discrete-event
// scheduler, where every sleep, timed wait and modeled disk delay lands on
// the virtual clock and the interleaving replays identically.
//
// The crash matrix samples byte offsets with a stride by default; set
// GODIVA_CRASH_MATRIX_FULL=1 to sweep power loss at every byte (CI does
// this in the sanitizer job, on the scaled-sleep instance).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread.h"
#include "core/gbo.h"
#include "core/options.h"
#include "mesh/dataset_spec.h"
#include "mesh/snapshot_writer.h"
#include "sim/event_scheduler.h"
#include "sim/fault_env.h"
#include "sim/platform.h"
#include "sim/sim_env.h"
#include "workloads/block_schema.h"
#include "workloads/ingest.h"
#include "workloads/platform_runtime.h"
#include "workloads/snapshot_io.h"

namespace godiva::workloads {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

class IngestTest : public ::testing::TestWithParam<SimMode> {
 protected:
  void SetUp() override {
    if (GetParam() == SimMode::kDiscreteEvent) scope_.emplace();
    spec_ = mesh::DatasetSpec::Tiny();
    spec_.num_snapshots = 6;
    spec_.checksums = true;
    env_ = std::make_unique<SimEnv>(SimEnv::Options{});
    fault_ = std::make_unique<FaultInjectionEnv>(env_.get());
    runtime_ = std::make_unique<PlatformRuntime>(PlatformProfile::Engle(),
                                                 /*time_scale=*/0.0004,
                                                 env_.get());
    runtime_->SetIoEnv(fault_.get());
    // The dataset starts empty: the producer creates the files live.
    dataset_ = mesh::DescribeSnapshotDataset(spec_, "dataset");
  }

  // The stress env knobs (set by the TSan CI job) override the defaults so
  // the whole suite can be swept across shard and pool-size configurations.
  GboOptions DbOptions(int io_threads = 2) {
    GboOptions options;  // background_io = true
    options.io_threads = io_threads;
    options.retry = RetryPolicy::None();
    options.quarantine_threshold = 1;
    if (const char* shards = std::getenv("GODIVA_STRESS_SHARDS")) {
      options.metadata_shards = std::atoi(shards);
    }
    if (const char* threads = std::getenv("GODIVA_STRESS_IO_THREADS")) {
      options.io_threads = std::atoi(threads);
    }
    return options;
  }

  IngestOptions ProducerOptions() {
    IngestOptions options;
    options.checksums = true;
    options.read.verify_checksums = true;
    options.quantities = {"stress", "velx"};
    return options;
  }

  // Declared first so it outlives (and tears down after) everything that
  // might still park threads on it.
  std::optional<DiscreteEventScope> scope_;
  mesh::DatasetSpec spec_;
  std::unique_ptr<SimEnv> env_;
  std::unique_ptr<FaultInjectionEnv> fault_;
  std::unique_ptr<PlatformRuntime> runtime_;
  mesh::SnapshotDataset dataset_;
};

INSTANTIATE_TEST_SUITE_P(
    Clocks, IngestTest,
    ::testing::Values(SimMode::kScaledSleep, SimMode::kDiscreteEvent),
    [](const ::testing::TestParamInfo<SimMode>& info) {
      return info.param == SimMode::kDiscreteEvent ? "DiscreteEvent"
                                                   : "ScaledSleep";
    });

// Every block of `snapshot` must be resolvable through the key index.
void ExpectSnapshotComplete(Gbo* db, const mesh::DatasetSpec& spec,
                            int snapshot) {
  for (int32_t block = 0; block < spec.num_blocks; ++block) {
    auto record = db->FindRecord(kBlockRecordType, BlockKey(block, snapshot));
    EXPECT_TRUE(record.ok())
        << "block " << block << " of snapshot " << snapshot << ": "
        << record.status();
  }
}

TEST_P(IngestTest, ReadersFollowTheAdvancingFrontier) {
  Gbo db(DbOptions());
  ASSERT_TRUE(DefineBlockSchema(&db).ok());
  IngestOptions options = ProducerOptions();
  options.max_frontier_lag = 2;
  IngestProducer producer(runtime_.get(), &db, &dataset_, options);
  FrontierWatch watch(&db);

  constexpr int kReaders = 4;
  std::vector<std::atomic<int>> finished(spec_.num_snapshots);
  for (auto& f : finished) f.store(0);
  std::atomic<int> max_lag{0};
  // A reader that fails an ASSERT returns without acking; stop the
  // producer on the way out so the test fails instead of deadlocking.
  struct StopOnExit {
    IngestProducer* producer;
    bool disarm = false;
    ~StopOnExit() {
      if (!disarm) producer->RequestStop();
    }
  };
  std::vector<Thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      StopOnExit stop{&producer};
      for (int s = 0; s < spec_.num_snapshots; ++s) {
        ASSERT_TRUE(watch.WaitForSnapshot(s, seconds(30)).ok())
            << "reader " << r << " snapshot " << s << " state "
            << db.GetUnitState(SnapshotUnitName(s)).status();
        ASSERT_TRUE(db.WaitUnitFor(SnapshotUnitName(s), seconds(30)).ok());
        ExpectSnapshotComplete(&db, spec_, s);
        ASSERT_TRUE(db.FinishUnit(SnapshotUnitName(s)).ok());
        int lag = producer.lag();
        int seen = max_lag.load();
        while (lag > seen && !max_lag.compare_exchange_weak(seen, lag)) {
        }
        // The last reader through acknowledges the snapshot.
        if (finished[s].fetch_add(1) + 1 == kReaders) {
          producer.AckFinished(s);
        }
      }
      stop.disarm = true;
    });
  }
  Status run = producer.Run();
  for (Thread& t : readers) t.join();
  ASSERT_TRUE(run.ok()) << run;

  IngestStats stats = producer.stats();
  EXPECT_EQ(stats.snapshots_published, spec_.num_snapshots);
  EXPECT_EQ(stats.write_failures, 0);
  EXPECT_EQ(producer.frontier(), spec_.num_snapshots - 1);
  EXPECT_LE(max_lag.load(), options.max_frontier_lag);
  EXPECT_GE(watch.frontier(), spec_.num_snapshots - 1);
  EXPECT_GE(watch.ready_events(), spec_.num_snapshots);
  EXPECT_TRUE(db.CheckInvariants().ok()) << db.CheckInvariants();
  GboStats gbo = db.stats();
  EXPECT_EQ(gbo.units_superseded, spec_.num_snapshots);
}

TEST_P(IngestTest, BlockPolicyStallsTheProducerUntilAcked) {
  Gbo db(DbOptions());
  ASSERT_TRUE(DefineBlockSchema(&db).ok());
  IngestOptions options = ProducerOptions();
  options.max_frontier_lag = 1;
  IngestProducer producer(runtime_.get(), &db, &dataset_, options);

  Thread runner([&producer] { EXPECT_TRUE(producer.Run().ok()); });
  // Window of one with no acks: the producer publishes snapshot 0 and
  // stalls before snapshot 1.
  for (int i = 0; i < 30000 && producer.frontier() < 0; ++i) {
    SleepFor(milliseconds(1));
  }
  EXPECT_EQ(producer.frontier(), 0);
  SleepFor(milliseconds(50));
  EXPECT_EQ(producer.frontier(), 0);
  EXPECT_EQ(producer.lag(), 1);

  producer.AckFinished(0);
  for (int i = 0; i < 30000 && producer.frontier() < 1; ++i) {
    SleepFor(milliseconds(1));
  }
  EXPECT_EQ(producer.frontier(), 1);
  producer.RequestStop();
  producer.AckFinished(1);  // unblock the stalled window wait
  runner.join();

  IngestStats stats = producer.stats();
  EXPECT_GE(stats.backpressure_stalls, 1);
  EXPECT_GT(stats.stall_seconds, 0.0);
}

TEST_P(IngestTest, WriteCrashIsRetriedThroughTheHookAndPublishes) {
  // Power loss once, mid-stream of snapshot 2's first temp file. The
  // producer's error hook "reboots" the path and the rewrite publishes;
  // readers at the final path never observe a torn file (tmp+rename).
  FaultRule rule;
  rule.path_glob = "*snap_0002_f00.gsdf.tmp";
  rule.op = FaultOp::kWrite;
  rule.kind = FaultKind::kCrashPoint;
  rule.crash_at_bytes = 512;
  fault_->AddRule(rule);

  // Salvage on, so a torn file reaching the read path would be counted.
  SnapshotReadCounters read_counters;
  Gbo db(DbOptions());
  ASSERT_TRUE(DefineBlockSchema(&db).ok());
  IngestOptions options = ProducerOptions();
  options.read.salvage = true;
  options.read.counters = &read_counters;
  std::atomic<int> hook_calls{0};
  options.on_write_error = [&](int snapshot, const Status& status) {
    EXPECT_EQ(snapshot, 2) << status;
    hook_calls.fetch_add(1);
    fault_->ClearRules();  // the outage happens once
    fault_->ClearCrashedPaths();
    return true;
  };
  IngestProducer producer(runtime_.get(), &db, &dataset_, options);
  FrontierWatch watch(&db);

  Thread runner([&producer] { EXPECT_TRUE(producer.Run().ok()); });
  for (int s = 0; s < spec_.num_snapshots; ++s) {
    ASSERT_TRUE(watch.WaitForSnapshot(s, seconds(30)).ok()) << s;
    ASSERT_TRUE(db.WaitUnitFor(SnapshotUnitName(s), seconds(30)).ok());
    ExpectSnapshotComplete(&db, spec_, s);
    ASSERT_TRUE(db.FinishUnit(SnapshotUnitName(s)).ok());
    producer.AckFinished(s);
  }
  runner.join();

  EXPECT_EQ(hook_calls.load(), 1);
  IngestStats stats = producer.stats();
  EXPECT_EQ(stats.write_failures, 1);
  EXPECT_EQ(stats.rewrites, 1);
  EXPECT_EQ(stats.snapshots_abandoned, 0);
  EXPECT_EQ(stats.snapshots_published, spec_.num_snapshots);
  // No torn file ever reached the read path.
  EXPECT_EQ(read_counters.torn_writes.load(), 0);
  EXPECT_GE(fault_->stats().crashes_injected, 1);
}

TEST_P(IngestTest, ExhaustedWriteAttemptsAbandonTheSnapshot) {
  // A permanently dead path: every attempt crashes, the hook keeps
  // requesting retries, and the producer abandons the snapshot after
  // max_write_attempts without publishing it.
  FaultRule rule;
  rule.path_glob = "*snap_0001_f00.gsdf.tmp";
  rule.op = FaultOp::kWrite;
  rule.kind = FaultKind::kCrashPoint;
  rule.crash_at_bytes = 64;
  fault_->AddRule(rule);

  Gbo db(DbOptions());
  ASSERT_TRUE(DefineBlockSchema(&db).ok());
  IngestOptions options = ProducerOptions();
  options.snapshots = 3;
  options.max_write_attempts = 2;
  options.on_write_error = [&](int, const Status&) {
    fault_->ClearCrashedPaths();  // reboot, but the fault stays armed
    return true;
  };
  IngestProducer producer(runtime_.get(), &db, &dataset_, options);
  ASSERT_TRUE(producer.Run().ok());

  IngestStats stats = producer.stats();
  EXPECT_EQ(stats.snapshots_abandoned, 1);
  EXPECT_EQ(stats.write_failures, 2);
  EXPECT_EQ(stats.snapshots_published, 2);  // snapshots 0 and 2
  EXPECT_EQ(db.GetUnitState(SnapshotUnitName(1)).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(db.WaitUnitFor(SnapshotUnitName(2), seconds(30)).ok());
  ASSERT_TRUE(db.FinishUnit(SnapshotUnitName(2)).ok());
}

// ---------------------------------------------------------------------
// The torn-write crash matrix: power loss at sampled byte offsets of a
// non-atomic writer's mid-stream snapshot file, with four concurrent
// readers on the published unit.

int CrashMatrixStride(int64_t file_size) {
  const char* full = std::getenv("GODIVA_CRASH_MATRIX_FULL");
  if (full != nullptr && full[0] == '1') return 1;
  return static_cast<int>(std::max<int64_t>(1, file_size / 24));
}

TEST_P(IngestTest, TornWriteCrashMatrixSalvagesOrQuarantinesNeverTorn) {
  const int kSnapshot = 1;
  const std::vector<std::string> files = dataset_.SnapshotFiles(kSnapshot);
  const std::string& torn_file = files.back();

  // Reference write to learn the file size, then remove it again.
  std::vector<mesh::MeshBlock> blocks = mesh::MakeBlocks(spec_);
  mesh::SnapshotWriteOptions write_options;
  write_options.checksums = true;
  ASSERT_TRUE(mesh::WriteOneSnapshot(env_.get(), spec_, dataset_.prefix,
                                     blocks, kSnapshot, spec_.TimeOf(kSnapshot),
                                     write_options)
                  .ok());
  auto reference_size = env_->GetFileSize(torn_file);
  ASSERT_TRUE(reference_size.ok());
  for (const std::string& path : files) {
    ASSERT_TRUE(env_->DeleteFile(path).ok());
  }

  SnapshotReadCounters read_counters;
  Gbo db(DbOptions(/*io_threads=*/4));
  ASSERT_TRUE(DefineBlockSchema(&db).ok());
  SnapshotReadOptions read_options;
  read_options.verify_checksums = true;
  read_options.salvage = true;
  read_options.counters = &read_counters;
  Gbo::ReadFn read_fn = MakeSnapshotReadFn(runtime_.get(), &dataset_,
                                           {"stress", "velx"}, read_options);

  int stride = CrashMatrixStride(*reference_size);
  int64_t salvaged = 0;
  int64_t quarantined = 0;
  for (int64_t crash_at = 0; crash_at < *reference_size;
       crash_at += stride) {
    SCOPED_TRACE("crash_at=" + std::to_string(crash_at));
    // Arm the outage: the non-atomic write of the last file dies at byte
    // `crash_at`, leaving a torn prefix at the final path.
    fault_->ClearRules();
    fault_->ClearCrashedPaths();
    FaultRule rule;
    rule.path_glob = "*" + torn_file;
    rule.op = FaultOp::kWrite;
    rule.kind = FaultKind::kCrashPoint;
    rule.crash_at_bytes = crash_at;
    fault_->AddRule(rule);

    mesh::SnapshotWriteOptions torn_write = write_options;
    torn_write.atomic = false;  // the pre-crash-consistency writer
    Result<int64_t> write =
        mesh::WriteOneSnapshot(fault_.get(), spec_, dataset_.prefix, blocks,
                               kSnapshot, spec_.TimeOf(kSnapshot), torn_write);
    ASSERT_FALSE(write.ok()) << "crash rule did not fire";
    ASSERT_TRUE(env_->FileExists(torn_file));

    // Publish the torn snapshot and hit it with four readers at once.
    ASSERT_TRUE(
        db.SupersedeUnit(SnapshotUnitName(kSnapshot), read_fn, files).ok());
    std::atomic<int> ok_reads{0};
    std::atomic<int> failed_reads{0};
    std::vector<Thread> readers;
    for (int r = 0; r < 4; ++r) {
      readers.emplace_back([&] {
        Status wait = db.WaitUnitFor(SnapshotUnitName(kSnapshot), seconds(60));
        // A hang here would be a frontier deadlock; 60 s is far beyond any
        // legitimate load time for the tiny dataset.
        ASSERT_NE(wait.code(), StatusCode::kDeadlineExceeded) << wait;
        if (wait.ok()) {
          // Salvage admitted the unit: every committed block is complete
          // and checksum-verified — never torn garbage.
          ExpectSnapshotComplete(&db, spec_, kSnapshot);
          ok_reads.fetch_add(1);
          ASSERT_TRUE(db.FinishUnit(SnapshotUnitName(kSnapshot)).ok());
        } else {
          failed_reads.fetch_add(1);
        }
      });
    }
    for (Thread& t : readers) t.join();
    // All four readers agree on the outcome.
    ASSERT_TRUE(ok_reads.load() == 4 || failed_reads.load() == 4)
        << ok_reads.load() << " ok / " << failed_reads.load() << " failed";
    if (ok_reads.load() == 4) {
      ++salvaged;
    } else {
      ++quarantined;
      EXPECT_TRUE(db.IsFileQuarantined(torn_file));
    }
    ASSERT_TRUE(db.CheckInvariants().ok()) << db.CheckInvariants();

    // Reboot: the producer rewrites the snapshot atomically, file health
    // is reset, and the re-publish is re-admitted for every reader.
    fault_->ClearRules();
    fault_->ClearCrashedPaths();
    ASSERT_TRUE(mesh::WriteOneSnapshot(fault_.get(), spec_, dataset_.prefix,
                                       blocks, kSnapshot,
                                       spec_.TimeOf(kSnapshot), write_options)
                    .ok());
    for (const std::string& path : files) {
      (void)db.ResetFileHealth(path);  // NOT_FOUND for never-failed files
    }
    ASSERT_TRUE(
        db.SupersedeUnit(SnapshotUnitName(kSnapshot), read_fn, files).ok());
    Status rewait = db.WaitUnitFor(SnapshotUnitName(kSnapshot), seconds(60));
    ASSERT_TRUE(rewait.ok()) << rewait;
    ExpectSnapshotComplete(&db, spec_, kSnapshot);
    ASSERT_TRUE(db.FinishUnit(SnapshotUnitName(kSnapshot)).ok());
    ASSERT_TRUE(db.CheckInvariants().ok()) << db.CheckInvariants();

    // Reset for the next offset: drop the unit and the on-disk files.
    ASSERT_TRUE(db.DeleteUnit(SnapshotUnitName(kSnapshot)).ok());
    for (const std::string& path : files) {
      ASSERT_TRUE(env_->DeleteFile(path).ok());
    }
  }
  // The matrix covered both regimes (a tear at byte 0 can never salvage;
  // a tear just shy of the footer always can).
  EXPECT_GT(quarantined, 0);
  EXPECT_GE(read_counters.torn_writes.load() +
                db.stats().units_failed_permanent,
            1);
  std::printf("crash matrix: %lld offsets salvaged, %lld quarantined "
              "(stride %d)\n",
              static_cast<long long>(salvaged),
              static_cast<long long>(quarantined), stride);
}

}  // namespace
}  // namespace godiva::workloads
