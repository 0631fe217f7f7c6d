// Randomized stress schedules for the Gbo I/O pool: several application
// threads issue add/wait/read/finish/delete against databases with 1–8 I/O
// threads, over a SimEnv whose disk model injects scaled delays, and every
// round ends at a random point so the destructor shuts the pool down with
// queued and in-flight units. Each schedule cross-checks the database with
// Gbo::CheckInvariants (the AuditInvariantsLocked walk) and replays
// deterministically:
//
//   GODIVA_STRESS_SEED=<n>        replay one failing schedule
//   GODIVA_STRESS_IO_THREADS=<n>  pin the pool size
//   GODIVA_STRESS_SHARDS=<n>      pin the metadata shard count
//
// Schedules sweep metadata_shards over {1, 2, 8} so the striped-lock paths
// (per-shard LRU, cross-shard eviction, sharded completion) get the same
// adversarial coverage as the single-lock configuration. The failing
// seed/thread/shard triple is printed via SCOPED_TRACE.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "core/gbo.h"
#include "core/key_util.h"
#include "core/options.h"
#include "core/record.h"
#include "core/server.h"
#include "core/session.h"
#include "sim/sim_env.h"
#include "sim/virtual_time.h"

namespace godiva {
namespace {

constexpr int kUnits = 24;
constexpr int kFiles = 4;
constexpr int64_t kFileBytes = 64 * 1024;
constexpr int64_t kPayloadBytes = 4 * 1024;

std::string UnitName(int i) { return "u" + std::to_string(i); }
std::string FileName(int i) { return "/stress/f" + std::to_string(i); }

// Environment-variable override, or `fallback` when unset/invalid.
int64_t EnvInt(const char* name, int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoll(value, nullptr, 10);
}

void DefineSchema(Gbo* db) {
  ASSERT_TRUE(db->DefineField("unit", DataType::kString, 16).ok());
  ASSERT_TRUE(
      db->DefineField("payload", DataType::kByte, kUnknownSize).ok());
  ASSERT_TRUE(db->DefineRecord("chunk", 1).ok());
  ASSERT_TRUE(db->InsertField("chunk", "unit", true).ok());
  ASSERT_TRUE(db->InsertField("chunk", "payload", false).ok());
  ASSERT_TRUE(db->CommitRecordType("chunk").ok());
}

// A SimEnv holding kFiles files of deterministic bytes, with a fast time
// scale so reads cost real (but tiny) overlapping delays.
std::unique_ptr<SimEnv> MakeStressEnv(const TimeScale* scale) {
  SimEnv::Options options;
  options.disk.seek_time = std::chrono::milliseconds(2);
  options.disk.bytes_per_second = 64.0 * 1024 * 1024;
  options.disk.queue_depth = 4;
  options.time_scale = scale;
  auto env = std::make_unique<SimEnv>(options);
  for (int f = 0; f < kFiles; ++f) {
    auto file = env->NewWritableFile(FileName(f));
    EXPECT_TRUE(file.ok());
    std::vector<uint8_t> bytes(static_cast<size_t>(kFileBytes));
    for (size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<uint8_t>((i * 31 + f) & 0xff);
    }
    EXPECT_TRUE((*file)->Append(bytes.data(), kFileBytes).ok());
    EXPECT_TRUE((*file)->Close().ok());
  }
  return env;
}

// Read fn for unit i: reads kPayloadBytes from file (i % kFiles) at a
// unit-dependent offset into a fresh record.
Gbo::ReadFn StressReadFn(Env* env, int i, std::atomic<int>* reads) {
  return [env, i, reads](Gbo* db, const std::string& unit_name) -> Status {
    reads->fetch_add(1);
    GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                            env->NewRandomAccessFile(FileName(i % kFiles)));
    GODIVA_ASSIGN_OR_RETURN(Record * rec, db->NewRecord("chunk"));
    std::memcpy(*rec->FieldBuffer("unit"), PadKey(unit_name, 16).data(), 16);
    GODIVA_ASSIGN_OR_RETURN(
        void* payload, db->AllocFieldBuffer(rec, "payload", kPayloadBytes));
    int64_t offset = (static_cast<int64_t>(i) * 1021) %
                     (kFileBytes - kPayloadBytes);
    GODIVA_RETURN_IF_ERROR(file->Read(offset, kPayloadBytes, payload));
    return db->CommitRecord(rec);
  };
}

// One randomized schedule. Any individual operation may legitimately fail
// (already-exists, not-found, loading, deadlock resolution, deadline) —
// the property under test is that the database never corrupts its own
// bookkeeping and never wedges, not that every op succeeds.
void RunSchedule(uint64_t seed, int io_threads, int metadata_shards) {
  SCOPED_TRACE("replay: GODIVA_STRESS_SEED=" + std::to_string(seed) +
               " GODIVA_STRESS_IO_THREADS=" + std::to_string(io_threads) +
               " GODIVA_STRESS_SHARDS=" + std::to_string(metadata_shards));
  TimeScale scale(0.01);
  std::unique_ptr<SimEnv> env = MakeStressEnv(&scale);
  std::atomic<int> reads{0};

  GboOptions options;
  options.background_io = true;
  options.io_threads = io_threads;
  options.metadata_shards = metadata_shards;
  // Tight enough that eviction and the memory gate run; loose enough that
  // a handful of pinned units cannot wedge every schedule.
  options.memory_limit_bytes = 8 * (kPayloadBytes + 1024);
  Gbo db(options);
  DefineSchema(&db);

  Random schedule_rng(seed);
  const int kAppThreads = 3;
  const int kOpsPerThread =
      20 + static_cast<int>(schedule_rng.NextBounded(40));
  std::vector<uint64_t> thread_seeds;
  for (int t = 0; t < kAppThreads; ++t) {
    thread_seeds.push_back(schedule_rng.NextUint64());
  }

  std::vector<std::thread> app_threads;
  for (int t = 0; t < kAppThreads; ++t) {
    app_threads.emplace_back([&db, env_ptr = env.get(), &reads,
                              thread_seed = thread_seeds[t],
                              kOpsPerThread] {
      Random rng(thread_seed);
      for (int op = 0; op < kOpsPerThread; ++op) {
        int unit = static_cast<int>(rng.NextBounded(kUnits));
        std::string name = UnitName(unit);
        switch (rng.NextBounded(6)) {
          case 0:
          case 1:
            (void)db.AddUnit(name, StressReadFn(env_ptr, unit, &reads),
                             {FileName(unit % kFiles)});
            break;
          case 2: {
            Status wait =
                db.WaitUnitFor(name, std::chrono::milliseconds(500));
            if (wait.ok()) (void)db.FinishUnit(name);
            break;
          }
          case 3: {
            Status read = db.ReadUnitFor(
                name, StressReadFn(env_ptr, unit, &reads),
                std::chrono::milliseconds(500));
            if (read.ok()) (void)db.FinishUnit(name);
            break;
          }
          case 4:
            (void)db.DeleteUnit(name);
            break;
          case 5: {
            Status audit = db.CheckInvariants();
            EXPECT_TRUE(audit.ok()) << audit.ToString();
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : app_threads) thread.join();

  Status audit = db.CheckInvariants();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  GboStats stats = db.stats();
  EXPECT_EQ(stats.io_thread_busy_seconds.size(),
            static_cast<size_t>(io_threads));
  EXPECT_GE(stats.units_added, 0);
  // The destructor now shuts the pool down with whatever is still queued
  // or loading — the test passes iff that neither hangs nor trips the
  // debug-build invariant audit.
}

TEST(PoolStressTest, RandomizedSchedules) {
  int64_t fixed_seed = EnvInt("GODIVA_STRESS_SEED", -1);
  int64_t fixed_threads = EnvInt("GODIVA_STRESS_IO_THREADS", -1);
  int64_t fixed_shards = EnvInt("GODIVA_STRESS_SHARDS", -1);
  std::vector<uint64_t> seeds;
  if (fixed_seed >= 0) {
    seeds.push_back(static_cast<uint64_t>(fixed_seed));
  } else {
    for (uint64_t s = 1; s <= 6; ++s) seeds.push_back(s);
  }
  std::vector<int> pool_sizes;
  if (fixed_threads > 0) {
    pool_sizes.push_back(static_cast<int>(fixed_threads));
  } else {
    pool_sizes = {1, 2, 4, 8};
  }
  std::vector<int> shard_counts;
  if (fixed_shards > 0) {
    shard_counts.push_back(static_cast<int>(fixed_shards));
  } else {
    shard_counts = {1, 2, 8};
  }
  for (int metadata_shards : shard_counts) {
    // The single-shard configuration gets the full pool sweep (it is the
    // paper-reproduction path); sharded configurations stress the extremes
    // so total runtime stays bounded.
    std::vector<int> pools = pool_sizes;
    if (fixed_threads <= 0 && metadata_shards > 1) pools = {1, 8};
    for (int io_threads : pools) {
      for (uint64_t seed : seeds) {
        RunSchedule(seed ^ (static_cast<uint64_t>(io_threads) << 32) ^
                        (static_cast<uint64_t>(metadata_shards) << 24),
                    io_threads, metadata_shards);
        if (::testing::Test::HasFailure()) return;  // first failure is enough
      }
    }
  }
}

// A pool must still drain a plain batch schedule to completion: add all,
// wait all, delete all — the bread-and-butter TG pattern, at every size.
TEST(PoolStressTest, BatchDrainAllSizes) {
  TimeScale scale(0.01);
  for (int metadata_shards : {1, 8}) {
  for (int io_threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("io_threads=" + std::to_string(io_threads) +
                 " metadata_shards=" + std::to_string(metadata_shards));
    std::unique_ptr<SimEnv> env = MakeStressEnv(&scale);
    std::atomic<int> reads{0};
    GboOptions options;
    options.background_io = true;
    options.io_threads = io_threads;
    options.metadata_shards = metadata_shards;
    Gbo db(options);
    DefineSchema(&db);
    for (int i = 0; i < kUnits; ++i) {
      ASSERT_TRUE(db.AddUnit(UnitName(i), StressReadFn(env.get(), i, &reads),
                             {FileName(i % kFiles)})
                      .ok());
    }
    for (int i = 0; i < kUnits; ++i) {
      ASSERT_TRUE(db.WaitUnit(UnitName(i)).ok());
      ASSERT_TRUE(db.FinishUnit(UnitName(i)).ok());
      ASSERT_TRUE(db.DeleteUnit(UnitName(i)).ok());
    }
    EXPECT_EQ(reads.load(), kUnits);
    EXPECT_TRUE(db.CheckInvariants().ok());
    GboStats stats = db.stats();
    EXPECT_EQ(stats.units_added, kUnits);
    EXPECT_EQ(stats.units_deleted, kUnits);
    EXPECT_LE(stats.queue_depth_high_water, kUnits);
    EXPECT_GT(stats.queue_depth_high_water, 0);
  }
  }
}

// Demand promotion: with a pool and a deep speculative queue, waiting on
// the last-queued unit promotes it past the queue — the stats must show
// the promotion, and with a single thread promotions must stay zero.
TEST(PoolStressTest, DemandPromotionOnlyWithPool) {
  TimeScale scale(0.01);
  for (int io_threads : {1, 4}) {
    SCOPED_TRACE("io_threads=" + std::to_string(io_threads));
    std::unique_ptr<SimEnv> env = MakeStressEnv(&scale);
    std::atomic<int> reads{0};
    GboOptions options;
    options.background_io = true;
    options.io_threads = io_threads;
    Gbo db(options);
    DefineSchema(&db);
    for (int i = 0; i < kUnits; ++i) {
      ASSERT_TRUE(db.AddUnit(UnitName(i), StressReadFn(env.get(), i, &reads),
                             {FileName(i % kFiles)})
                      .ok());
    }
    // Out-of-order demand: wait for the deepest unit first.
    ASSERT_TRUE(db.WaitUnit(UnitName(kUnits - 1)).ok());
    ASSERT_TRUE(db.FinishUnit(UnitName(kUnits - 1)).ok());
    for (int i = 0; i < kUnits - 1; ++i) {
      ASSERT_TRUE(db.WaitUnit(UnitName(i)).ok());
      ASSERT_TRUE(db.FinishUnit(UnitName(i)).ok());
    }
    GboStats stats = db.stats();
    if (io_threads == 1) {
      EXPECT_EQ(stats.demand_promotions, 0);
    }
    // With a pool the promotion is racy by nature (the unit may already be
    // loading when the wait arrives), so only the single-thread invariant
    // is exact; the audit must hold either way.
    EXPECT_TRUE(db.CheckInvariants().ok());
  }
}

// Multi-session serving soak: GODIVA_STRESS_SESSIONS randomized clients
// (default 12; the TSan CI job runs 64) of mixed priority classes hammer
// one GboServer over a tight-memory Gbo. Every operation may legitimately
// fail — rejected by admission, shed by the ladder, timed out, aborted by
// a concurrent Close — the properties under test are that nothing wedges,
// nothing races (TSan), closed sessions leak no pins/tickets/watches, and
// the invariant audit holds afterwards.
TEST(PoolStressTest, MultiSessionServingSoak) {
  const int sessions_n =
      static_cast<int>(EnvInt("GODIVA_STRESS_SESSIONS", 12));
  const int io_threads =
      static_cast<int>(EnvInt("GODIVA_STRESS_IO_THREADS", 2));
  const int metadata_shards =
      static_cast<int>(EnvInt("GODIVA_STRESS_SHARDS", 2));
  const uint64_t seed =
      static_cast<uint64_t>(EnvInt("GODIVA_STRESS_SEED", 20260808));
  SCOPED_TRACE("replay: GODIVA_STRESS_SEED=" + std::to_string(seed) +
               " GODIVA_STRESS_SESSIONS=" + std::to_string(sessions_n) +
               " GODIVA_STRESS_IO_THREADS=" + std::to_string(io_threads) +
               " GODIVA_STRESS_SHARDS=" + std::to_string(metadata_shards));
  TimeScale scale(0.01);
  std::unique_ptr<SimEnv> env = MakeStressEnv(&scale);
  std::atomic<int> reads{0};
  std::atomic<int> watch_events{0};

  GboOptions options;
  options.background_io = true;
  options.io_threads = io_threads;
  options.metadata_shards = metadata_shards;
  // Tight enough that the shed ladder's every rung runs; sessions mostly
  // release pins promptly so the memory gate cannot wedge.
  options.memory_limit_bytes = 8 * (kPayloadBytes + 1024);
  Gbo db(options);
  DefineSchema(&db);

  ServerOptions server_options;
  server_options.max_inflight_demand = 8;
  server_options.demand_reserve_interactive = 2;
  GboServer server(&db, server_options);

  Random schedule_rng(seed);
  std::vector<std::unique_ptr<GboSession>> handles;
  std::vector<uint64_t> thread_seeds;
  for (int s = 0; s < sessions_n; ++s) {
    SessionConfig config;
    config.name = "soak-" + std::to_string(s);
    config.priority = static_cast<PriorityClass>(s % 3);
    config.max_pinned_bytes = 3 * (kPayloadBytes + 1024);
    auto session = server.OpenSession(config);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    handles.push_back(std::move(*session));
    thread_seeds.push_back(schedule_rng.NextUint64());
  }

  std::vector<std::thread> client_threads;
  for (int s = 0; s < sessions_n; ++s) {
    client_threads.emplace_back([&db, &server, env_ptr = env.get(), &reads,
                                 &watch_events, &handles, s,
                                 thread_seed = thread_seeds[s]] {
      GboSession* session = handles[static_cast<size_t>(s)].get();
      Random rng(thread_seed);
      const int ops = 30 + static_cast<int>(rng.NextBounded(30));
      for (int op = 0; op < ops; ++op) {
        int unit = static_cast<int>(rng.NextBounded(kUnits));
        std::string name = UnitName(unit);
        switch (rng.NextBounded(8)) {
          case 0:
          case 1: {
            Status read = session->ReadFor(
                name, StressReadFn(env_ptr, unit, &reads),
                std::chrono::milliseconds(500));
            // Mostly release right away so pins cannot wedge the memory
            // gate; the rest ride until Close's cleanup.
            if (read.ok() && rng.NextBounded(4) != 0) {
              (void)session->Finish(name);
            }
            break;
          }
          case 2: {
            // Timed like every read here: an untimed Read could wedge on
            // the memory gate against pins another (finished) session
            // still holds.
            Status read = session->ReadFor(
                name, StressReadFn(env_ptr, unit, &reads),
                std::chrono::milliseconds(500));
            if (read.ok()) (void)session->Finish(name);
            break;
          }
          case 3:
            (void)session->Prefetch(name,
                                    StressReadFn(env_ptr, unit, &reads));
            break;
          case 4:
            (void)session->Finish(name);  // often FAILED_PRECONDITION
            break;
          case 5: {
            auto watch = session->Watch(
                "*", [&watch_events](const Gbo::WatchEvent&) {
                  ++watch_events;
                });
            // Half the watches are leaked on purpose: Close must reap
            // them.
            if (watch.ok() && rng.NextBounded(2) == 0) {
              (void)session->Unwatch(*watch);
            }
            break;
          }
          case 6: {
            SessionStats stats = session->stats();
            EXPECT_GE(stats.reads_admitted, 0);
            server.PollPressure();
            break;
          }
          case 7:
            // A few sessions die mid-schedule and keep issuing ops: every
            // later call must fail typed, never crash or wedge.
            if (rng.NextBounded(8) == 0) session->Close();
            break;
        }
      }
    });
  }
  for (std::thread& thread : client_threads) thread.join();

  Status audit = db.CheckInvariants();
  EXPECT_TRUE(audit.ok()) << audit.ToString();
  handles.clear();  // closes every surviving session
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, sessions_n);
  EXPECT_EQ(stats.sessions_closed, sessions_n);
  // Every pin went back when the sessions closed (the deterministic
  // eviction probe for this lives in core_session_test): with no session
  // alive, every ready unit must be evictable, so deleting the whole
  // population cannot leave anything resident.
  for (int i = 0; i < kUnits; ++i) {
    Status deleted = db.DeleteUnit(UnitName(i));
    EXPECT_TRUE(deleted.ok() ||
                deleted.code() == StatusCode::kNotFound)
        << UnitName(i) << ": " << deleted.ToString();
  }
  EXPECT_EQ(db.memory_usage(), 0);
  EXPECT_TRUE(db.CheckInvariants().ok());
}

}  // namespace
}  // namespace godiva
