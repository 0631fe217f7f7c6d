// GboServer / GboSession serving-layer tests (DESIGN.md §13): admission
// control and per-session quotas, the priority-ordered shed ladder under
// memory pressure, session lifecycle robustness (a dead session releases
// pins, cancels queued demand, leaks no watches), and determinism of the
// weighted deficit-round-robin dispatch order across metadata shard
// counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/gbo.h"
#include "core/options.h"
#include "core/server.h"
#include "core/session.h"
#include "sim/event_scheduler.h"
#include "workloads/serving.h"

namespace godiva {
namespace {

using workloads::EnsureServingSchema;
using workloads::ServingReadFn;

constexpr int64_t kPayload = 64 * 1024;

Gbo::ReadFn FastRead() { return ServingReadFn(kPayload, Duration::zero()); }

std::unique_ptr<Gbo> MakeDb(int64_t memory_limit, int metadata_shards = 1) {
  GboOptions options;  // background_io = true
  options.io_threads = 2;
  options.metadata_shards = metadata_shards;
  options.memory_limit_bytes = memory_limit;
  auto db = std::make_unique<Gbo>(options);
  EXPECT_TRUE(EnsureServingSchema(db.get()).ok());
  return db;
}

// Demand-reads pinned filler units directly on the db until usage crosses
// `fraction` of the limit (pinned, so nothing can evict them).
void FillPinned(Gbo* db, double fraction) {
  const double target =
      fraction * static_cast<double>(db->memory_limit());
  for (int i = 0; i < 256; ++i) {
    if (static_cast<double>(db->memory_usage()) >= target) return;
    Status read =
        db->ReadUnit("fill/u" + std::to_string(i), FastRead());
    ASSERT_TRUE(read.ok()) << read.ToString();
  }
  FAIL() << "could not reach the target memory fraction";
}

// A batch set of one ticket (GboSession::SubmitBatchSet) loading `unit`.
std::vector<SessionBatchRequest> OneBatch(const std::string& unit) {
  std::vector<SessionBatchRequest> set(1);
  set[0].unit_name = unit;
  set[0].read_fn = FastRead();
  return set;
}

// Polls `gauge` (a session-stats read) until `predicate` holds or 5s pass.
template <typename Fn>
bool PollFor(Fn predicate) {
  Stopwatch deadline;
  while (deadline.ElapsedSeconds() < 5.0) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(SessionTest, NamespaceIsEnforced) {
  auto db = MakeDb(64 * 1024 * 1024);
  GboServer server(db.get());
  SessionConfig config;
  config.unit_namespace = "hot/";
  auto session = server.OpenSession(config);
  ASSERT_TRUE(session.ok());
  Status outside = (*session)->Read("cold/u0", FastRead());
  EXPECT_EQ(outside.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*session)->Prefetch("cold/u0", FastRead()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*session)->Finish("cold/u0").code(),
            StatusCode::kInvalidArgument);
  auto watch = (*session)->Watch("cold/*", [](const Gbo::WatchEvent&) {});
  EXPECT_EQ(watch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE((*session)->Read("hot/u0", FastRead()).ok());
  EXPECT_TRUE((*session)->Finish("hot/u0").ok());
}

TEST(SessionTest, PinBudgetQuota) {
  auto db = MakeDb(64 * 1024 * 1024);
  GboServer server(db.get());
  SessionConfig config;
  config.max_pinned_bytes = 1;  // any pinned unit exhausts the budget
  auto session = server.OpenSession(config);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->Read("hot/u0", FastRead()).ok());
  SessionStats stats = (*session)->stats();
  EXPECT_EQ(stats.pinned_units, 1);
  EXPECT_GT(stats.pinned_bytes, 0);

  Status over = (*session)->Read("hot/u1", FastRead());
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*session)->stats().quota_rejections, 1);

  ASSERT_TRUE((*session)->Finish("hot/u0").ok());
  EXPECT_TRUE((*session)->Read("hot/u1", FastRead()).ok());
  EXPECT_TRUE((*session)->Finish("hot/u1").ok());
}

TEST(SessionTest, PinBudgetQuotaRefusesBatchSets) {
  auto db = MakeDb(64 * 1024 * 1024);
  GboServer server(db.get());
  SessionConfig config;
  config.max_pinned_bytes = 1;  // any pinned unit exhausts the budget
  auto session = server.OpenSession(config);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->Read("hot/u0", FastRead()).ok());

  // A batch set passes the same pin-budget check as a stack read.
  EXPECT_EQ((*session)->SubmitBatchSet(OneBatch("hot/u1")).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ((*session)->stats().quota_rejections, 1);
  EXPECT_EQ((*session)->stats().batch_submitted, 0);

  ASSERT_TRUE((*session)->Finish("hot/u0").ok());
  ASSERT_TRUE((*session)->SubmitBatchSet(OneBatch("hot/u1")).ok());
  EXPECT_TRUE((*session)->AwaitBatchSettle("hot/u1", nullptr).ok());
}

TEST(SessionTest, QueuedDemandQuotaAndDeadlineWithdrawal) {
  auto db = MakeDb(64 * 1024 * 1024);
  ServerOptions options;
  options.start_paused = true;
  GboServer server(db.get(), options);
  SessionConfig config;
  config.max_queued_demand = 1;
  auto session = server.OpenSession(config);
  ASSERT_TRUE(session.ok());

  // A queued ticket with a deadline is withdrawn when it expires.
  Status timed = (*session)->ReadFor("hot/u0", FastRead(),
                                     std::chrono::milliseconds(50));
  EXPECT_EQ(timed.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ((*session)->stats().queued_demand, 0);

  // A second queued ticket trips the per-session quota.
  std::thread blocked([&session] {
    Status read = (*session)->Read("hot/u1", FastRead());
    EXPECT_TRUE(read.ok()) << read.ToString();
  });
  ASSERT_TRUE(PollFor(
      [&session] { return (*session)->stats().queued_demand == 1; }));
  Status over = (*session)->Read("hot/u2", FastRead());
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*session)->stats().quota_rejections, 1);

  server.ResumeDispatch();
  blocked.join();
  EXPECT_TRUE((*session)->Finish("hot/u1").ok());
  SessionStats stats = (*session)->stats();
  EXPECT_EQ(stats.reads_admitted, 1);
  EXPECT_EQ(stats.reads_queued, 1);
  EXPECT_GT(stats.stall_seconds, 0);
}

TEST(SessionTest, StackReadsAndBatchTicketsShareQueuedDemandQuota) {
  auto db = MakeDb(64 * 1024 * 1024);
  ServerOptions options;
  options.start_paused = true;
  GboServer server(db.get(), options);
  SessionConfig config;
  config.max_queued_demand = 2;
  auto session = server.OpenSession(config);
  ASSERT_TRUE(session.ok());

  // Two queued batch tickets fill the quota...
  ASSERT_TRUE((*session)->SubmitBatchSet(OneBatch("hot/b0")).ok());
  ASSERT_TRUE((*session)->SubmitBatchSet(OneBatch("hot/b1")).ok());
  ASSERT_EQ((*session)->stats().queued_batch, 2);
  // ...so a stack read is refused at admission, not queued until its
  // deadline passes.
  Status read = (*session)->ReadFor("hot/u0", FastRead(),
                                    std::chrono::milliseconds(50));
  EXPECT_EQ(read.code(), StatusCode::kResourceExhausted) << read.ToString();
  SessionStats stats = (*session)->stats();
  EXPECT_EQ(stats.quota_rejections, 1);
  EXPECT_EQ(stats.queued_demand, 0);

  server.ResumeDispatch();
  EXPECT_TRUE((*session)->AwaitBatchSettle("hot/b0", nullptr).ok());
  EXPECT_TRUE((*session)->AwaitBatchSettle("hot/b1", nullptr).ok());
  EXPECT_TRUE((*session)->Read("hot/u0", FastRead()).ok());
  EXPECT_TRUE((*session)->Finish("hot/u0").ok());
}

TEST(SessionTest, CloseCancelsQueuedDemand) {
  auto db = MakeDb(64 * 1024 * 1024);
  ServerOptions options;
  options.start_paused = true;
  GboServer server(db.get(), options);
  auto session = server.OpenSession(SessionConfig{});
  ASSERT_TRUE(session.ok());
  std::thread blocked([&session] {
    Status read = (*session)->Read("hot/u0", FastRead());
    EXPECT_EQ(read.code(), StatusCode::kAborted);
  });
  ASSERT_TRUE(PollFor(
      [&session] { return (*session)->stats().queued_demand == 1; }));
  (*session)->Close();
  blocked.join();
  EXPECT_TRUE((*session)->closed());
  EXPECT_EQ((*session)->stats().demand_shed, 1);
  // New work on a closed session is refused outright.
  EXPECT_EQ((*session)->Read("hot/u1", FastRead()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*session)->Prefetch("hot/u1", FastRead()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SessionTest, SessionDeathReleasesPinsAndWatches) {
  // Small limit: the LRU churn below can only evict hot/u0 if the dead
  // session's pin really came off.
  auto db = MakeDb(2 * 1024 * 1024);
  GboServer server(db.get());
  std::atomic<int> events{0};
  {
    auto session = server.OpenSession(SessionConfig{});
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)->Read("hot/u0", FastRead()).ok());
    EXPECT_EQ((*session)->stats().pinned_units, 1);
    auto watch = (*session)->Watch(
        "hot/*", [&events](const Gbo::WatchEvent&) { ++events; });
    ASSERT_TRUE(watch.ok());
    // Positive control: the watch fires while the session is alive.
    ASSERT_TRUE(db->AddUnit("hot/w0", FastRead()).ok());
    ASSERT_TRUE(db->WaitUnit("hot/w0").ok());
    ASSERT_TRUE(db->FinishUnit("hot/w0").ok());
    ASSERT_TRUE(PollFor([&events] { return events.load() >= 1; }));
    // The handle dies here without Close or Finish.
  }
  EXPECT_EQ(server.open_sessions(), 0);
  // The session's pin on hot/u0 was released: churning the cache past the
  // limit must evict it (a leaked pin would keep it kReady forever —
  // FinishUnit itself clamps at zero, so eviction is the probe).
  for (int i = 0; i < 40; ++i) {
    std::string unit = "churn/u" + std::to_string(i);
    ASSERT_TRUE(db->ReadUnit(unit, FastRead()).ok()) << unit;
    ASSERT_TRUE(db->FinishUnit(unit).ok()) << unit;
  }
  auto state = db->GetUnitState("hot/u0");
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, UnitState::kDeleted);
  EXPECT_GT(db->stats().units_evicted, 0);
  // The session's watch was unregistered: a new settle fires nothing.
  const int before = events.load();
  ASSERT_TRUE(db->AddUnit("hot/w1", FastRead()).ok());
  ASSERT_TRUE(db->WaitUnit("hot/w1").ok());
  ASSERT_TRUE(db->FinishUnit("hot/w1").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(events.load(), before);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, 1);
  EXPECT_EQ(stats.sessions_closed, 1);
}

TEST(SessionTest, UnwatchStopsTracking) {
  auto db = MakeDb(64 * 1024 * 1024);
  GboServer server(db.get());
  auto session = server.OpenSession(SessionConfig{});
  ASSERT_TRUE(session.ok());
  auto watch = (*session)->Watch("hot/*", [](const Gbo::WatchEvent&) {});
  ASSERT_TRUE(watch.ok());
  EXPECT_TRUE((*session)->Unwatch(*watch).ok());
  EXPECT_EQ((*session)->Unwatch(*watch).code(), StatusCode::kNotFound);
}

TEST(ServerTest, SessionCapAndCriticalAdmission) {
  auto db = MakeDb(64 * 1024 * 1024);
  ServerOptions options;
  options.max_sessions = 1;
  GboServer server(db.get(), options);
  auto first = server.OpenSession(SessionConfig{});
  ASSERT_TRUE(first.ok());
  auto second = server.OpenSession(SessionConfig{});
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  (*first)->Close();
  EXPECT_TRUE(server.OpenSession(SessionConfig{}).ok());
}

TEST(ServerTest, PressureLadderRejectsByClass) {
  // 4 MiB limit; ~66 KiB filler units step usage in ~1.6% increments, so
  // a point inside each rung's band is reachable exactly.
  auto db = MakeDb(4 * 1024 * 1024);
  GboServer server(db.get());
  SessionConfig bg;
  bg.priority = PriorityClass::kBackground;
  SessionConfig batch;
  batch.priority = PriorityClass::kBatch;
  SessionConfig inter;
  inter.priority = PriorityClass::kInteractive;
  auto bg_session = server.OpenSession(bg);
  auto batch_session = server.OpenSession(batch);
  auto inter_session = server.OpenSession(inter);
  // Batch sets from background go through their own session so the
  // stack-read counters below stay per call.
  auto bg_batch_session = server.OpenSession(bg);
  ASSERT_TRUE(bg_session.ok());
  ASSERT_TRUE(batch_session.ok());
  ASSERT_TRUE(inter_session.ok());
  ASSERT_TRUE(bg_batch_session.ok());

  // Warm one unit everybody can hit without allocating.
  ASSERT_TRUE((*inter_session)->Read("fill/warmed", FastRead()).ok());
  const double limit = static_cast<double>(db->memory_limit());

  FillPinned(db.get(), 0.73);
  ASSERT_LT(static_cast<double>(db->memory_usage()), 0.75 * limit);
  ASSERT_EQ(server.pressure_state(), GboServer::PressureState::kOpen);
  // Open: even background prefetch is accepted. Let it settle so its
  // unit's bytes are counted before the next rung.
  EXPECT_TRUE((*bg_session)->Prefetch("fill/open", FastRead()).ok());
  EXPECT_TRUE(PollFor([&db] {
    Result<UnitState> state = db->GetUnitState("fill/open");
    return state.ok() && *state == UnitState::kReady;
  }));

  FillPinned(db.get(), 0.755);
  ASSERT_LT(static_cast<double>(db->memory_usage()), 0.9 * limit);
  ASSERT_EQ(server.pressure_state(), GboServer::PressureState::kDegraded);
  // Degraded: prefetch is refused, background demand is still served.
  EXPECT_EQ((*bg_session)->Prefetch("fill/degraded", FastRead()).code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE((*bg_session)->Read("fill/warmed", FastRead()).ok());
  EXPECT_TRUE((*bg_session)->Finish("fill/warmed").ok());

  FillPinned(db.get(), 0.905);
  ASSERT_EQ(server.pressure_state(), GboServer::PressureState::kSaturated);
  // Saturated: background demand refused, batch and interactive served.
  EXPECT_EQ((*bg_session)->Read("fill/warmed", FastRead()).code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE((*batch_session)->Read("fill/warmed", FastRead()).ok());
  EXPECT_TRUE((*batch_session)->Finish("fill/warmed").ok());
  // Prefetch is refused from the degraded rung on.
  EXPECT_EQ((*bg_session)->Prefetch("fill/p0", FastRead()).code(),
            StatusCode::kResourceExhausted);
  // A batch set passes the same rung: background refused, batch admitted
  // (the warmed unit is live, so the grant loads nothing).
  EXPECT_EQ((*bg_batch_session)->SubmitBatchSet(OneBatch("fill/warmed")).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ((*bg_batch_session)->stats().reads_rejected, 1);
  EXPECT_TRUE((*batch_session)->SubmitBatchSet(OneBatch("fill/warmed")).ok());
  EXPECT_TRUE((*batch_session)->AwaitBatchSettle("fill/warmed", nullptr).ok());

  FillPinned(db.get(), 0.955);
  ASSERT_EQ(server.pressure_state(), GboServer::PressureState::kCritical);
  // Critical: only interactive demand; non-interactive session opens are
  // refused too.
  EXPECT_EQ((*batch_session)->Read("fill/warmed", FastRead()).code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE((*inter_session)->Read("fill/warmed", FastRead()).ok());
  EXPECT_TRUE((*inter_session)->Finish("fill/warmed").ok());
  // Batch sets likewise: batch refused, interactive admitted.
  EXPECT_EQ((*batch_session)->SubmitBatchSet(OneBatch("fill/warmed")).code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE((*inter_session)->SubmitBatchSet(OneBatch("fill/warmed")).ok());
  EXPECT_TRUE((*inter_session)->AwaitBatchSettle("fill/warmed", nullptr).ok());
  EXPECT_EQ(server.OpenSession(bg).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(server.OpenSession(inter).ok());

  SessionStats bg_stats = (*bg_session)->stats();
  EXPECT_EQ(bg_stats.reads_rejected, 1);
  EXPECT_GE(server.stats().reads_rejected, 2);
}

TEST(ServerTest, ShedLadderDrainsPrefetchLowestClassFirst) {
  auto db = MakeDb(4 * 1024 * 1024);
  ServerOptions options;
  options.start_paused = true;
  options.record_dispatch_log = true;
  GboServer server(db.get(), options);
  SessionConfig bg;
  bg.priority = PriorityClass::kBackground;
  bg.name = "bg";
  SessionConfig batch;
  batch.priority = PriorityClass::kBatch;
  batch.name = "batch";
  SessionConfig inter;
  inter.priority = PriorityClass::kInteractive;
  inter.name = "inter";
  // Opened interactive-first: the shed order must come from the class
  // ladder, not from session age.
  auto inter_session = server.OpenSession(inter);
  auto batch_session = server.OpenSession(batch);
  auto bg_session = server.OpenSession(bg);
  ASSERT_TRUE(inter_session.ok());
  ASSERT_TRUE(batch_session.ok());
  ASSERT_TRUE(bg_session.ok());
  for (int i = 0; i < 3; ++i) {
    std::string unit = "p" + std::to_string(i);
    ASSERT_TRUE((*inter_session)->Prefetch("hot/" + unit, FastRead()).ok());
    ASSERT_TRUE((*batch_session)->Prefetch("warm/" + unit, FastRead()).ok());
    ASSERT_TRUE((*bg_session)->Prefetch("cold/" + unit, FastRead()).ok());
  }

  FillPinned(db.get(), 0.92);
  server.PollPressure();

  std::vector<std::string> shed = server.ShedLog();
  ASSERT_EQ(shed.size(), 9u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(shed[static_cast<size_t>(i)].rfind("prefetch bg:", 0), 0u)
        << shed[static_cast<size_t>(i)];
    EXPECT_EQ(shed[static_cast<size_t>(i + 3)].rfind("prefetch batch:", 0),
              0u)
        << shed[static_cast<size_t>(i + 3)];
    EXPECT_EQ(shed[static_cast<size_t>(i + 6)].rfind("prefetch inter:", 0),
              0u)
        << shed[static_cast<size_t>(i + 6)];
  }
  EXPECT_EQ((*bg_session)->stats().prefetches_shed, 3);
  EXPECT_EQ((*batch_session)->stats().prefetches_shed, 3);
  EXPECT_EQ((*inter_session)->stats().prefetches_shed, 3);
  EXPECT_EQ(server.stats().prefetches_shed, 9);
}

TEST(ServerTest, ForcedUnpinOfIdleOverBudgetSessions) {
  auto db = MakeDb(4 * 1024 * 1024);
  GboServer server(db.get());
  SessionConfig bg;
  bg.priority = PriorityClass::kBackground;
  bg.max_pinned_bytes = 1;  // any pin is over budget
  auto session = server.OpenSession(bg);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->Read("cold/u0", FastRead()).ok());
  EXPECT_EQ((*session)->stats().pinned_units, 1);

  FillPinned(db.get(), 0.955);
  server.PollPressure();

  SessionStats stats = (*session)->stats();
  EXPECT_EQ(stats.pinned_units, 0);
  EXPECT_EQ(stats.pinned_bytes, 0);
  EXPECT_EQ(stats.forced_unpins, 1);
  EXPECT_EQ(server.stats().forced_unpins, 1);
  // The unpin really reached the Gbo: with every fill unit pinned,
  // cold/u0 is the only eviction candidate, so reading past the remaining
  // headroom must evict exactly it. (A leaked pin would wedge these reads
  // against the memory gate instead.)
  for (int i = 0; i < 6; ++i) {
    std::string unit = "churn/u" + std::to_string(i);
    ASSERT_TRUE(
        db->ReadUnitFor(unit, FastRead(), std::chrono::seconds(2)).ok())
        << unit;
    ASSERT_TRUE(db->FinishUnit(unit).ok()) << unit;
  }
  auto state = db->GetUnitState("cold/u0");
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, UnitState::kDeleted);
}

TEST(ServerTest, DispatchOrderIsDeterministicAcrossShardCounts) {
  std::vector<std::string> logs[2];
  const int shard_counts[2] = {1, 8};
  for (int run = 0; run < 2; ++run) {
    auto db = MakeDb(256 * 1024 * 1024, shard_counts[run]);
    ServerOptions options;
    options.start_paused = true;
    options.record_dispatch_log = true;
    options.max_outstanding_prefetch = 256;
    GboServer server(db.get(), options);
    SessionConfig inter;
    inter.priority = PriorityClass::kInteractive;
    inter.name = "inter";
    SessionConfig batch;
    batch.priority = PriorityClass::kBatch;
    batch.name = "batch";
    SessionConfig bg;
    bg.priority = PriorityClass::kBackground;
    bg.name = "bg";
    auto inter_session = server.OpenSession(inter);
    auto batch_session = server.OpenSession(batch);
    auto bg_session = server.OpenSession(bg);
    ASSERT_TRUE(inter_session.ok());
    ASSERT_TRUE(batch_session.ok());
    ASSERT_TRUE(bg_session.ok());
    for (int i = 0; i < 16; ++i) {
      std::string unit = "p" + std::to_string(i);
      ASSERT_TRUE(
          (*inter_session)->Prefetch("hot/" + unit, FastRead()).ok());
      ASSERT_TRUE(
          (*batch_session)->Prefetch("warm/" + unit, FastRead()).ok());
      ASSERT_TRUE((*bg_session)->Prefetch("cold/" + unit, FastRead()).ok());
    }
    server.ResumeDispatch();
    logs[run] = server.DispatchLog();
    ASSERT_EQ(logs[run].size(), 48u);
    // Weighted deficit round-robin: 8 interactive, then 2 batch, then 1
    // background per round.
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(logs[run][static_cast<size_t>(i)].rfind("prefetch inter:",
                                                        0),
                0u)
          << logs[run][static_cast<size_t>(i)];
    }
    EXPECT_EQ(logs[run][8].rfind("prefetch batch:", 0), 0u);
    EXPECT_EQ(logs[run][9].rfind("prefetch batch:", 0), 0u);
    EXPECT_EQ(logs[run][10].rfind("prefetch bg:", 0), 0u);
  }
  EXPECT_EQ(logs[0], logs[1]);
}

// Discrete-event session sweep: 200 mixed-priority closed-loop clients
// replay on the virtual clock, deterministically. Its host cost is
// bench_serving's session sweep's wall(s) column, not a verdict here.
TEST(ServerTest, TwoHundredSessionDiscreteEventSweep) {
  int64_t reads_ok = 0;
  double virtual_a = 0;
  double virtual_b = 0;
  for (double* virtual_out : {&virtual_a, &virtual_b}) {
    DiscreteEventScope scope;
    GboOptions options;
    options.io_threads = 2;
    options.metadata_shards = 2;
    options.memory_limit_bytes = 32 * 1024 * 1024;
    Gbo db(options);
    workloads::ServingOptions serving;
    serving.interactive_sessions = 50;
    serving.batch_sessions = 50;
    serving.background_sessions = 100;
    serving.reads_per_session = 8;
    serving.payload_bytes = 16 * 1024;
    serving.read_cost = std::chrono::microseconds(200);
    serving.server.max_inflight_demand = 16;
    auto report = workloads::RunServingWorkload(&db, serving);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->clients.size(), 200u);
    reads_ok = 0;
    for (const workloads::ClientResult& client : report->clients) {
      reads_ok += client.reads_ok;
    }
    EXPECT_GT(reads_ok, 0);
    *virtual_out = scope.scheduler()->VirtualElapsedSeconds();
  }
  // Deterministic: both sweeps end at the identical virtual instant.
  EXPECT_GT(virtual_a, 0);
  EXPECT_EQ(virtual_a, virtual_b);
}

TEST(ServerTest, ServerTotalsOutliveTheirSessions) {
  auto db = MakeDb(64 * 1024 * 1024);
  ServerOptions options;
  options.start_paused = true;
  GboServer server(db.get(), options);
  {
    auto session = server.OpenSession(SessionConfig{});
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)->Prefetch("hot/p0", FastRead()).ok());
    ASSERT_TRUE((*session)->Prefetch("hot/p1", FastRead()).ok());
    (*session)->Close();  // cancels both queued prefetches
    ServerStats closed = server.stats();
    EXPECT_EQ(closed.prefetches_shed, 2);
    EXPECT_EQ(closed.sessions_closed, 1);
  }
  // The released session's counters stay in the server's totals.
  server.ResumeDispatch();
  auto session = server.OpenSession(SessionConfig{});
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->Read("hot/u0", FastRead()).ok());
  ASSERT_TRUE((*session)->Finish("hot/u0").ok());
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, 2);
  EXPECT_EQ(stats.prefetches_shed, 2);
  EXPECT_EQ(stats.reads_admitted, 1);
}

}  // namespace
}  // namespace godiva
