// Determinism of the discrete-event mode: the same configuration replays
// the identical event sequence — not just the same aggregate numbers but
// the same trace, byte for byte, run after run. The suite honors the
// stress knobs (GODIVA_STRESS_IO_THREADS, GODIVA_STRESS_SHARDS) so CI
// sweeps prove determinism at every pool size and shard count, and the
// ctest wrapper `sim_trace_golden` runs the serving replay in two fresh
// processes with GODIVA_SIM_TRACE set and compares the dump files.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/clock.h"
#include "common/strings.h"
#include "core/gbo.h"
#include "core/options.h"
#include "mesh/dataset_spec.h"
#include "sim/event_scheduler.h"
#include "sim/virtual_time.h"
#include "workloads/experiment.h"
#include "workloads/platform_runtime.h"
#include "workloads/serving.h"
#include "workloads/test_spec.h"
#include "workloads/voyager.h"

namespace godiva {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  return std::atoi(value);
}

// Everything observable about one serving replay, rendered to strings so
// two runs can be compared wholesale (doubles printed at full precision:
// on the virtual clock they must match bit for bit).
struct ReplayObservation {
  std::string trace;
  std::string report;
  int64_t grants = 0;
  int64_t timer_events = 0;
  double virtual_seconds = 0;
};

std::string DigestReport(const workloads::ServingReport& report) {
  std::string out;
  for (const workloads::ClientResult& client : report.clients) {
    out += StrFormat("%s ok=%lld rej=%lld fail=%lld pf=%lld/%lld elapsed=%.17g",
                     client.name.c_str(),
                     static_cast<long long>(client.reads_ok),
                     static_cast<long long>(client.reads_rejected),
                     static_cast<long long>(client.reads_failed),
                     static_cast<long long>(client.prefetches_ok),
                     static_cast<long long>(client.prefetches_rejected),
                     client.elapsed_seconds);
    for (double latency : client.latencies_ms) {
      out += StrFormat(" %.17g", latency);
    }
    out += "\n";
  }
  return out;
}

ReplayObservation RunServingReplay() {
  EventScheduler::Options sched;
  sched.trace = true;
  DiscreteEventScope scope(sched);

  GboOptions db_options;
  db_options.io_threads = EnvInt("GODIVA_STRESS_IO_THREADS", 2);
  db_options.metadata_shards = EnvInt("GODIVA_STRESS_SHARDS", 2);
  db_options.memory_limit_bytes = 8 * 1024 * 1024;
  Gbo db(db_options);

  workloads::ServingOptions options;
  options.interactive_sessions = 2;
  options.batch_sessions = 2;
  options.background_sessions = 3;
  options.reads_per_session = 24;
  options.cold_units = 64;
  options.read_cost = microseconds(200);
  options.flood_delay = milliseconds(5);
  options.server.max_inflight_demand = 4;

  auto report = workloads::RunServingWorkload(&db, options);
  EXPECT_TRUE(report.ok()) << report.status();

  ReplayObservation out;
  if (report.ok()) out.report = DigestReport(*report);
  SchedulerStats stats = scope.scheduler()->stats();
  out.grants = stats.grants;
  out.timer_events = stats.timer_events;
  out.virtual_seconds = stats.virtual_seconds;
  out.trace = scope.scheduler()->TraceString();
  return out;
}

// The serving workload — many client threads, a DRR scheduler, admission
// control, LRU churn — replays identically: same trace, same per-client
// outcome, same virtual clock reading.
TEST(SimDeterminismTest, ServingReplayIsIdentical) {
  ReplayObservation first = RunServingReplay();
  ReplayObservation second = RunServingReplay();
  EXPECT_FALSE(first.trace.empty());
  EXPECT_FALSE(first.report.empty());
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(first.grants, second.grants);
  EXPECT_EQ(first.timer_events, second.timer_events);
  EXPECT_EQ(first.virtual_seconds, second.virtual_seconds);
}

// The voyager TG pipeline (render loop + background prefetcher) replays
// identically, trace included.
TEST(SimDeterminismTest, VoyagerReplayIsIdentical) {
  auto run = [](std::string* trace) {
    EventScheduler::Options sched;
    sched.trace = true;
    DiscreteEventScope scope(sched);
    workloads::ExperimentOptions options;
    options.spec = mesh::DatasetSpec::Tiny();
    options.process.real_work_stride = 4;
    auto experiment = workloads::Experiment::Create(options);
    EXPECT_TRUE(experiment.ok()) << experiment.status();
    double total = 0;
    if (experiment.ok()) {
      workloads::PlatformRuntime runtime(PlatformProfile::Turing(),
                                         options.time_scale,
                                         (*experiment)->env());
      workloads::RunConfig config;
      config.dataset = &(*experiment)->dataset();
      config.test = workloads::VizTestSpec::Medium();
      config.variant = workloads::Variant::kGodivaMultiThread;
      config.process = options.process;
      auto cell = workloads::RunVoyager(&runtime, config);
      EXPECT_TRUE(cell.ok()) << cell.status();
      if (cell.ok()) total = cell->total_seconds;
    }
    *trace = scope.scheduler()->TraceString();
    return total;
  };
  std::string trace_a;
  std::string trace_b;
  double total_a = run(&trace_a);
  double total_b = run(&trace_b);
  EXPECT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(total_a, total_b);
}

// The trace records real scheduler activity, so an identical-trace
// assertion is not vacuous.
TEST(SimDeterminismTest, TraceCapturesSchedulerActivity) {
  ReplayObservation replay = RunServingReplay();
  EXPECT_GT(replay.grants, 0);
  EXPECT_GT(replay.timer_events, 0);
  EXPECT_GT(replay.virtual_seconds, 0);
  // One line per event, ids instead of pointers.
  EXPECT_NE(replay.trace.find('\n'), std::string::npos);
}

// GODIVA_SIM_TRACE=<path> dumps the trace (with a stats footer) at scope
// exit, so any run can be captured for golden comparison without code
// changes — the sim_trace_golden ctest builds on this.
TEST(SimDeterminismTest, SimTraceEnvWritesDumpFile) {
  std::string path =
      StrFormat("/tmp/godiva_sim_trace_%d.txt", static_cast<int>(::getpid()));
  const char* previous = std::getenv("GODIVA_SIM_TRACE");
  std::string saved = previous != nullptr ? previous : "";
  ::setenv("GODIVA_SIM_TRACE", path.c_str(), 1);
  {
    DiscreteEventScope scope;
    SleepFor(milliseconds(10));
  }
  if (previous != nullptr) {
    ::setenv("GODIVA_SIM_TRACE", saved.c_str(), 1);
  } else {
    ::unsetenv("GODIVA_SIM_TRACE");
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char header[16] = {0};
  ASSERT_GT(std::fread(header, 1, sizeof(header) - 1, f), 0u);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(header).substr(0, 8), "# scope:");
}

}  // namespace
}  // namespace godiva
