// Multi-session serving under overload (DESIGN.md §13, EXPERIMENTS.md).
// Every scenario replays on the discrete-event virtual clock, each from
// its own virtual t=0: latencies are exact and modeled delays cost no
// wall time. Scenarios over the same synthetic unit populations:
//
//   uncontended — the interactive clients alone, ample memory: the
//     baseline interactive demand latency.
//   overload    — the full mixed-priority client mix offering at least
//     2x the server's demand window, with a memory limit the background
//     streams overrun: admission control and the shed ladder engage.
//   fairness    — equal-work sessions against the demand window.
//   sweep       — 100/500/1000 mixed-priority sessions, reporting
//     interactive p50/p99 and the fair-share ratio at each population.
//
// Headline metrics: interactive p99 under overload vs uncontended (the
// graceful-degradation claim — the server sheds background work instead
// of letting interactive latency collapse), the weighted fair-share ratio
// across classes, and the shed/rejection counters.
//
// Command line (bench_util.h): --quick, --json=PATH. The full size gives
// each session 96 demand reads of 300 us synthetic cost, --quick 32 of
// 150 us.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/status.h"
#include "common/strings.h"
#include "core/gbo.h"
#include "core/options.h"
#include "core/server.h"
#include "workloads/serving.h"

namespace godiva::bench {
namespace {

using workloads::ClientResult;
using workloads::RunServingWorkload;
using workloads::ServingOptions;
using workloads::ServingReport;

// Demand reads per session and the synthetic cost of each read.
struct Size {
  int reads;
  int cost_us;
};
constexpr Size kFullSize{96, 300};
constexpr Size kQuickSize{32, 150};

constexpr int64_t kPayloadBytes = 64 * 1024;

// Per-priority-class aggregation of a ServingReport.
struct ClassAgg {
  LatencyRecorder latency;
  int64_t reads_ok = 0;
  int64_t reads_rejected = 0;
  int64_t prefetches_shed = 0;
  int clients = 0;
};

ClassAgg Aggregate(const ServingReport& report, PriorityClass cls) {
  ClassAgg agg;
  for (const ClientResult& client : report.clients) {
    if (client.priority != cls) continue;
    ++agg.clients;
    agg.latency.RecordAll(client.latencies_ms);
    agg.reads_ok += client.reads_ok;
    agg.reads_rejected += client.reads_rejected;
    agg.prefetches_shed += client.stats.prefetches_shed;
  }
  return agg;
}

ServingOptions MixedOptions(const Size& size) {
  ServingOptions options;
  options.interactive_sessions = 4;
  options.batch_sessions = 4;
  options.background_sessions = 8;  // 16 clients vs a demand window of 8
  options.reads_per_session = size.reads;
  options.payload_bytes = kPayloadBytes;
  options.read_cost = std::chrono::microseconds(size.cost_us);
  options.server.max_inflight_demand = 8;
  options.server.demand_reserve_interactive = 2;
  options.flood_delay = std::chrono::milliseconds(20);
  return options;
}

int Run(int argc, char** argv) {
  const CommandLine line =
      CommandLine::Parse(argc, argv, /*writes_json=*/true);
  const Size size = line.quick ? kQuickSize : kFullSize;
  std::printf("bench_serving: %d reads/session, %dus synthetic read cost\n",
              size.reads, size.cost_us);
  BenchJson json("bench_serving_de");

  // ----- Scenario 1: uncontended interactive baseline.
  ServingOptions uncontended = MixedOptions(size);
  uncontended.batch_sessions = 0;
  uncontended.background_sessions = 0;
  GboOptions db_options;
  db_options.io_threads = 2;
  db_options.memory_limit_bytes = 256 * 1024 * 1024;  // no pressure
  double base_p50 = 0;
  double base_p99 = 0;
  {
    DiscreteEventScope scope;
    Gbo db(db_options);
    auto report = RunServingWorkload(&db, uncontended);
    if (!report.ok()) {
      std::fprintf(stderr, "uncontended scenario failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    ClassAgg agg = Aggregate(*report, PriorityClass::kInteractive);
    base_p50 = agg.latency.Percentile(0.50);
    base_p99 = agg.latency.Percentile(0.99);
    std::printf("uncontended: %d interactive clients, p50 %.3fms, "
                "p99 %.3fms\n",
                agg.clients, base_p50, base_p99);
  }

  // ----- Scenario 2: mixed-priority overload. The client mix offers 2x
  // the demand window, and the cold streams (8 clients x 256 units x
  // 64KiB, re-read as the LRU churns) overrun the memory limit so the
  // shed ladder engages.
  ServingOptions overload = MixedOptions(size);
  GboOptions pressured = db_options;
  pressured.memory_limit_bytes = 6 * 1024 * 1024;  // ~96 units resident
  ServerStats after;
  ClassAgg inter, batch,bg;
  {
    DiscreteEventScope scope;
    Gbo db(pressured);
    auto report = RunServingWorkload(&db, overload);
    if (!report.ok()) {
      std::fprintf(stderr, "overload scenario failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    inter = Aggregate(*report, PriorityClass::kInteractive);
    batch = Aggregate(*report, PriorityClass::kBatch);
    bg = Aggregate(*report, PriorityClass::kBackground);
    after = report->server;
  }

  std::printf("overload: %d clients vs a demand window of %d\n",
              overload.interactive_sessions + overload.batch_sessions +
                  overload.background_sessions,
              overload.server.max_inflight_demand);
  std::printf("  %-12s %8s %8s %10s %10s %10s\n", "class", "p50(ms)",
              "p99(ms)", "reads ok", "rejected", "pf shed");
  auto row = [](const char* name, const ClassAgg& agg) {
    std::printf("  %-12s %8.3f %8.3f %10lld %10lld %10lld\n", name,
                agg.latency.Percentile(0.50), agg.latency.Percentile(0.99),
                static_cast<long long>(agg.reads_ok),
                static_cast<long long>(agg.reads_rejected),
                static_cast<long long>(agg.prefetches_shed));
  };
  row("interactive", inter);
  row("batch", batch);
  row("background", bg);

  const double over_p99 = inter.latency.Percentile(0.99);
  const double degradation = base_p99 > 0 ? over_p99 / base_p99 : 0;
  std::printf("  interactive p99 degradation under overload: %.2fx "
              "(acceptance: <= 2x)\n",
              degradation);

  // ----- Scenario 3: fairness. Every session streams its own equal-size
  // cold range (identical work shape, ample memory), 16 closed-loop
  // clients against a window of 8: the scheduler alone decides who
  // progresses. The ratio of the slowest to the fastest session's service
  // rate is the starvation-freedom measure (1.0 = perfectly even).
  ServingOptions fair = MixedOptions(size);
  fair.flood_delay = Duration::zero();
  fair.prefetch_ahead = 0;
  fair.hot_units = size.reads;  // never wraps: every read is a miss
  fair.batch_units = size.reads;
  fair.cold_units = size.reads;
  fair.server.demand_reserve_interactive = 0;  // pure DRR
  double fairness = 0;
  {
    DiscreteEventScope scope;
    Gbo db(db_options);  // ample memory: no shed ladder in this scenario
    auto report = RunServingWorkload(&db, fair);
    if (!report.ok()) {
      std::fprintf(stderr, "fairness scenario failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    double min_rate = 0;
    double max_rate = 0;
    for (const ClientResult& client : report->clients) {
      if (client.elapsed_seconds <= 0) continue;
      double rate =
          static_cast<double>(client.reads_ok) / client.elapsed_seconds;
      if (min_rate == 0 || rate < min_rate) min_rate = rate;
      max_rate = std::max(max_rate, rate);
    }
    fairness = max_rate > 0 ? min_rate / max_rate : 0;
  }
  std::printf("  per-session fair-share ratio (slowest/fastest, equal "
              "work): %.3f\n",
              fairness);
  std::printf("  server counters: admitted=%lld queued=%lld rejected=%lld "
              "shed=%lld+%lld forced_unpins=%lld\n",
              static_cast<long long>(after.reads_admitted),
              static_cast<long long>(after.reads_queued),
              static_cast<long long>(after.reads_rejected),
              static_cast<long long>(after.prefetches_shed),
              static_cast<long long>(after.demand_shed),
              static_cast<long long>(after.forced_unpins));

  // ----- Scenario 4: session-count scaling. Every modeled delay lands on
  // the virtual clock, so a thousand closed-loop clients replay in seconds
  // of wall time.
  std::printf("session sweep (discrete event):\n");
  std::printf("  %8s %8s %8s %10s %10s %10s\n", "sessions", "p50(ms)",
              "p99(ms)", "fairness", "virtual(s)", "wall(s)");
  for (int sessions : {100, 500, 1000}) {
    DiscreteEventScope scope;
    ServingOptions sweep;
    sweep.interactive_sessions = sessions / 4;
    sweep.batch_sessions = sessions / 4;
    sweep.background_sessions = sessions - 2 * (sessions / 4);
    sweep.reads_per_session = 12;
    sweep.payload_bytes = 16 * 1024;
    sweep.read_cost = std::chrono::microseconds(size.cost_us);
    sweep.prefetch_ahead = 1;
    sweep.hot_units = 16;
    sweep.batch_units = 64;
    sweep.cold_units = 512;
    sweep.flood_delay = std::chrono::milliseconds(20);
    sweep.server.max_inflight_demand = 32;
    sweep.server.demand_reserve_interactive = 4;
    GboOptions sweep_db;
    sweep_db.io_threads = 4;
    sweep_db.metadata_shards = 4;
    sweep_db.memory_limit_bytes = 64 * 1024 * 1024;
    // Real wall clock, measured outside the virtual one: the sweep's
    // cost to the machine, not to the model.
    auto wall_start = std::chrono::steady_clock::now();
    double virtual_seconds = 0;
    ClassAgg sweep_inter;
    double sweep_fairness = 0;
    {
      Gbo db(sweep_db);
      auto report = RunServingWorkload(&db, sweep);
      if (!report.ok()) {
        std::fprintf(stderr, "%d-session sweep failed: %s\n", sessions,
                     report.status().ToString().c_str());
        return 1;
      }
      sweep_inter = Aggregate(*report, PriorityClass::kInteractive);
      // Fairness within the background class: its clients share one
      // work shape, so slowest/fastest service rate measures starvation
      // freedom (cross-class rate ratios only measure the priority
      // ladder itself).
      double min_rate = 0;
      double max_rate = 0;
      for (const ClientResult& client : report->clients) {
        if (client.priority != PriorityClass::kBackground) continue;
        if (client.elapsed_seconds <= 0) continue;
        double rate =
            static_cast<double>(client.reads_ok) / client.elapsed_seconds;
        if (min_rate == 0 || rate < min_rate) min_rate = rate;
        max_rate = std::max(max_rate, rate);
      }
      sweep_fairness = max_rate > 0 ? min_rate / max_rate : 0;
      virtual_seconds = scope.scheduler()->VirtualElapsedSeconds();
    }
    double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    double p50 = sweep_inter.latency.Percentile(0.50);
    double p99 = sweep_inter.latency.Percentile(0.99);
    std::printf("  %8d %8.3f %8.3f %10.3f %10.2f %10.2f\n", sessions, p50,
                p99, sweep_fairness, virtual_seconds, wall_seconds);
    std::string prefix = StrFormat("de_sessions_%d_", sessions);
    json.Add(prefix + "interactive_p50_ms", p50);
    json.Add(prefix + "interactive_p99_ms", p99);
    json.Add(prefix + "fair_share_ratio", sweep_fairness);
    json.Add(prefix + "virtual_seconds", virtual_seconds);
  }

  json.Add("interactive_p50_uncontended_ms", base_p50);
  json.Add("interactive_p99_uncontended_ms", base_p99);
  json.Add("interactive_p50_overload_ms", inter.latency.Percentile(0.50));
  json.Add("interactive_p99_overload_ms", over_p99);
  json.Add("interactive_p99_degradation_x", degradation);
  json.Add("batch_p99_overload_ms", batch.latency.Percentile(0.99));
  json.Add("background_p99_overload_ms", bg.latency.Percentile(0.99));
  json.Add("fair_share_ratio", fairness);
  json.Add("background_rejected_reads",
           static_cast<double>(bg.reads_rejected));
  json.Add("prefetches_shed", static_cast<double>(after.prefetches_shed));
  json.Add("forced_unpins", static_cast<double>(after.forced_unpins));
  if (!json.WriteTo(line.json_path)) return 1;
  return 0;
}

}  // namespace
}  // namespace godiva::bench

int main(int argc, char** argv) { return godiva::bench::Run(argc, argv); }
