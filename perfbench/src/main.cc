// godiva_perfbench — one workload of the GODIVA benchmark per invocation.
//
//   godiva_perfbench --workload batch_movie|window_query|live_serving
//                    --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Untraced (--trace 0): sets the inputs up several times (setup_s is the
// median), checks the workload against its reference once, then repeats
// the measured phase for S seconds (at least three times) and reports the
// end-to-end metrics. Modeled metrics come from the discrete-event clock
// and must be identical on every repetition; host metrics are medians.
//
// Traced (--trace 1): alternates untraced and traced repetitions for S
// seconds, checks that tracing changed no modeled metric or count, and
// reports the per-layer metrics from the traced repetitions' spans.
//
// Every metric is printed with its unit and clock domain; the last line of
// standard output is the JSON result. Exit code 0 iff every check passed.
#include <sched.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/strings.h"
#include "report.h"
#include "trace.h"

namespace perfbench {
namespace {

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

constexpr int kMinReps = 3;

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      flags->workload = value();
    } else if (arg == "--seed") {
      flags->seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seconds") {
      flags->seconds = std::atof(value());
    } else if (arg == "--trace") {
      flags->trace = std::atoi(value()) != 0;
    } else if (arg == "--trace-out") {
      flags->trace_out = value();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return !flags->workload.empty();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "batch_movie") return MakeBatchMovie();
  if (name == "window_query") return MakeWindowQuery();
  if (name == "live_serving") return MakeLiveServing();
  return nullptr;
}

// The end-to-end metrics BENCHMARK.json lists (never zero on any
// workload), in output order.
const char* const kEndToEnd[] = {
    "setup_s",       "ops_per_host_s",         "peak_rss_mib",
    "modeled_s",     "modeled_visible_io_s",   "modeled_latency_p50_ms",
    "modeled_latency_tail_ms",
};

// The per-layer metrics, identical for every workload: a layer the
// workload bypasses reports zero calls.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* domain;
};
const LayerMetric kPerLayer[] = {
    {"mesh.write_host_s", "s", "host"},
    {"gsdf.read_calls", "count", "exact"},
    {"gsdf.read_mib", "MiB", "exact"},
    {"gsdf.read_host_us_p50", "us", "host"},
    {"sim.disk.seeks", "count", "exact"},
    {"sim.disk.modeled_s", "s", "modeled"},
    {"sim.sched.grants", "count", "exact"},
    {"sim.sched.timer_events", "count", "exact"},
    {"sim.sched.host_us_per_grant", "us", "host"},
    {"core.gbo.readfn_calls", "count", "exact"},
    {"core.gbo.readfn_host_ms_p50", "ms", "host"},
    {"core.gbo.readfn_modeled_ms_p50", "ms", "modeled"},
    {"core.gbo.wait_host_us_p50", "us", "host"},
    {"core.gbo.lookup_calls", "count", "exact"},
    {"core.gbo.lookup_host_ns_p50", "ns", "host"},
    {"core.gbo.cache_hit_ratio", "ratio", "exact"},
    {"core.gbo.evictions", "count", "exact"},
    {"core.gbo.peak_mib", "MiB", "exact"},
    {"core.gbo.invalidations", "count", "exact"},
    {"core.gbo.supersede_host_us_p50", "us", "host"},
    {"core.query.plan_host_ms_p50", "ms", "host"},
    {"core.query.plan_modeled_ms_p50", "ms", "modeled"},
    {"core.query.units_requested", "count", "exact"},
    {"core.query.dedup_ratio", "ratio", "exact"},
    {"core.query.batches_issued", "count", "exact"},
    {"core.query.bytes_saved_mib", "MiB", "exact"},
    {"core.server.read_host_us_p50", "us", "host"},
    {"core.server.admitted", "count", "exact"},
    {"core.server.queued", "count", "exact"},
    {"core.server.rejected", "count", "exact"},
    {"core.server.shed", "count", "exact"},
    {"core.server.forced_unpins", "count", "exact"},
    {"core.server.fair_share_ratio", "ratio", "exact"},
    {"viz.process_host_ms_p50", "ms", "host"},
    {"viz.tets_visited", "count", "exact"},
    {"viz.triangles", "count", "exact"},
    {"viz.pushdown_host_us_p50", "us", "host"},
    {"viz.pushdown_values", "count", "exact"},
    {"trace.overhead_frac", "ratio", "host"},
    {"trace.unattributed_host_frac", "ratio", "host"},
};

// Host-time p50 of a span name, in the given unit (ns per unit).
double HostP50(const trace::Summary& summary, const char* span,
               double ns_per_unit) {
  return Percentile(summary.Get(span).host_ns, 0.5) / ns_per_unit;
}

double VirtP50(const trace::Summary& summary, const char* span,
               double ns_per_unit) {
  return Percentile(summary.Get(span).virt_ns, 0.5) / ns_per_unit;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : text) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

class Runner {
 public:
  Runner(Flags flags, std::unique_ptr<Workload> workload)
      : flags_(std::move(flags)), workload_(std::move(workload)) {}

  int Run() {
    std::printf("perfbench %s: seed %" PRIu64 ", %.0f s, trace %d, build %s, "
                "GODIVA_DEBUG_CHECKS=%s\n",
                workload_->name(), flags_.seed, flags_.seconds,
                flags_.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
                PERFBENCH_DEBUG_CHECKS);
    bool ok = RunSetups() && (flags_.trace ? RunTraced() : RunUntraced());
    if (sink_.clashes()) ok = false;

    std::vector<const Metric*> reported;
    if (flags_.trace) {
      for (const LayerMetric& metric : kPerLayer) {
        if (const Metric* found = sink_.Find(metric.name)) {
          reported.push_back(found);
        } else {
          ok = false;
        }
      }
    } else {
      for (const char* name : kEndToEnd) {
        if (const Metric* found = sink_.Find(name)) {
          reported.push_back(found);
        } else {
          ok = false;
        }
      }
    }
    std::printf("correct: %s\n", ok ? "true" : "false");
    std::printf("%s\n",
                ResultJson(ok, attempted_, failed_, reported).c_str());
    std::fflush(stdout);
    return ok ? 0 : 1;
  }

 private:
  bool Check(const godiva::Status& status, const char* what) {
    if (status.ok()) return true;
    std::printf("CHECK FAILED (%s): %s\n", what, status.ToString().c_str());
    return false;
  }

  bool RunSetups() {
    trace::SetEnabled(flags_.trace);
    std::vector<double> setup_s;
    for (int i = 0; i < workload_->setup_runs(); ++i) {
      const int64_t start = trace::HostNowNs();
      if (!Check(workload_->Setup(flags_.seed), "setup")) return false;
      setup_s.push_back(static_cast<double>(trace::HostNowNs() - start) /
                        1e9);
    }
    trace::SetEnabled(false);
    setup_spans_ = trace::Collect();
    setup_s_ = Median(setup_s);
    std::printf("inputs: %s\n", workload_->Describe().c_str());
    std::printf("setup: %zu runs, median %.4f s\n", setup_s.size(), setup_s_);
    return true;
  }

  // Runs one repetition and checks it replays the first one exactly.
  bool RunRep(bool traced, RepResult* rep) {
    trace::SetEnabled(traced);
    godiva::Result<RepResult> result = workload_->RunOnce();
    trace::SetEnabled(false);
    if (!Check(result.status(), traced ? "traced repetition" : "repetition")) {
      return false;
    }
    *rep = std::move(result).value();
    attempted_ += rep->attempted;
    failed_ += rep->failed;
    if (rep->failed != 0) {
      std::printf("CHECK FAILED: %lld operations failed\n",
                  static_cast<long long>(rep->failed));
      return false;
    }
    const std::string fingerprint = rep->Fingerprint();
    if (fingerprint_.empty()) {
      if (!Check(workload_->CheckReference(*rep), "reference")) return false;
      fingerprint_ = fingerprint;
      std::printf("fingerprint: %016" PRIx64 " (%zu modeled values)\n",
                  Fnv1a(fingerprint), rep->latency_ms.size());
    } else if (fingerprint != fingerprint_) {
      std::printf("CHECK FAILED: %s repetition is not byte-identical to the "
                  "first\n  first: %.400s\n  this:  %.400s\n",
                  traced ? "traced" : "untraced", fingerprint_.c_str(),
                  fingerprint.c_str());
      return false;
    }
    ++reps_run_;
    if (reps_run_ <= 4) {
      std::printf("  rep %s: host %.4f s, %lld ops, modeled %.6f s\n",
                  traced ? "traced  " : "untraced", rep->host_s,
                  static_cast<long long>(rep->ops), rep->modeled_s);
    }
    return true;
  }

  bool RunUntraced() {
    std::vector<RepResult> reps;
    const int64_t start = trace::HostNowNs();
    while (static_cast<int>(reps.size()) < kMinReps ||
           static_cast<double>(trace::HostNowNs() - start) / 1e9 <
               flags_.seconds) {
      RepResult rep;
      if (!RunRep(false, &rep)) return false;
      reps.push_back(std::move(rep));
    }
    AddEndToEnd(reps);
    sink_.Print(std::string(workload_->name()) + " end-to-end:");
    return true;
  }

  void AddEndToEnd(const std::vector<RepResult>& reps) {
    std::vector<double> rates;
    for (const RepResult& rep : reps) {
      rates.push_back(static_cast<double>(rep.ops) / rep.host_s);
    }
    const RepResult& first = reps.front();
    const Tail tail = TailOf(first.latency_ms);
    sink_.Add("setup_s", "s", "host", setup_s_,
              godiva::StrFormat("median of %d", workload_->setup_runs()));
    sink_.Add("ops_per_host_s", "op/s", "host", Median(rates),
              godiva::StrFormat("median of %zu reps", reps.size()));
    sink_.Add("peak_rss_mib", "MiB", "host", PeakRssMib());
    sink_.Add("modeled_s", "s", "modeled", first.modeled_s);
    sink_.Add("modeled_visible_io_s", "s", "modeled", first.visible_io_s);
    sink_.Add("modeled_latency_p50_ms", "ms", "modeled",
              Percentile(first.latency_ms, 0.5),
              godiva::StrFormat("n=%zu", first.latency_ms.size()));
    sink_.Add("modeled_latency_tail_ms", "ms", "modeled", tail.value,
              godiva::StrFormat("p%.1f of n=%lld", tail.percentile,
                                static_cast<long long>(tail.samples)));
    sink_.Add("failed_frac", "ratio", "exact",
              first.attempted > 0
                  ? static_cast<double>(first.failed + first.refused) /
                        static_cast<double>(first.attempted)
                  : 0,
              godiva::StrFormat("(%lld failed + %lld refused) / %lld",
                                static_cast<long long>(first.failed),
                                static_cast<long long>(first.refused),
                                static_cast<long long>(first.attempted)));
  }

  bool RunTraced() {
    std::vector<RepResult> untraced;
    std::vector<RepResult> traced;
    std::vector<trace::SpanRecord> pooled;
    std::vector<trace::SpanRecord> last_spans;
    std::vector<double> unattributed_frac;
    std::vector<double> host_us_per_grant;
    const int64_t start = trace::HostNowNs();
    while (static_cast<int>(traced.size()) < 2 ||
           static_cast<double>(trace::HostNowNs() - start) / 1e9 <
               flags_.seconds) {
      RepResult plain;
      if (!RunRep(false, &plain)) return false;
      untraced.push_back(std::move(plain));
      RepResult rep;
      if (!RunRep(true, &rep)) return false;
      std::vector<trace::SpanRecord> spans = trace::Collect();
      const trace::Summary summary =
          trace::Summarize(spans, rep.window_start_ns, rep.window_end_ns);
      if (summary.nesting_violations != 0) {
        std::printf("CHECK FAILED: %lld spans escape their parent\n",
                    static_cast<long long>(summary.nesting_violations));
        return false;
      }
      const double window_ns =
          static_cast<double>(rep.window_end_ns - rep.window_start_ns);
      const double outside_ns =
          window_ns - static_cast<double>(summary.covered_host_ns);
      unattributed_frac.push_back(outside_ns / window_ns);
      host_us_per_grant.push_back(
          rep.sched.grants > 0
              ? outside_ns / 1e3 / static_cast<double>(rep.sched.grants)
              : 0);
      pooled.insert(pooled.end(), spans.begin(), spans.end());
      last_spans = std::move(spans);
      traced.push_back(std::move(rep));
    }
    AddEndToEnd(untraced);
    sink_.Print(std::string(workload_->name()) +
                " end-to-end (untraced repetitions):");

    // Per-layer metrics: span p50s pooled over the traced repetitions;
    // counts from the traced repetition (equal to the untraced ones, as
    // the fingerprint check above proved).
    const trace::Summary all = trace::Summarize(pooled, 0, 0);
    const trace::Summary setup = trace::Summarize(setup_spans_, 0, 0);
    const RepResult& rep = traced.back();
    const double reps = static_cast<double>(traced.size());
    auto count = [&rep](const char* name) {
      auto it = rep.counts.find(name);
      return it == rep.counts.end() ? 0.0 : it->second;
    };
    auto calls = [&](const char* span) {
      return static_cast<double>(all.Get(span).calls) / reps;
    };
    std::vector<double> traced_host;
    std::vector<double> untraced_host;
    for (const RepResult& r : traced) traced_host.push_back(r.host_s);
    for (const RepResult& r : untraced) untraced_host.push_back(r.host_s);

    std::map<std::string, double> values = {
        {"mesh.write_host_s",
         Percentile(setup.Get("mesh.write").host_ns, 0.5) / 1e9},
        {"gsdf.read_calls", count("gsdf.read_calls")},
        {"gsdf.read_mib", count("gsdf.read_mib")},
        {"gsdf.read_host_us_p50", HostP50(all, "gsdf.read", 1e3)},
        {"sim.disk.seeks", count("sim.disk.seeks")},
        {"sim.disk.modeled_s", count("sim.disk.modeled_s")},
        {"sim.sched.grants", static_cast<double>(rep.sched.grants)},
        {"sim.sched.timer_events",
         static_cast<double>(rep.sched.timer_events)},
        {"sim.sched.host_us_per_grant", Median(host_us_per_grant)},
        {"core.gbo.readfn_calls", count("core.gbo.readfn_calls")},
        {"core.gbo.readfn_host_ms_p50", HostP50(all, "core.gbo.readfn", 1e6)},
        {"core.gbo.readfn_modeled_ms_p50",
         VirtP50(all, "core.gbo.readfn", 1e6)},
        {"core.gbo.wait_host_us_p50", HostP50(all, "core.gbo.wait", 1e3)},
        {"core.gbo.lookup_calls", calls("core.gbo.lookup")},
        {"core.gbo.lookup_host_ns_p50", HostP50(all, "core.gbo.lookup", 1)},
        {"core.gbo.cache_hit_ratio", count("core.gbo.cache_hit_ratio")},
        {"core.gbo.evictions", count("core.gbo.evictions")},
        {"core.gbo.peak_mib", count("core.gbo.peak_mib")},
        {"core.gbo.invalidations", count("core.gbo.invalidations")},
        {"core.gbo.supersede_host_us_p50",
         HostP50(all, "core.gbo.supersede", 1e3)},
        {"core.query.plan_host_ms_p50", HostP50(all, "core.query.plan", 1e6)},
        {"core.query.plan_modeled_ms_p50",
         VirtP50(all, "core.query.plan", 1e6)},
        {"core.query.units_requested", count("core.query.units_requested")},
        {"core.query.dedup_ratio", count("core.query.dedup_ratio")},
        {"core.query.batches_issued", count("core.query.batches_issued")},
        {"core.query.bytes_saved_mib", count("core.query.bytes_saved_mib")},
        {"core.server.read_host_us_p50",
         HostP50(all, "core.server.read", 1e3)},
        {"core.server.admitted", count("core.server.admitted")},
        {"core.server.queued", count("core.server.queued")},
        {"core.server.rejected", count("core.server.rejected")},
        {"core.server.shed", count("core.server.shed")},
        {"core.server.forced_unpins", count("core.server.forced_unpins")},
        {"core.server.fair_share_ratio",
         count("core.server.fair_share_ratio")},
        {"viz.process_host_ms_p50", HostP50(all, "viz.process", 1e6)},
        {"viz.tets_visited", count("viz.tets_visited")},
        {"viz.triangles", count("viz.triangles")},
        {"viz.pushdown_host_us_p50", HostP50(all, "viz.pushdown", 1e3)},
        {"viz.pushdown_values", count("viz.pushdown_values")},
        {"trace.overhead_frac",
         Median(traced_host) / Median(untraced_host) - 1.0},
        {"trace.unattributed_host_frac", Median(unattributed_frac)},
    };
    const size_t first_layer = sink_.metrics().size();
    for (const LayerMetric& metric : kPerLayer) {
      sink_.Add(metric.name, metric.unit, metric.domain,
                values.at(metric.name));
    }
    // Span counts per layer, for reading the trace.
    std::printf("spans per traced repetition (%zu repetitions):\n",
                traced.size());
    for (const auto& [name, stats] : all.layers) {
      std::printf("  %-24s %10.0f calls  host p50 %10.3f us  modeled p50 "
                  "%10.3f us\n",
                  name.c_str(), static_cast<double>(stats.calls) / reps,
                  Percentile(stats.host_ns, 0.5) / 1e3,
                  Percentile(stats.virt_ns, 0.5) / 1e3);
    }
    sink_.Print(std::string(workload_->name()) + " per-layer:", first_layer);
    if (!flags_.trace_out.empty()) {
      if (trace::WriteChromeTrace(last_spans, flags_.trace_out)) {
        std::printf("trace: %zu spans written to %s\n", last_spans.size(),
                    flags_.trace_out.c_str());
      } else {
        std::printf("trace: cannot write %s\n", flags_.trace_out.c_str());
      }
    }
    return true;
  }

  Flags flags_;
  std::unique_ptr<Workload> workload_;
  MetricSink sink_;
  std::vector<trace::SpanRecord> setup_spans_;
  double setup_s_ = 0;
  std::string fingerprint_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int reps_run_ = 0;
};

}  // namespace

// Under the discrete-event scheduler exactly one program thread runs at a
// time, and the permit changes hands through futex wakeups. Keeping every
// thread on one CPU turns each handoff into a same-core context switch: no
// cross-core wakeup latency, which on a shared host is both larger and far
// noisier than the work measured. The CPU is always the first one the
// process may use, not the one it happens to start on: on a shared host
// the CPUs differ in speed by up to 30%, and a random one would add
// that to the spread between runs.
void PinToFirstCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof(set), &set) == 0) {
      std::printf("pinned to cpu %d\n", cpu);
    }
    return;
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Flags flags;
  if (!perfbench::ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: godiva_perfbench --workload "
                 "batch_movie|window_query|live_serving --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  std::unique_ptr<perfbench::Workload> workload =
      perfbench::MakeWorkload(flags.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", flags.workload.c_str());
    return 2;
  }
  perfbench::PinToFirstCpu();
  return perfbench::Runner(std::move(flags), std::move(workload)).Run();
}
