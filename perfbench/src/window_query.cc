// window_query: a snapshot window walking through the dataset via the
// declarative query layer, following bench_query's query path. Every step
// builds one GboQuery for the window's snapshots (BuildSnapshotQuery:
// DescribeExtents + PlanFileBatches, with an extents cache), submits it to
// a direct-mode QueryPlanner (plan-time dedup against the previous
// window's resident units, coalesced ReadBatch loads, verified reads) and
// waits for it to settle while a MagnitudeKernel push-down runs on each
// landing unit. ProcessPass and the serving layer are bypassed.
//
// The seed picks the dataset (see SeededTitanIV) and the window's starting
// position. The window slides by one snapshot per step, so each step
// plans W units of which one snapshot's are new, and wraps to the start
// of the dataset at the end, where the next window shares nothing with
// the last and loads in full.
#include <cstdio>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/options.h"
#include "core/query.h"
#include "gsdf/reader.h"
#include "sim/platform.h"
#include "viz/derived.h"
#include "viz/pushdown.h"
#include "workloads/block_schema.h"
#include "workloads/platform_runtime.h"
#include "workloads/snapshot_query.h"

namespace perfbench {
namespace {

using godiva::Result;
using godiva::Status;
using godiva::workloads::PlatformRuntime;

constexpr double kMeshFactor = 0.5;
constexpr int kSnapshots = 15;
constexpr int kWindow = 4;
// Window positions are [0, kSnapshots - kWindow]: 49 steps move the
// window 48 times, exactly four laps of the 12 positions, so every start
// wraps four times and the modeled totals depend on the dataset alone.
constexpr int kSteps = 49;
constexpr double kMib = 1024.0 * 1024.0;

class WindowQuery final : public Workload {
 public:
  const char* name() const override { return "window_query"; }

  Status Setup(uint64_t seed) override {
    inputs_ = DatasetInputs();
    spec_ = SeededTitanIV(seed, kSnapshots, kMeshFactor);
    GODIVA_ASSIGN_OR_RETURN(inputs_, WriteDataset(spec_));
    godiva::Random rng(seed ^ 0x3A11D0C5ULL);
    const int positions = kSnapshots - kWindow + 1;
    const int start = static_cast<int>(rng.NextBounded(positions));
    origins_.clear();
    for (int step = 0; step < kSteps; ++step) {
      origins_.push_back((start + step) % positions);
    }
    return Status::Ok();
  }

  std::string Describe() const override {
    return godiva::StrFormat(
        "TitanIV mesh x%.2g nz=%d (%lld stored nodes/snapshot), dt=%.6g, %d "
        "snapshots x %d files, %s; %d steps of a %d-snapshot window from "
        "snapshot %d; fields sxx,syy + disp_mag push-down, verified reads, "
        "2 I/O threads",
        kMeshFactor, spec_.nz,
        static_cast<long long>(inputs_.nodes_per_snapshot), spec_.dt,
        spec_.num_snapshots, spec_.files_per_snapshot,
        godiva::FormatBytes(inputs_.dataset.total_bytes).c_str(), kSteps,
        kWindow, origins_.front());
  }

  // Recomputes one pushed-down block straight from the files: the
  // displacement magnitude of the first block of the first step.
  Status CheckReference(const RepResult&) override {
    // The repetition's PlatformRuntime installed its TimeScale in the env
    // and is gone now; read without modeled delays.
    inputs_.env->SetTimeScale(nullptr);
    const std::string path =
        inputs_.dataset.SnapshotFiles(origins_.front())[0];
    GODIVA_ASSIGN_OR_RETURN(
        std::unique_ptr<godiva::gsdf::Reader> reader,
        godiva::gsdf::Reader::Open(inputs_.env.get(), path));
    std::vector<std::vector<double>> components;
    for (const char* field : {"dispx", "dispy", "dispz"}) {
      const std::string name =
          godiva::mesh::BlockDatasetName(sample_block_, field);
      GODIVA_ASSIGN_OR_RETURN(const godiva::gsdf::DatasetInfo* info,
                              reader->Find(name));
      std::vector<double> values(static_cast<size_t>(info->nbytes / 8));
      GODIVA_RETURN_IF_ERROR(
          reader->ReadVerified(name, values.data(), info->nbytes));
      components.push_back(std::move(values));
    }
    const std::vector<double> expected =
        godiva::viz::Magnitude(components[0], components[1], components[2]);
    std::printf("reference push-down: block %d of snapshot %d, %zu values\n",
                sample_block_, origins_.front(), expected.size());
    if (expected.empty() || expected != sample_values_) {
      return godiva::InternalError(
          "pushed-down disp_mag differs from the magnitude of the stored "
          "displacement");
    }
    return Status::Ok();
  }

  Result<RepResult> RunOnce() override {
    RepResult rep;
    godiva::DiscreteEventScope scope;
    PlatformRuntime runtime(godiva::PlatformProfile::Engle(), 1.0,
                            inputs_.env.get(),
                            godiva::SimMode::kDiscreteEvent);
    ProbeEnv probe(inputs_.env.get());
    runtime.SetIoEnv(&probe);
    inputs_.env->ResetStats();
    std::atomic<int64_t> readfn_calls{0};
    std::atomic<int64_t> pushdown_values{0};
    godiva::viz::DerivedKernel kernel =
        godiva::viz::MagnitudeKernel("disp_mag", "disp");
    kernel.fn = [inner = kernel.fn, &pushdown_values](
                    const std::vector<std::span<const double>>& inputs) {
      trace::Span span("viz.pushdown");
      std::vector<double> values = inner(inputs);
      pushdown_values.fetch_add(static_cast<int64_t>(values.size()),
                                std::memory_order_relaxed);
      return values;
    };
    godiva::QueryPlanStats plan_total;

    rep.window_start_ns = trace::HostNowNs();
    const godiva::TimePoint virt_start = godiva::Now();
    {
      godiva::GboOptions options;
      options.io_threads = 2;
      options.memory_limit_bytes = int64_t{512} * 1024 * 1024;
      godiva::Gbo db(options);
      GODIVA_RETURN_IF_ERROR(godiva::workloads::DefineBlockSchema(&db));
      godiva::QueryPlanner planner(&db);
      godiva::workloads::SnapshotExtentsCache extents_cache;

      for (int step = 0; step < kSteps; ++step) {
        trace::SetRequest(step);
        ++rep.attempted;
        const int origin = origins_[static_cast<size_t>(step)];
        godiva::workloads::SnapshotQueryOptions query_options;
        query_options.fields = {"sxx", "syy"};
        query_options.kernels = {kernel};
        query_options.verify_checksums = true;
        // Merge only truly adjacent extents, as bench_query does: the byte
        // volume stays that of per-dataset reads while seeks collapse.
        query_options.limits.max_gap = 0;
        query_options.snapshot_begin = origin;
        query_options.snapshot_end = origin + kWindow;
        query_options.extents_cache = &extents_cache;

        std::unique_ptr<godiva::QueryTicket> ticket;
        {
          trace::Span span("core.query.plan");
          GODIVA_ASSIGN_OR_RETURN(
              godiva::GboQuery query,
              godiva::workloads::BuildSnapshotQuery(
                  &runtime, &inputs_.dataset, query_options));
          for (godiva::QueryUnitSpec& unit : query.units) {
            unit.read_fn = WrapReadFn(std::move(unit.read_fn), &readfn_calls,
                                      [step](const std::string&) {
                                        return int64_t{step};
                                      });
          }
          GODIVA_ASSIGN_OR_RETURN(ticket, planner.Submit(std::move(query)));
        }
        const godiva::TimePoint settle_start = godiva::Now();
        {
          trace::Span span("core.query.wait_all");
          GODIVA_RETURN_IF_ERROR(ticket->WaitAll());
        }
        const double settle_s =
            godiva::ToSeconds(godiva::Now() - settle_start);
        rep.visible_io_s += settle_s;
        rep.latency_ms.push_back(settle_s * 1e3);

        const godiva::QueryPlanStats plan = ticket->plan();
        plan_total.units_requested += plan.units_requested;
        plan_total.dedup_resident += plan.dedup_resident;
        plan_total.dedup_in_flight += plan.dedup_in_flight;
        plan_total.batches_issued += plan.batches_issued;
        plan_total.bytes_saved += plan.bytes_saved;

        int64_t derived = 0;
        for (godiva::DerivedResult& result : ticket->TakeDerived()) {
          derived += static_cast<int64_t>(result.values.size());
          if (step == 0 && result.unit ==
                               godiva::workloads::SnapshotFileUnitName(
                                   origin, 0) &&
              sample_values_.empty()) {
            sample_block_ = static_cast<int>(result.key);
            sample_values_ = std::move(result.values);
          }
        }
        if (derived != inputs_.nodes_per_snapshot * kWindow) {
          return godiva::InternalError(godiva::StrCat(
              "step ", step, ": ", derived, " derived values, expected ",
              inputs_.nodes_per_snapshot * kWindow));
        }
        {
          trace::Span span("core.query.finish");
          GODIVA_RETURN_IF_ERROR(ticket->FinishAll());
        }
        ticket.reset();
        // Drop the snapshots the next window no longer covers.
        std::set<int> next;
        if (step + 1 < kSteps) {
          const int next_origin = origins_[static_cast<size_t>(step) + 1];
          for (int s = next_origin; s < next_origin + kWindow; ++s) {
            next.insert(s);
          }
        }
        for (int s = origin; s < origin + kWindow; ++s) {
          if (next.count(s) != 0) continue;
          for (int f = 0; f < spec_.files_per_snapshot; ++f) {
            trace::Span span("core.gbo.delete_unit");
            GODIVA_RETURN_IF_ERROR(db.DeleteUnit(
                godiva::workloads::SnapshotFileUnitName(s, f)));
          }
        }
        ++rep.ops;
      }
      trace::SetRequest(-1);
      GODIVA_RETURN_IF_ERROR(db.CheckInvariants());
      if (db.memory_usage() != 0) {
        return godiva::InternalError(godiva::StrCat(
            "memory_usage() == ", db.memory_usage(), " after the walk"));
      }
      const godiva::GboStats stats = db.stats();
      rep.counts["core.gbo.evictions"] =
          static_cast<double>(stats.units_evicted);
      rep.counts["core.gbo.peak_mib"] =
          static_cast<double>(stats.peak_memory_bytes) / kMib;
    }
    rep.modeled_s = godiva::ToSeconds(godiva::Now() - virt_start);
    rep.window_end_ns = trace::HostNowNs();
    rep.host_s = static_cast<double>(rep.window_end_ns - rep.window_start_ns) /
                 1e9;
    rep.sched = scope.scheduler()->stats();

    GODIVA_RETURN_IF_ERROR(
        AddIoCounts(probe, inputs_.env->stats(), &rep.counts));
    rep.counts["core.gbo.readfn_calls"] =
        static_cast<double>(readfn_calls.load());
    rep.counts["core.query.units_requested"] =
        static_cast<double>(plan_total.units_requested);
    rep.counts["core.query.dedup_ratio"] =
        static_cast<double>(plan_total.dedup_resident +
                            plan_total.dedup_in_flight) /
        static_cast<double>(plan_total.units_requested);
    rep.counts["core.query.batches_issued"] =
        static_cast<double>(plan_total.batches_issued);
    rep.counts["core.query.bytes_saved_mib"] =
        static_cast<double>(plan_total.bytes_saved) / kMib;
    rep.counts["viz.pushdown_values"] =
        static_cast<double>(pushdown_values.load());
    return rep;
  }

 private:
  godiva::mesh::DatasetSpec spec_;
  DatasetInputs inputs_;
  std::vector<int> origins_;
  // One pushed-down block of the first step, for CheckReference.
  int sample_block_ = -1;
  std::vector<double> sample_values_;
};

}  // namespace

std::unique_ptr<Workload> MakeWindowQuery() {
  return std::make_unique<WindowQuery>();
}

}  // namespace perfbench
