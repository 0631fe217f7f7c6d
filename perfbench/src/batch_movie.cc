// batch_movie: the paper's TG Voyager sweep (§4.2) — Engle profile, one
// background I/O thread, the "medium" test (the largest input volume),
// checksummed snapshot files read with verification, and real feature
// extraction on every block. The loop is Voyager's G/TG loop, written out
// here so each call into a layer can be timed from outside: AddUnit every
// snapshot up front, then per snapshot WaitUnit, key lookups to build the
// block views, ProcessPass per render pass plus its modeled compute
// charge, and DeleteUnit.
//
// The loop mirrors workloads::RunGodiva and BuildSnapshotViews in
// src/workloads/voyager.cc and must change with them. The figures are this
// copy's: a host-side change made only to RunGodiva does not show here. The
// reference check against workloads::RunVoyager (triangles, tets, device
// reads, modeled total) fails the run when the two loops drift apart.
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/clock.h"
#include "common/strings.h"
#include "core/options.h"
#include "core/record.h"
#include "sim/platform.h"
#include "workloads/block_schema.h"
#include "workloads/platform_runtime.h"
#include "workloads/processing.h"
#include "workloads/snapshot_io.h"
#include "workloads/test_spec.h"
#include "workloads/voyager.h"

namespace perfbench {
namespace {

using godiva::Result;
using godiva::Status;
using godiva::workloads::BlockView;
using godiva::workloads::PlatformRuntime;

constexpr int kSnapshots = 16;
constexpr double kMib = 1024.0 * 1024.0;

int64_t SnapshotRequest(const std::string& unit_name) {
  return godiva::workloads::SnapshotOfUnit(unit_name);
}

// Voyager's render views over the GODIVA field buffers, one key lookup
// per block.
Result<std::vector<BlockView>> BuildViews(
    godiva::Gbo* db, const godiva::mesh::SnapshotDataset& dataset,
    int snapshot, const std::vector<std::string>& quantities) {
  using namespace godiva::workloads;
  std::vector<BlockView> views;
  views.reserve(static_cast<size_t>(dataset.spec.num_blocks));
  for (int32_t block_id = 0; block_id < dataset.spec.num_blocks;
       ++block_id) {
    godiva::Record* record = nullptr;
    {
      trace::Span span("core.gbo.lookup");
      GODIVA_ASSIGN_OR_RETURN(record,
                              db->FindRecord(kBlockRecordType,
                                             BlockKey(block_id, snapshot)));
    }
    auto doubles = [&](const std::string& field)
        -> Result<std::span<const double>> {
      GODIVA_ASSIGN_OR_RETURN(void* buffer, record->FieldBuffer(field));
      GODIVA_ASSIGN_OR_RETURN(int64_t size, record->FieldBufferSize(field));
      return std::span<const double>(static_cast<const double*>(buffer),
                                     static_cast<size_t>(size / 8));
    };
    BlockView view;
    view.block_id = block_id;
    GODIVA_ASSIGN_OR_RETURN(std::span<const double> x, doubles(kFieldX));
    GODIVA_ASSIGN_OR_RETURN(std::span<const double> y, doubles(kFieldY));
    GODIVA_ASSIGN_OR_RETURN(std::span<const double> z, doubles(kFieldZ));
    GODIVA_ASSIGN_OR_RETURN(void* conn, record->FieldBuffer(kFieldConn));
    GODIVA_ASSIGN_OR_RETURN(int64_t conn_size,
                            record->FieldBufferSize(kFieldConn));
    view.geometry = godiva::viz::BlockGeometry{
        x, y, z,
        std::span<const int32_t>(static_cast<const int32_t*>(conn),
                                 static_cast<size_t>(conn_size / 4))};
    for (const std::string& quantity : quantities) {
      GODIVA_ASSIGN_OR_RETURN(view.fields[quantity], doubles(quantity));
    }
    views.push_back(std::move(view));
  }
  return views;
}

class BatchMovie final : public Workload {
 public:
  const char* name() const override { return "batch_movie"; }

  Status Setup(uint64_t seed) override {
    inputs_ = DatasetInputs();  // free the previous copy first
    spec_ = SeededTitanIV(seed, kSnapshots);
    GODIVA_ASSIGN_OR_RETURN(inputs_, WriteDataset(spec_));
    return Status::Ok();
  }

  std::string Describe() const override {
    return godiva::StrFormat(
        "TitanIV mesh nz=%d (%lld stored nodes/snapshot), dt=%.6g, %d "
        "snapshots x %d files, %s, test=medium, profile=engle, TG with 1 "
        "I/O thread, verified reads, extraction on every block",
        spec_.nz, static_cast<long long>(inputs_.nodes_per_snapshot),
        spec_.dt, spec_.num_snapshots, spec_.files_per_snapshot,
        godiva::FormatBytes(inputs_.dataset.total_bytes).c_str());
  }

  // The same sweep through workloads::RunVoyager must produce the same
  // geometry, the same device reads and the same modeled running time.
  Status CheckReference(const RepResult& mine) override {
    godiva::workloads::CellResult reference;
    {
      godiva::DiscreteEventScope scope;
      PlatformRuntime runtime(godiva::PlatformProfile::Engle(), 1.0,
                              inputs_.env.get(),
                              godiva::SimMode::kDiscreteEvent);
      GODIVA_ASSIGN_OR_RETURN(reference,
                              godiva::workloads::RunVoyager(&runtime,
                                                            Config()));
    }
    const double triangles = mine.counts.at("viz.triangles");
    const double tets = mine.counts.at("viz.tets_visited");
    const double reads = mine.counts.at("sim.disk.reads");
    std::printf(
        "reference RunVoyager: triangles %lld/%lld tets %lld/%lld device "
        "reads %lld/%lld modeled %.6f/%.6f s\n",
        static_cast<long long>(triangles),
        static_cast<long long>(reference.triangles),
        static_cast<long long>(tets),
        static_cast<long long>(reference.tets_visited),
        static_cast<long long>(reads),
        static_cast<long long>(reference.reads), mine.modeled_s,
        reference.total_seconds);
    if (triangles != static_cast<double>(reference.triangles) ||
        tets != static_cast<double>(reference.tets_visited) ||
        reads != static_cast<double>(reference.reads) ||
        mine.modeled_s != reference.total_seconds || triangles <= 0) {
      return godiva::InternalError(
          "batch_movie disagrees with workloads::RunVoyager");
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
    const godiva::workloads::RunConfig config = Config();
    std::atomic<int64_t> readfn_calls{0};
    int64_t triangles = 0;
    int64_t tets = 0;

    rep.window_start_ns = trace::HostNowNs();
    const godiva::TimePoint virt_start = godiva::Now();
    {
      godiva::GboOptions options;
      options.background_io = true;
      options.io_threads = config.io_threads;
      options.memory_limit_bytes = config.godiva_memory_bytes;
      godiva::Gbo db(options);
      GODIVA_RETURN_IF_ERROR(godiva::workloads::DefineBlockSchema(&db));
      const std::vector<std::string> quantities =
          config.test.AllQuantities();
      godiva::Gbo::ReadFn read_fn = WrapReadFn(
          godiva::workloads::MakeSnapshotReadFn(
              &runtime, &inputs_.dataset, quantities,
              {.verify_checksums = config.verify_checksums}),
          &readfn_calls, &SnapshotRequest);
      for (int s = 0; s < spec_.num_snapshots; ++s) {
        trace::Span span("core.gbo.add_unit");
        GODIVA_RETURN_IF_ERROR(
            db.AddUnit(godiva::workloads::SnapshotUnitName(s), read_fn,
                       inputs_.dataset.SnapshotFiles(s)));
      }
      for (int s = 0; s < spec_.num_snapshots; ++s) {
        trace::SetRequest(s);
        const std::string unit = godiva::workloads::SnapshotUnitName(s);
        ++rep.attempted;
        // One latency sample per rendered image (render pass): from the
        // start of the snapshot's wait, or the end of the previous pass,
        // to the end of the pass's modeled compute.
        godiva::TimePoint image_start = godiva::Now();
        {
          trace::Span span("core.gbo.wait");
          GODIVA_RETURN_IF_ERROR(db.WaitUnit(unit));
        }
        rep.visible_io_s += godiva::ToSeconds(godiva::Now() - image_start);
        GODIVA_ASSIGN_OR_RETURN(
            std::vector<BlockView> views,
            BuildViews(&db, inputs_.dataset, s, quantities));
        for (const godiva::workloads::RenderPass& pass : config.test.passes) {
          godiva::workloads::PassResult pass_result;
          {
            trace::Span span("viz.process");
            GODIVA_ASSIGN_OR_RETURN(
                pass_result,
                godiva::workloads::ProcessPass(pass, views, config.process));
          }
          {
            trace::Span span("sim.cpu.compute");
            runtime.ChargeCompute(
                config.test.compute_seconds_per_mib *
                static_cast<double>(pass_result.bytes_processed) / kMib);
          }
          triangles += pass_result.triangles;
          tets += pass_result.tets_visited;
          const godiva::TimePoint image_end = godiva::Now();
          rep.latency_ms.push_back(
              godiva::ToSeconds(image_end - image_start) * 1e3);
          image_start = image_end;
        }
        {
          trace::Span span("core.gbo.delete_unit");
          GODIVA_RETURN_IF_ERROR(db.DeleteUnit(unit));
        }
        ++rep.ops;
      }
      trace::SetRequest(-1);
      GODIVA_RETURN_IF_ERROR(db.CheckInvariants());
      if (db.memory_usage() != 0) {
        return godiva::InternalError(godiva::StrCat(
            "memory_usage() == ", db.memory_usage(), " after the sweep"));
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
    rep.counts["viz.triangles"] = static_cast<double>(triangles);
    rep.counts["viz.tets_visited"] = static_cast<double>(tets);
    return rep;
  }

 private:
  godiva::workloads::RunConfig Config() const {
    godiva::workloads::RunConfig config;
    config.dataset = &inputs_.dataset;
    config.test = godiva::workloads::VizTestSpec::Medium();
    config.variant = godiva::workloads::Variant::kGodivaMultiThread;
    config.io_threads = 1;
    config.verify_checksums = true;
    config.process.real_work_stride = 1;
    return config;
  }

  godiva::mesh::DatasetSpec spec_;
  DatasetInputs inputs_;
};

}  // namespace

std::unique_ptr<Workload> MakeBatchMovie() {
  return std::make_unique<BatchMovie>();
}

}  // namespace perfbench
