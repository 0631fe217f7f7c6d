// live_serving: GboServer sessions of mixed priority under overload, next
// to a publisher that supersedes units the interactive session keeps
// reading — writes beside reads on one cache.
//
// The traffic is bench_serving's overload scenario (workloads::
// RunServingWorkload with bench_serving's MixedOptions and its 6 MiB
// limit), scaled from 16 clients to the four load-generating threads the
// benchmark allows: one client per priority class plus the publisher.
// Each client issues the reads of all of that class's clients in the
// source mix, and the server's dispatch window and interactive reserve
// shrink by the same factor of four. Every other parameter is the
// source's; perfbench/README.md lists each with its origin.
//
//   interactive — cycles over the 8 "hot/" units (cache hits once warm).
//   batch       — scans the 32 "warm/" units, arriving with the flood.
//   background  — streams the 256 "cold/" units with the flood,
//     prefetching two ahead; its working set is 2.7x the memory limit.
//   publisher   — supersedes a hot unit once per interactive lap.
//
// Under the discrete-event clock a cache hit and a refused read take no
// virtual time, so without pacing the interactive client would finish its
// hits before the flood arrives. Every client therefore thinks for about
// one read cost between requests; three such clients offer more demand
// than the dispatch window of two. No file is read and no kernel runs: a
// CRC or kernel change must leave this workload alone.
//
// The interactive client's reads are nearly all hits, so its median
// latency is 0. The latency samples are instead the served reads of every
// class that waited on the virtual clock: the ones that carry the misses.
//
// Every served payload is checked against the bytes workloads::
// ServingReadFn produces for its unit name; hot units carry their epoch in
// the first eight bytes, which must be at least the epoch the publisher
// had committed when the read began.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/strings.h"
#include "common/thread.h"
#include "core/key_util.h"
#include "core/options.h"
#include "core/record.h"
#include "core/server.h"
#include "core/session.h"
#include "workloads/serving.h"

namespace perfbench {
namespace {

using godiva::Duration;
using godiva::Result;
using godiva::Status;

constexpr int kKeyBytes = 32;  // workloads::EnsureServingSchema's key size
constexpr double kMib = 1024.0 * 1024.0;

// bench_serving's overload scenario (MixedOptions, default flags).
constexpr int64_t kPayloadBytes = 64 * 1024;
constexpr Duration kReadCost = std::chrono::microseconds(300);
constexpr Duration kFloodDelay = std::chrono::milliseconds(20);
constexpr int64_t kMemoryLimit = int64_t{6} * 1024 * 1024;
constexpr int kReadsPerSourceClient = 96;
constexpr int kPrefetchAhead = 2;
constexpr int kIoThreads = 2;
// ServingOptions' unit populations.
constexpr int kHotUnits = 8;
constexpr int kWarmUnits = 32;
constexpr int kColdUnits = 256;
// The source mix has 4 interactive, 4 batch and 8 background clients
// against a dispatch window of 8 with 2 slots reserved for interactive
// reads. One client per class here, so the window and the reserve are a
// quarter of the source's (the reserve rounded up to one slot).
constexpr int kSourceClients[] = {4, 4, 8};
constexpr int kDispatchWindow = 2;
constexpr int kInteractiveReserve = 1;
// The benchmark's own choices (see the file comment). Pacing: a think
// time uniform in [0.5, 1.5] read costs after every request, and one
// publish per interactive lap over the hot set. Seeded inputs: each unit's
// read cost is uniform within 10% of the source's, as the seed moves the
// mesh resolution and time base of the dataset workloads a little.
constexpr double kThinkMin = 0.5;
constexpr double kThinkMax = 1.5;
constexpr double kCostMin = 0.9;
constexpr double kCostMax = 1.1;
// Each repetition plays the scenario this many times, each round on a
// fresh cache with its own seeded traces: one round has too few misses
// for steady modeled figures across seeds.
constexpr int kRounds = 16;

// The three client populations, in session-open order.
enum Client { kInteractive = 0, kBatch = 1, kBackground = 2, kClients = 3 };
constexpr const char* kPrefix[kClients] = {"hot/", "warm/", "cold/"};
constexpr int kUnits[kClients] = {kHotUnits, kWarmUnits, kColdUnits};
constexpr godiva::PriorityClass kPriority[kClients] = {
    godiva::PriorityClass::kInteractive, godiva::PriorityClass::kBatch,
    godiva::PriorityClass::kBackground};

constexpr int Reads(Client client) {
  return kSourceClients[client] * kReadsPerSourceClient;
}
constexpr int kPublishes = Reads(kInteractive) / kHotUnits;

// `base` times a factor drawn uniformly from [lo, hi).
Duration Jitter(godiva::Random* rng, Duration base, double lo, double hi) {
  return std::chrono::duration_cast<Duration>(base *
                                              rng->NextDouble(lo, hi));
}

// The unit lines of a Gbo::DebugString that still hold records.
std::string ResidentUnits(const std::string& debug) {
  std::string out;
  size_t begin = 0;
  while (begin < debug.size()) {
    size_t end = debug.find('\n', begin);
    if (end == std::string::npos) end = debug.size();
    const std::string line = debug.substr(begin, end - begin);
    if (line.find(" records, ") != std::string::npos &&
        line.find(" 0 records, ") == std::string::npos) {
      out += line + "\n";
    }
    begin = end + 1;
  }
  return out;
}

// One unit: its name and the payload ServingReadFn wrote for it into the
// reference cache.
struct UnitSource {
  std::string name;
  const uint8_t* payload = nullptr;
  Duration cost{};  // modeled read cost
};

// One step of a client's (or the publisher's) precomputed trace.
struct Step {
  int unit = 0;     // index into the client's population
  Duration pause{};  // think time after the step (before it, for publishes)
};

class LiveServing final : public Workload {
 public:
  const char* name() const override { return "live_serving"; }

  // The set-up is the serving schema plus a warm-up that loads every unit
  // through ServingReadFn into a reference cache. It is short, so it runs
  // more often than the dataset workloads' set-up, for a steady median.
  int setup_runs() const override { return 15; }

  Status Setup(uint64_t seed) override {
    reference_.reset();
    reference_ = std::make_unique<godiva::Gbo>(
        godiva::GboOptions::SingleThread());
    GODIVA_RETURN_IF_ERROR(
        godiva::workloads::EnsureServingSchema(reference_.get()));
    const godiva::Gbo::ReadFn read_fn =
        godiva::workloads::ServingReadFn(kPayloadBytes, Duration::zero());
    godiva::Random rng(seed ^ 0x5E5510A5ULL);
    for (int c = 0; c < kClients; ++c) {
      sources_[c].clear();
      for (int u = 0; u < kUnits[c]; ++u) {
        UnitSource source;
        source.name = godiva::StrCat(kPrefix[c], "u", u);
        source.cost = Jitter(&rng, kReadCost, kCostMin, kCostMax);
        // The reference keeps its pin: the payload stays put until the
        // next Setup replaces the cache.
        GODIVA_RETURN_IF_ERROR(reference_->ReadUnit(source.name, read_fn));
        GODIVA_ASSIGN_OR_RETURN(
            void* buffer,
            reference_->GetFieldBuffer(
                "serving_chunk", "serving_payload",
                {godiva::PadKey(source.name, kKeyBytes)}));
        source.payload = static_cast<const uint8_t*>(buffer);
        sources_[c].push_back(std::move(source));
      }
    }
    // Clients read their population in order from a seeded start, as
    // RunServingWorkload's clients do, with seeded think times.
    for (Round& round : rounds_) {
      for (int c = 0; c < kClients; ++c) {
        std::vector<Step>& trace = round.traces[c];
        trace.clear();
        const int start = static_cast<int>(rng.NextBounded(kUnits[c]));
        for (int i = 0; i < Reads(static_cast<Client>(c)); ++i) {
          trace.push_back({(start + i) % kUnits[c],
                           Jitter(&rng, kReadCost, kThinkMin, kThinkMax)});
        }
      }
      round.publishes.clear();
      for (int k = 0; k < kPublishes; ++k) {
        round.publishes.push_back(
            {static_cast<int>(rng.NextBounded(kHotUnits)),
             Jitter(&rng, kReadCost * kHotUnits, kThinkMin, kThinkMax)});
      }
    }
    return Status::Ok();
  }

  std::string Describe() const override {
    return godiva::StrFormat(
        "bench_serving overload at one client per class, %d rounds: %d hot "
        "+ %d warm + %d cold units of %s (read cost %lld us +-10%%), memory "
        "limit %s, dispatch window %d (%d reserved for interactive), %d I/O "
        "threads; per round %d interactive + %d batch + %d background reads, "
        "flood after %lld ms, %d publishes",
        kRounds, kHotUnits, kWarmUnits, kColdUnits,
        godiva::FormatBytes(kPayloadBytes).c_str(),
        static_cast<long long>(
            std::chrono::duration_cast<std::chrono::microseconds>(kReadCost)
                .count()),
        godiva::FormatBytes(kMemoryLimit).c_str(), kDispatchWindow,
        kInteractiveReserve, kIoThreads, Reads(kInteractive), Reads(kBatch),
        Reads(kBackground),
        static_cast<long long>(
            std::chrono::duration_cast<std::chrono::milliseconds>(kFloodDelay)
                .count()),
        kPublishes);
  }

  Status CheckReference(const RepResult& first) override {
    // Every served payload was compared in RunOnce; here only the shape
    // of the run: interactive reads overlapped the flood, and the flood
    // was partly refused, so the shed ladder really engaged.
    const double overlapped =
        first.counts.at("live_serving.interactive_during_flood");
    if (first.latency_ms.empty() || first.refused == 0 || overlapped == 0) {
      return godiva::InternalError(godiva::StrCat(
          "live_serving ran without waiting reads (", first.latency_ms.size(),
          "), without overload (", first.refused,
          " refused) or without interactive reads during the flood (",
          overlapped, ")"));
    }
    return Status::Ok();
  }

  Result<RepResult> RunOnce() override {
    RepResult rep;
    godiva::DiscreteEventScope scope;
    Totals totals;
    rep.window_start_ns = trace::HostNowNs();
    for (const Round& round : rounds_) {
      GODIVA_RETURN_IF_ERROR(RunRound(round, &rep, &totals));
    }
    rep.sched = scope.scheduler()->stats();

    // Weighted service per class (served reads / DRR weight), slowest
    // over fastest.
    const godiva::ServerOptions weights;
    const double weight[kClients] = {
        static_cast<double>(weights.weight_interactive),
        static_cast<double>(weights.weight_batch),
        static_cast<double>(weights.weight_background)};
    double slowest = 0, fastest = 0;
    for (int c = 0; c < kClients; ++c) {
      const double share = static_cast<double>(totals.served[c]) / weight[c];
      slowest = c == 0 ? share : std::min(slowest, share);
      fastest = std::max(fastest, share);
      rep.counts[godiva::StrCat("live_serving.served.", kPrefix[c])] =
          static_cast<double>(totals.served[c]);
    }
    rep.counts["core.server.fair_share_ratio"] =
        fastest > 0 ? slowest / fastest : 0;
    rep.counts["core.gbo.cache_hit_ratio"] =
        rep.ops > 0 ? static_cast<double>(totals.cache_hits) /
                          static_cast<double>(rep.ops)
                    : 0;
    rep.counts["core.gbo.invalidations"] =
        static_cast<double>(totals.invalidations.load());
    rep.counts["core.gbo.readfn_calls"] =
        static_cast<double>(totals.readfn_calls.load());
    return rep;
  }

 private:
  // One round's precomputed traces: one per client, and the publisher's.
  struct Round {
    std::vector<Step> traces[kClients];
    std::vector<Step> publishes;
  };
  // What the rounds of one repetition add up to beyond RepResult.
  struct Totals {
    int64_t served[kClients] = {};
    int64_t cache_hits = 0;
    std::atomic<int64_t> readfn_calls{0};
    std::atomic<int64_t> invalidations{0};
  };
  struct ClientOutcome {
    int64_t attempted = 0;
    int64_t served = 0;
    int64_t refused = 0;
    int64_t failed = 0;
    int64_t during_flood = 0;  // reads issued after the flood arrived
    double blocked_s = 0;      // modeled time inside session Read
    std::vector<double> latency_ms;  // modeled latency of each served read
    Status error;  // first payload mismatch or unexpected failure
  };
  struct PublisherOutcome {
    int64_t accepted = 0;
    Status error;
  };

  // One scenario on a fresh Gbo and server: clients and publisher run to
  // the end of their traces (the measured phase), then teardown checks
  // that nothing leaked. Adds the measured phase to `rep` and `totals`.
  Status RunRound(const Round& round, RepResult* rep, Totals* totals) {
    for (int u = 0; u < kHotUnits; ++u) {
      announced_[u].store(0);
      committed_[u].store(0);
    }
    ClientOutcome outcome[kClients];
    PublisherOutcome published;
    // Teardown is no layer's work; its span keeps it out of the
    // unattributed host time of the traced run.
    std::optional<trace::Span> teardown;

    const int64_t host_start = trace::HostNowNs();
    const godiva::TimePoint virt_start = godiva::Now();
    const godiva::TimePoint flood_start = virt_start + kFloodDelay;
    godiva::GboOptions options;
    options.io_threads = kIoThreads;
    options.memory_limit_bytes = kMemoryLimit;
    godiva::Gbo db(options);
    GODIVA_RETURN_IF_ERROR(godiva::workloads::EnsureServingSchema(&db));
    std::atomic<int64_t>* invalidations = &totals->invalidations;
    const int64_t watch = db.RegisterWatch(
        "hot/*", [invalidations](const godiva::Gbo::WatchEvent& e) {
          if (e.kind == godiva::Gbo::WatchEventKind::kInvalidated) {
            invalidations->fetch_add(1, std::memory_order_relaxed);
          }
        });
    godiva::ServerOptions server_options;
    server_options.max_inflight_demand = kDispatchWindow;
    server_options.demand_reserve_interactive = kInteractiveReserve;
    godiva::SessionStats stats[kClients];
    godiva::GboStats gbo;
    {
      godiva::GboServer server(&db, server_options);
      std::vector<std::unique_ptr<godiva::GboSession>> sessions;
      for (int c = 0; c < kClients; ++c) {
        godiva::SessionConfig config;
        config.name = godiva::StrCat(kPrefix[c], "client");
        config.priority = kPriority[c];
        config.unit_namespace = kPrefix[c];
        GODIVA_ASSIGN_OR_RETURN(std::unique_ptr<godiva::GboSession> session,
                                server.OpenSession(config));
        sessions.push_back(std::move(session));
      }
      {
        std::vector<godiva::Thread> threads;
        for (int c = 0; c < kClients; ++c) {
          threads.emplace_back([&, c] {
            RunClient(static_cast<Client>(c), round.traces[c], flood_start,
                      &db, sessions[c].get(), &totals->readfn_calls,
                      &outcome[c]);
          });
        }
        threads.emplace_back([&] {
          RunPublisher(round.publishes, &db, &totals->readfn_calls,
                       &published);
        });
        for (godiva::Thread& thread : threads) thread.join();
      }
      // The measured phase ends with the last load-generating thread.
      rep->modeled_s += godiva::ToSeconds(godiva::Now() - virt_start);
      rep->window_end_ns = trace::HostNowNs();
      rep->host_s +=
          static_cast<double>(rep->window_end_ns - host_start) / 1e9;
      for (int c = 0; c < kClients; ++c) stats[c] = sessions[c]->stats();
      gbo = db.stats();
      teardown.emplace("live_serving.teardown");
      sessions.clear();
    }
    // Let every load the server or the publisher started settle. A
    // published unit nobody read since is waiting for its consumer (a
    // publish of an absent unit is an AddUnit), so consume each resident
    // hot unit once; then drop all unpinned data. Whatever stays resident
    // is a pin that leaked.
    godiva::SleepFor(std::chrono::milliseconds(50));
    GODIVA_RETURN_IF_ERROR(db.UnregisterWatch(watch));
    for (const UnitSource& source : sources_[kInteractive]) {
      godiva::Result<godiva::UnitState> state = db.GetUnitState(source.name);
      if (!state.ok() || *state != godiva::UnitState::kReady) continue;
      GODIVA_RETURN_IF_ERROR(db.WaitUnit(source.name));
      GODIVA_RETURN_IF_ERROR(db.FinishUnit(source.name));
    }
    GODIVA_RETURN_IF_ERROR(db.SetMemSpace(0));
    if (db.memory_usage() != 0) {
      return godiva::InternalError(
          godiva::StrCat("memory_usage() == ", db.memory_usage(),
                         " after teardown; still resident:\n",
                         ResidentUnits(db.DebugString())));
    }
    GODIVA_RETURN_IF_ERROR(db.CheckInvariants());

    for (const godiva::SessionStats& s : stats) {
      rep->counts["core.server.admitted"] +=
          static_cast<double>(s.reads_admitted);
      rep->counts["core.server.queued"] += static_cast<double>(s.reads_queued);
      rep->counts["core.server.rejected"] +=
          static_cast<double>(s.reads_rejected + s.quota_rejections);
      rep->counts["core.server.shed"] +=
          static_cast<double>(s.prefetches_shed + s.demand_shed);
      rep->counts["core.server.forced_unpins"] +=
          static_cast<double>(s.forced_unpins);
    }
    rep->counts["core.gbo.evictions"] += static_cast<double>(gbo.units_evicted);
    double& peak_mib = rep->counts["core.gbo.peak_mib"];
    peak_mib = std::max(peak_mib,
                        static_cast<double>(gbo.peak_memory_bytes) / kMib);
    totals->cache_hits += gbo.unit_cache_hits;

    for (int c = 0; c < kClients; ++c) {
      const ClientOutcome& o = outcome[c];
      if (!o.error.ok()) return o.error;
      rep->attempted += o.attempted;
      rep->ops += o.served;
      rep->refused += o.refused;
      rep->failed += o.failed;
      rep->visible_io_s += o.blocked_s;
      // The served reads that waited on the virtual clock, of every class:
      // misses, reloads after a publish and queued grants. A hit and a
      // refusal take no virtual time.
      for (double ms : o.latency_ms) {
        if (ms > 0) rep->latency_ms.push_back(ms);
      }
      totals->served[c] += o.served;
    }
    if (!published.error.ok()) return published.error;
    rep->counts["core.gbo.publishes"] +=
        static_cast<double>(published.accepted);
    rep->counts["live_serving.interactive_during_flood"] +=
        static_cast<double>(outcome[kInteractive].during_flood);
    return Status::Ok();
  }

  // The read function of hot unit `index`: its ServingReadFn payload with
  // the currently announced epoch in the first eight bytes, after the same
  // modeled read cost.
  godiva::Gbo::ReadFn HotReadFn(int index) {
    return [this, index](godiva::Gbo* db, const std::string& unit) -> Status {
      godiva::SleepFor(sources_[kInteractive][index].cost);
      GODIVA_ASSIGN_OR_RETURN(godiva::Record * record,
                              db->NewRecord("serving_chunk"));
      std::memcpy(*record->FieldBuffer("serving_key"),
                  godiva::PadKey(unit, kKeyBytes).data(), kKeyBytes);
      GODIVA_ASSIGN_OR_RETURN(
          void* payload,
          db->AllocFieldBuffer(record, "serving_payload", kPayloadBytes));
      std::memcpy(payload, sources_[kInteractive][index].payload,
                  kPayloadBytes);
      const int64_t epoch = announced_[index].load();
      std::memcpy(payload, &epoch, sizeof(epoch));
      return db->CommitRecord(record);
    };
  }

  godiva::Gbo::ReadFn ReadFnFor(Client client, int index,
                                std::atomic<int64_t>* calls) {
    godiva::Gbo::ReadFn inner =
        client == kInteractive
            ? HotReadFn(index)
            : godiva::workloads::ServingReadFn(kPayloadBytes,
                                               sources_[client][index].cost);
    return WrapReadFn(std::move(inner), calls, nullptr);
  }

  // Compares a served (pinned) unit against its reference payload.
  Status Verify(godiva::Gbo* db, Client client, int index,
                int64_t min_epoch) {
    const UnitSource& source = sources_[client][index];
    const std::vector<std::string> key = {
        godiva::PadKey(source.name, kKeyBytes)};
    void* buffer = nullptr;
    int64_t size = 0;
    {
      trace::Span span("core.gbo.lookup");
      GODIVA_ASSIGN_OR_RETURN(
          buffer, db->GetFieldBuffer("serving_chunk", "serving_payload", key));
      GODIVA_ASSIGN_OR_RETURN(
          size,
          db->GetFieldBufferSize("serving_chunk", "serving_payload", key));
    }
    const auto* bytes = static_cast<const uint8_t*>(buffer);
    const size_t skip = client == kInteractive ? sizeof(int64_t) : 0;
    if (size != kPayloadBytes ||
        std::memcmp(bytes + skip, source.payload + skip,
                    kPayloadBytes - skip) != 0) {
      return godiva::DataLossError(
          godiva::StrCat("served payload of ", source.name,
                         " differs from its ServingReadFn pattern"));
    }
    if (client == kInteractive) {
      int64_t epoch = 0;
      std::memcpy(&epoch, bytes, sizeof(epoch));
      if (epoch < min_epoch || epoch > announced_[index].load()) {
        return godiva::DataLossError(godiva::StrCat(
            "served epoch ", epoch, " of ", source.name,
            " is not the newest published (committed ", min_epoch, ")"));
      }
    }
    return Status::Ok();
  }

  // RunServingWorkload's client loop, with a think time after every
  // request.
  void RunClient(Client client, const std::vector<Step>& trace,
                 godiva::TimePoint flood_start, godiva::Gbo* db,
                 godiva::GboSession* session, std::atomic<int64_t>* calls,
                 ClientOutcome* out) {
    if (client != kInteractive) godiva::SleepFor(kFloodDelay);
    for (size_t i = 0; i < trace.size(); ++i) {
      trace::SetRequest(static_cast<int64_t>(client) << 32 |
                        static_cast<int64_t>(i));
      const int index = trace[i].unit;
      const std::string& unit = sources_[client][index].name;
      if (client == kBackground) {
        for (int ahead = 1; ahead <= kPrefetchAhead; ++ahead) {
          const int next = (index + ahead) % kUnits[client];
          trace::Span span("core.server.prefetch");
          // A refused prefetch is shed work, counted in SessionStats.
          (void)session->Prefetch(sources_[client][next].name,
                                  ReadFnFor(client, next, calls));
        }
      }
      const int64_t min_epoch =
          client == kInteractive ? committed_[index].load() : 0;
      ++out->attempted;
      const godiva::TimePoint start = godiva::Now();
      if (start >= flood_start) ++out->during_flood;
      Status read;
      {
        trace::Span span("core.server.read");
        read = session->Read(unit, ReadFnFor(client, index, calls));
      }
      const double blocked_s = godiva::ToSeconds(godiva::Now() - start);
      out->blocked_s += blocked_s;
      if (read.ok()) {
        ++out->served;
        out->latency_ms.push_back(blocked_s * 1e3);
        Status verified = Verify(db, client, index, min_epoch);
        {
          trace::Span span("core.server.finish");
          Status finished = session->Finish(unit);
          if (verified.ok()) verified = finished;
        }
        if (!verified.ok()) {
          if (out->error.ok()) out->error = verified;
          ++out->failed;
        }
      } else if (read.code() == godiva::StatusCode::kResourceExhausted) {
        ++out->refused;
      } else {
        ++out->failed;
        if (out->error.ok()) out->error = read;
      }
      godiva::SleepFor(trace[i].pause);
    }
    trace::SetRequest(-1);
  }

  void RunPublisher(const std::vector<Step>& publishes, godiva::Gbo* db,
                    std::atomic<int64_t>* calls, PublisherOutcome* out) {
    for (const Step& publish : publishes) {
      godiva::SleepFor(publish.pause);
      const int index = publish.unit;
      const int64_t epoch = announced_[index].load() + 1;
      announced_[index].store(epoch);
      Status status;
      {
        trace::Span span("core.gbo.supersede");
        status = db->SupersedeUnit(sources_[kInteractive][index].name,
                                   WrapReadFn(HotReadFn(index), calls,
                                              nullptr));
      }
      if (!status.ok()) {
        out->error = status;
        return;
      }
      committed_[index].store(epoch);
      ++out->accepted;
    }
  }

  // Holds the reference payload of every unit (see Setup).
  std::unique_ptr<godiva::Gbo> reference_;
  std::vector<UnitSource> sources_[kClients];
  Round rounds_[kRounds];
  // Per hot unit: the newest epoch the publisher announced (what a load
  // reads) and the newest whose SupersedeUnit returned (what every later
  // read must see at least).
  std::atomic<int64_t> announced_[kHotUnits];
  std::atomic<int64_t> committed_[kHotUnits];
};

}  // namespace

std::unique_ptr<Workload> MakeLiveServing() {
  return std::make_unique<LiveServing>();
}

}  // namespace perfbench
