// Multi-client concurrency benchmark for the sharded Gbo metadata path
// (DESIGN.md §10): M client threads hammer key lookups and unit cache hits
// over a fully warm database, with the metadata striped across 1 vs 8
// shards. The headline scaling ratios divide the 1-shard wall time by the
// 8-shard wall time at M threads — on a multi-core machine the 8-shard
// configuration should win by ≥3× at 8 threads; on a single core the
// ratio is ~1 (there is no parallelism to unlock, only unchanged
// single-stream cost, which the *_t1_* metrics pin down).
//
// Command line (bench_util.h): --quick, --json=PATH. M = 8 client threads
// at both sizes; the full size warms 4096 records and runs 200,000 lookups
// per thread per phase, --quick 1024 records and 100,000 lookups.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/types.h"
#include "core/gbo.h"
#include "core/key_util.h"
#include "core/options.h"
#include "core/record.h"

namespace godiva::bench {
namespace {

constexpr int kUnits = 64;
constexpr int64_t kPayloadBytes = 64;

constexpr int kThreads = 8;  // client threads of the contended phases

// Keyed records in the warm database, and lookups per thread per phase.
struct Size {
  int records;
  int ops;
};
constexpr Size kFullSize{4096, 200000};
constexpr Size kQuickSize{1024, 100000};

std::string UnitName(int i) { return "u" + std::to_string(i); }

// Deterministic per-thread generator — cheap enough that the benchmark
// measures the database, not the RNG.
struct XorShift {
  uint64_t state;
  explicit XorShift(uint64_t seed) : state(seed * 0x9e3779b97f4a7c15ULL | 1) {}
  uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

// Builds a warm database: kUnits units, each read function committing its
// slice of `records` int64-keyed records. Every unit ends Ready and
// finished, so the hit phase exercises the pin/unpin LRU path.
Status Populate(Gbo* db, int records) {
  GODIVA_RETURN_IF_ERROR(db->DefineField("key", DataType::kInt64, 8));
  GODIVA_RETURN_IF_ERROR(
      db->DefineField("val", DataType::kFloat64, kUnknownSize));
  GODIVA_RETURN_IF_ERROR(db->DefineRecord("point", 1));
  GODIVA_RETURN_IF_ERROR(db->InsertField("point", "key", true));
  GODIVA_RETURN_IF_ERROR(db->InsertField("point", "val", false));
  GODIVA_RETURN_IF_ERROR(db->CommitRecordType("point"));

  int per_unit = (records + kUnits - 1) / kUnits;
  for (int u = 0; u < kUnits; ++u) {
    int64_t first = static_cast<int64_t>(u) * per_unit;
    int64_t last = std::min<int64_t>(first + per_unit, records);
    auto read_fn = [first, last](Gbo* gbo, const std::string&) -> Status {
      for (int64_t k = first; k < last; ++k) {
        GODIVA_ASSIGN_OR_RETURN(Record * rec, gbo->NewRecord("point"));
        std::memcpy(*rec->FieldBuffer("key"), &k, sizeof(k));
        GODIVA_ASSIGN_OR_RETURN(
            void* val, gbo->AllocFieldBuffer(rec, "val", kPayloadBytes));
        static_cast<double*>(val)[0] = static_cast<double>(k);
        GODIVA_RETURN_IF_ERROR(gbo->CommitRecord(rec));
      }
      return Status::Ok();
    };
    GODIVA_RETURN_IF_ERROR(db->ReadUnit(UnitName(u), read_fn));
    GODIVA_RETURN_IF_ERROR(db->FinishUnit(UnitName(u)));
  }
  return Status::Ok();
}

// Runs `threads` copies of `body(thread_index)` and returns the wall time
// of the whole fan-out in seconds.
template <typename Body>
double TimedFanOut(int threads, const Body& body) {
  Stopwatch stopwatch;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&body, t] { body(t); });
  }
  for (std::thread& worker : workers) worker.join();
  return stopwatch.ElapsedSeconds();
}

// Phase 1/2: key lookups. `zipf_cdf` empty = uniform random keys;
// otherwise keys are drawn from the precomputed zipfian CDF (a handful of
// hot keys absorb most lookups — the worst case for a striped index,
// since the hot keys' shards stay contended).
double LookupPhase(Gbo* db, int threads, int ops, int records,
                   const std::vector<double>& zipf_cdf,
                   std::atomic<int64_t>* errors) {
  return TimedFanOut(threads, [&](int t) {
    XorShift rng(static_cast<uint64_t>(t) + 1);
    for (int i = 0; i < ops; ++i) {
      int64_t key;
      if (zipf_cdf.empty()) {
        key = static_cast<int64_t>(rng.Next() % static_cast<uint64_t>(records));
      } else {
        double u = static_cast<double>(rng.Next() >> 11) * 0x1p-53;
        key = static_cast<int64_t>(
            std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
            zipf_cdf.begin());
        if (key >= records) key = records - 1;
      }
      auto buffer = db->GetFieldBuffer("point", "val", {KeyBytes(key)});
      if (!buffer.ok() ||
          static_cast<double*>(*buffer)[0] != static_cast<double>(key)) {
        errors->fetch_add(1);
      }
    }
  });
}

// Phase 3: unit cache hits — WaitUnit (pin) + FinishUnit (unpin) cycles
// against resident units: the per-shard LRU touch path.
double HitPhase(Gbo* db, int threads, int ops,
                std::atomic<int64_t>* errors) {
  return TimedFanOut(threads, [&](int t) {
    XorShift rng(static_cast<uint64_t>(t) + 101);
    for (int i = 0; i < ops; ++i) {
      std::string name =
          UnitName(static_cast<int>(rng.Next() % kUnits));
      if (!db->WaitUnit(name).ok() || !db->FinishUnit(name).ok()) {
        errors->fetch_add(1);
      }
    }
  });
}

struct ShardResult {
  double lookup_t1_s = 0;  // 1 thread, uniform keys
  double lookup_tm_s = 0;  // M threads, uniform keys
  double zipf_tm_s = 0;    // M threads, zipfian keys
  double hit_tm_s = 0;     // M threads, WaitUnit/FinishUnit cycles
};

ShardResult RunConfiguration(const Size& size, int shards,
                             const std::vector<double>& zipf_cdf) {
  GboOptions options = GboOptions::SingleThread();
  options.metadata_shards = shards;
  Gbo db(options);
  Status populated = Populate(&db, size.records);
  if (!populated.ok()) {
    std::fprintf(stderr, "populate failed: %s\n",
                 populated.ToString().c_str());
    std::exit(1);
  }

  std::atomic<int64_t> errors{0};
  ShardResult result;
  // Audits walk every record, so the hit phase (which runs them in debug
  // builds) uses a reduced op count to stay bounded there.
  int hit_ops = std::max(1000, size.ops / 100);
  result.lookup_t1_s =
      LookupPhase(&db, 1, size.ops, size.records, {}, &errors);
  result.lookup_tm_s =
      LookupPhase(&db, kThreads, size.ops, size.records, {}, &errors);
  result.zipf_tm_s =
      LookupPhase(&db, kThreads, size.ops, size.records, zipf_cdf, &errors);
  result.hit_tm_s = HitPhase(&db, kThreads, hit_ops, &errors);
  if (errors.load() != 0) {
    std::fprintf(stderr, "%lld lookup/hit errors with %d shards\n",
                 static_cast<long long>(errors.load()), shards);
    std::exit(1);
  }
  Status audit = db.CheckInvariants();
  if (!audit.ok()) {
    std::fprintf(stderr, "audit failed: %s\n", audit.ToString().c_str());
    std::exit(1);
  }

  auto mops = [&](double seconds, int threads, int ops) {
    return seconds > 0
               ? static_cast<double>(threads) * ops / seconds / 1e6
               : 0.0;
  };
  std::printf(
      "shards=%d: lookup t1 %.3fs (%.2f Mops/s), t%d %.3fs (%.2f Mops/s), "
      "zipf t%d %.3fs (%.2f Mops/s), hit t%d %.3fs (%.2f Mops/s)\n",
      shards, result.lookup_t1_s, mops(result.lookup_t1_s, 1, size.ops),
      kThreads, result.lookup_tm_s,
      mops(result.lookup_tm_s, kThreads, size.ops), kThreads,
      result.zipf_tm_s, mops(result.zipf_tm_s, kThreads, size.ops),
      kThreads, result.hit_tm_s, mops(result.hit_tm_s, kThreads, hit_ops));
  return result;
}

int Run(int argc, char** argv) {
  const CommandLine line =
      CommandLine::Parse(argc, argv, /*writes_json=*/true);
  const Size size = line.quick ? kQuickSize : kFullSize;
  std::printf("bench_concurrency: %d records over %d units, %d threads, "
              "%d ops/thread/phase, %u hardware threads\n",
              size.records, kUnits, kThreads, size.ops,
              std::thread::hardware_concurrency());

  // Zipfian CDF, exponent 1.2 over record ranks (rank r gets weight
  // 1/(r+1)^1.2): a realistic hot-key skew for view-dependent lookups.
  std::vector<double> zipf_cdf(static_cast<size_t>(size.records));
  double total = 0;
  for (int r = 0; r < size.records; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r) + 1.0, 1.2);
    zipf_cdf[static_cast<size_t>(r)] = total;
  }
  for (double& value : zipf_cdf) value /= total;

  std::map<int, ShardResult> results;
  for (int shards : {1, 8}) {
    results[shards] = RunConfiguration(size, shards, zipf_cdf);
  }

  BenchJson json("bench_concurrency");
  std::string tm = "t" + std::to_string(kThreads);
  for (const auto& [shards, result] : results) {
    std::string suffix = "_s" + std::to_string(shards) + "_total_s";
    json.Add("lookup_t1" + suffix, result.lookup_t1_s);
    json.Add("lookup_" + tm + suffix, result.lookup_tm_s);
    json.Add("zipf_" + tm + suffix, result.zipf_tm_s);
    json.Add("hit_" + tm + suffix, result.hit_tm_s);
  }
  // Wall-time ratios (1 shard ÷ 8 shards at M threads): > 1 means the
  // striped locks win. "ratio" in the name flips bench_diff to
  // higher-is-better. Target on an ≥8-core machine: ≥ 3.
  auto ratio = [](double base, double sharded) {
    return sharded > 0 ? base / sharded : 0.0;
  };
  double lookup_ratio = ratio(results[1].lookup_tm_s, results[8].lookup_tm_s);
  double zipf_ratio = ratio(results[1].zipf_tm_s, results[8].zipf_tm_s);
  double hit_ratio = ratio(results[1].hit_tm_s, results[8].hit_tm_s);
  json.Add("lookup_scaling_ratio_s8_over_s1_" + tm, lookup_ratio);
  json.Add("zipf_scaling_ratio_s8_over_s1_" + tm, zipf_ratio);
  json.Add("hit_scaling_ratio_s8_over_s1_" + tm, hit_ratio);
  std::printf(
      "scaling at %d threads (1-shard time / 8-shard time): "
      "lookup %.2fx, zipf %.2fx, hit %.2fx\n",
      kThreads, lookup_ratio, zipf_ratio, hit_ratio);
  if (!json.WriteTo(line.json_path)) return 1;
  return 0;
}

}  // namespace
}  // namespace godiva::bench

int main(int argc, char** argv) { return godiva::bench::Run(argc, argv); }
