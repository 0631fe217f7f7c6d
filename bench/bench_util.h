// Shared helpers for the benchmark harnesses: the one command line,
// experiment construction, latency percentiles and the JSON writer.
//
// Every harness with a command line runs at one of two sizes, named as
// constants in its own file: its full size and the --quick size CI runs.
// It takes exactly:
//   --quick       run the --quick size instead of the full one
//   --json=PATH   also write the headline metrics as JSON (for
//                 tools/bench_diff); only harnesses that write JSON
//                 accept it
// Anything else exits 2 with "unknown flag". The eight paper harnesses
// parse it through BenchFlags, which also opens their virtual clock: every
// run replays exactly, so one run gives every number and two runs print
// the same output.
#ifndef GODIVA_BENCH_BENCH_UTIL_H_
#define GODIVA_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "mesh/dataset_spec.h"
#include "sim/event_scheduler.h"
#include "workloads/experiment.h"

namespace godiva::bench {

struct CommandLine {
  bool quick = false;
  std::string json_path;  // empty = no JSON output

  // `writes_json` = whether the harness writes JSON; one that does not
  // refuses --json like any other unknown flag.
  static CommandLine Parse(int argc, char** argv, bool writes_json) {
    CommandLine line;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--quick") {
        line.quick = true;
      } else if (writes_json && arg.starts_with("--json=")) {
        line.json_path = arg.substr(7);
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
        std::exit(2);
      }
    }
    return line;
  }
};

// A synthetic Titan-IV dataset size.
struct BenchSize {
  double factor;  // mesh scale; >= 1 is the paper's mesh
  int snapshots;

  mesh::DatasetSpec Spec() const {
    mesh::DatasetSpec spec = factor >= 1.0
                                 ? mesh::DatasetSpec::TitanIV()
                                 : mesh::DatasetSpec::TitanIVScaled(factor);
    spec.num_snapshots = snapshots;
    return spec;
  }
};

// The command line of the eight paper harnesses, which run Voyager
// experiments with real feature extraction on every 16th block.
struct BenchFlags {
  BenchSize size;
  std::string json_path;
  // The virtual clock every run replays on. It lives as long as the flags,
  // so declare them before anything that spawns godiva::Threads.
  std::unique_ptr<DiscreteEventScope> scope;

  static BenchFlags Parse(int argc, char** argv, BenchSize full,
                          BenchSize quick, bool writes_json) {
    CommandLine line = CommandLine::Parse(argc, argv, writes_json);
    return BenchFlags{line.quick ? quick : full, std::move(line.json_path),
                      std::make_unique<DiscreteEventScope>()};
  }

  workloads::ExperimentOptions ToOptions() const {
    workloads::ExperimentOptions options;
    options.spec = size.Spec();
    return options;
  }
};

// Latency-sample accumulator shared by the bench harnesses. Percentiles
// use linear interpolation over rank p * (n - 1) — the convention every
// harness has reported since bench_ingest introduced it, so numbers stay
// comparable across benches and baselines.
class LatencyRecorder {
 public:
  void Record(double sample) { samples_.push_back(sample); }
  void RecordAll(const std::vector<double>& samples) {
    samples_.insert(samples_.end(), samples.begin(), samples.end());
  }

  size_t count() const { return samples_.size(); }

  // 0 on an empty recorder; p in [0, 1].
  double Percentile(double p) const {
    if (samples_.empty()) return 0;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    double rank = p * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }

  double Mean() const {
    if (samples_.empty()) return 0;
    double sum = 0;
    for (double sample : samples_) sum += sample;
    return sum / static_cast<double>(samples_.size());
  }

  double Max() const {
    double max = 0;
    for (double sample : samples_) max = std::max(max, sample);
    return max;
  }

 private:
  std::vector<double> samples_;
};

// The short git SHA the benchmark binary is running against, so a
// regression in a bench JSON can be traced to the commit that produced it.
// Sources, in order: the GODIVA_GIT_SHA environment variable (CI sets it
// from the checkout, which also covers builds from an exported tarball),
// then `git rev-parse` in the current directory, then "unknown" (which
// bench_diff refuses to write into a baseline).
inline std::string CurrentGitSha() {
  if (const char* env = std::getenv("GODIVA_GIT_SHA");
      env != nullptr && *env != '\0') {
    return env;
  }
  std::string sha;
  if (std::FILE* pipe = ::popen("git rev-parse --short=12 HEAD 2>/dev/null",
                                "r")) {
    char buffer[64];
    if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
      sha = buffer;
      while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
        sha.pop_back();
      }
    }
    ::pclose(pipe);
  }
  return sha.empty() ? "unknown" : sha;
}

// The current wall-clock time as ISO-8601 UTC ("2026-08-06T12:34:56Z").
inline std::string UtcTimestamp() {
  std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buffer;
}

// Collects named scalar metrics and writes them as the flat JSON document
// tools/bench_diff consumes:
//   {"bench": "bench_fig3a_de", "git_sha": "1a2b3c4d5e6f",
//    "timestamp_utc": "2026-08-06T12:34:56Z",
//    "metrics": {"simple_O_total_s": 413.7, ...}}
// git_sha/timestamp_utc record which commit produced the numbers and when;
// bench_diff carries them into baselines and names the offending commit
// when it reports a regression. Metric names should be stable across runs;
// values are doubles, printed as the shortest text that reads back as the
// same double. Insertion order is preserved so diffs of the files stay
// readable. A virtual-clock bench's name ends in "_de": bench_diff holds
// its numbers to exact equality.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name)
      : bench_name_(std::move(bench_name)),
        git_sha_(CurrentGitSha()),
        timestamp_utc_(UtcTimestamp()) {}

  void Add(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }

  // Writes the document to `path` ("" = no-op). Returns false on I/O
  // failure (after printing a diagnostic): benches treat that as fatal so
  // CI never diffs against a half-written file.
  bool WriteTo(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(out,
                 "{\n  \"bench\": \"%s\",\n  \"git_sha\": \"%s\",\n"
                 "  \"timestamp_utc\": \"%s\",\n  \"metrics\": {\n",
                 bench_name_.c_str(), git_sha_.c_str(),
                 timestamp_utc_.c_str());
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[32];
      const char* end =
          std::to_chars(value, value + sizeof(value), metrics_[i].second).ptr;
      std::fprintf(out, "    \"%s\": %.*s%s\n", metrics_[i].first.c_str(),
                   static_cast<int>(end - value), value,
                   i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(out, "  }\n}\n");
    bool ok = std::fclose(out) == 0;
    if (ok) std::printf("wrote %s\n", path.c_str());
    return ok;
  }

 private:
  std::string bench_name_;
  std::string git_sha_;
  std::string timestamp_utc_;
  std::vector<std::pair<std::string, double>> metrics_;
};

inline void PrintDatasetBanner(const workloads::Experiment& experiment) {
  const mesh::DatasetSpec& spec = experiment.options().spec;
  std::printf(
      "dataset: %lld nodes, %lld tets, %d blocks, %d files/snapshot, "
      "%d snapshots, %s on (simulated) disk\n",
      static_cast<long long>(spec.ExpectedNodes()),
      static_cast<long long>(spec.ExpectedTets()), spec.num_blocks,
      spec.files_per_snapshot, spec.num_snapshots,
      FormatBytes(experiment.dataset().total_bytes).c_str());
}

}  // namespace godiva::bench

#endif  // GODIVA_BENCH_BENCH_UTIL_H_
