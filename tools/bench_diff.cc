// Compares benchmark JSON outputs (bench_* --json=...) against a checked-in
// baseline and fails on regressions.
//
//   bench_diff --write-baseline=BENCH_baseline.json a.json b.json ...
//       merges the per-bench files into one baseline document, each metric
//       prefixed with its bench name ("bench_parallel.pool_t1_total_s").
//
//   bench_diff --update-baseline=BENCH_baseline.json a.json b.json ...
//       rewrites the baseline in place: metrics from the supplied files
//       replace their existing entries (or are appended), every other
//       bench's entries are preserved verbatim — so one bench's numbers
//       can be refreshed without re-running the whole suite.
//
//   Both baseline-writing modes refuse (exit 2) a bench file whose
//   "git_sha" is missing, empty or "unknown": a baseline records which
//   commit produced each bench's numbers, so set GODIVA_GIT_SHA when a
//   bench runs outside a git checkout.
//
//   bench_diff --baseline=BENCH_baseline.json a.json b.json ...
//       compares; exits 1 when any metric regresses by more than the
//       threshold (default 10%, --threshold=0.15 to widen) AND by more
//       than the absolute floor (default 0.1, --abs-floor=0.5 to widen —
//       keeps near-zero second counts from tripping on noise).
//
// Bench files carry "git_sha" and "timestamp_utc" fields (see
// bench_util.h); baselines record them per bench under "provenance", and a
// failing comparison names both commits, so a regression report says which
// commit the baseline numbers came from and which produced the regression.
//
// Metrics are treated as costs (lower is better) unless the name contains
// "ratio", which flips the direction (higher is better). Metrics missing
// on either side are reported but never fail the run, so adding or
// retiring a metric does not break CI before the baseline refresh lands.
//
// Exception: a bench whose name ends in "_de" ran on the discrete-event
// virtual clock, which replays bit-identically. Each of its metrics must
// equal the baseline exactly (a change in either direction fails), and a
// baseline metric missing from the candidate fails too.
#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

struct Document {
  std::string bench;          // "" in a merged baseline
  std::string git_sha;        // "" when the producer did not record it
  std::string timestamp_utc;  // ditto
  std::vector<std::pair<std::string, double>> metrics;
  // Baseline-only: bench name → "sha @ timestamp" of the run that
  // produced that bench's baseline numbers.
  std::vector<std::pair<std::string, std::string>> provenance;
};

// Minimal parser for the flat documents the benches emit: "bench",
// "git_sha" and "timestamp_utc" string fields (all optional), a "metrics"
// object of string → number, and (in baselines) a "provenance" object of
// string → string. Anything else in the file is ignored.
bool ParseDocument(const std::string& path, Document* doc) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();

  size_t i = 0;
  auto skip_ws = [&] {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
  };
  auto parse_string = [&](std::string* out) -> bool {
    skip_ws();
    if (i >= text.size() || text[i] != '"') return false;
    ++i;
    out->clear();
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) ++i;  // keep escaped char
      out->push_back(text[i++]);
    }
    if (i >= text.size()) return false;
    ++i;  // closing quote
    return true;
  };

  bool in_metrics = false;
  bool in_provenance = false;
  while (i < text.size()) {
    skip_ws();
    if (i >= text.size()) break;
    char c = text[i];
    if (c == '"') {
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (i >= text.size() || text[i] != ':') return false;
      ++i;
      skip_ws();
      if (i < text.size() && text[i] == '"') {
        std::string value;
        if (!parse_string(&value)) return false;
        if (in_provenance) {
          doc->provenance.emplace_back(key, value);
        } else if (key == "bench") {
          doc->bench = value;
        } else if (key == "git_sha") {
          doc->git_sha = value;
        } else if (key == "timestamp_utc") {
          doc->timestamp_utc = value;
        }
      } else if (i < text.size() && text[i] == '{') {
        ++i;
        if (key == "metrics") in_metrics = true;
        if (key == "provenance") in_provenance = true;
      } else {
        char* end = nullptr;
        double value = std::strtod(text.c_str() + i, &end);
        if (end == text.c_str() + i) {
          std::fprintf(stderr, "bench_diff: bad value for \"%s\" in %s\n",
                       key.c_str(), path.c_str());
          return false;
        }
        i = static_cast<size_t>(end - text.c_str());
        if (in_metrics) doc->metrics.emplace_back(key, value);
      }
    } else if (c == '}') {
      ++i;
      in_metrics = false;
      in_provenance = false;
    } else {
      ++i;  // commas, braces opening the document, stray tokens
    }
  }
  return true;
}

const double* FindMetric(const Document& doc, const std::string& name) {
  for (const auto& [key, value] : doc.metrics) {
    if (key == name) return &value;
  }
  return nullptr;
}

const std::string* FindProvenance(const Document& doc,
                                  const std::string& bench) {
  for (const auto& [key, value] : doc.provenance) {
    if (key == bench) return &value;
  }
  return nullptr;
}

bool HigherIsBetter(const std::string& name) {
  return name.find("ratio") != std::string::npos;
}

// Discrete-event benches are held to exact equality (see the header).
bool ExactBench(const std::string& bench) {
  return bench.size() >= 3 && bench.compare(bench.size() - 3, 3, "_de") == 0;
}

// "sha @ timestamp" for a bench document (parts the producer omitted are
// skipped; empty when it recorded neither).
std::string DocProvenance(const Document& doc) {
  std::string out = doc.git_sha;
  if (!doc.timestamp_utc.empty()) {
    if (!out.empty()) out += " @ ";
    out += doc.timestamp_utc;
  }
  return out;
}

// Serializes a merged baseline: a "provenance" object naming the commit
// and time each bench's numbers were produced at, then the flat prefixed
// metrics map. Values print as the shortest text that reads back as the
// same double, so the exact gate compares what the bench measured.
int SerializeBaseline(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& provenance,
    const std::vector<std::pair<std::string, double>>& metrics) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_diff: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  if (!provenance.empty()) {
    std::fprintf(out, "  \"provenance\": {\n");
    for (size_t i = 0; i < provenance.size(); ++i) {
      std::fprintf(out, "    \"%s\": \"%s\"%s\n",
                   provenance[i].first.c_str(),
                   provenance[i].second.c_str(),
                   i + 1 < provenance.size() ? "," : "");
    }
    std::fprintf(out, "  },\n");
  }
  std::fprintf(out, "  \"metrics\": {\n");
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[32];
    const char* end =
        std::to_chars(value, value + sizeof(value), metrics[i].second).ptr;
    std::fprintf(out, "    \"%s\": %.*s%s\n", metrics[i].first.c_str(),
                 static_cast<int>(end - value), value,
                 i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(out, "  }\n}\n");
  if (std::fclose(out) != 0) return 1;
  std::printf("bench_diff: wrote baseline %s\n", path.c_str());
  return 0;
}

int WriteBaseline(const std::string& path,
                  const std::vector<Document>& docs) {
  std::vector<std::pair<std::string, std::string>> provenance;
  std::vector<std::pair<std::string, double>> metrics;
  for (const Document& doc : docs) {
    std::string stamp = DocProvenance(doc);
    if (!stamp.empty()) provenance.emplace_back(doc.bench, stamp);
    for (const auto& [key, value] : doc.metrics) {
      metrics.emplace_back(doc.bench + "." + key, value);
    }
  }
  return SerializeBaseline(path, provenance, metrics);
}

// --update-baseline: existing entries for the supplied benches are
// replaced (same key in place, new keys appended after that bench's
// block), everything else is carried over untouched.
int UpdateBaseline(const std::string& path,
                   const std::vector<Document>& docs) {
  Document existing;
  if (!ParseDocument(path, &existing)) return 2;

  std::vector<std::pair<std::string, std::string>> provenance =
      existing.provenance;
  std::vector<std::pair<std::string, double>> metrics = existing.metrics;
  for (const Document& doc : docs) {
    std::string stamp = DocProvenance(doc);
    bool stamped = false;
    for (auto& [bench, value] : provenance) {
      if (bench == doc.bench) {
        value = stamp;
        stamped = true;
      }
    }
    if (!stamped && !stamp.empty()) {
      provenance.emplace_back(doc.bench, stamp);
    }

    size_t insert_at = metrics.size();  // after this bench's last entry
    std::string prefix = doc.bench + ".";
    for (size_t i = 0; i < metrics.size(); ++i) {
      if (metrics[i].first.compare(0, prefix.size(), prefix) == 0) {
        insert_at = i + 1;
      }
    }
    for (const auto& [key, value] : doc.metrics) {
      std::string full = prefix + key;
      bool replaced = false;
      for (auto& [existing_key, existing_value] : metrics) {
        if (existing_key == full) {
          existing_value = value;
          replaced = true;
          break;
        }
      }
      if (!replaced) {
        metrics.insert(metrics.begin() + insert_at, {full, value});
        ++insert_at;
      }
    }
  }
  return SerializeBaseline(path, provenance, metrics);
}

int Run(int argc, char** argv) {
  std::string baseline_path;
  std::string write_path;
  std::string update_path;
  double threshold = 0.10;
  double abs_floor = 0.1;
  std::vector<std::string> current_paths;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--baseline=", 11) == 0) {
      baseline_path = arg + 11;
    } else if (std::strncmp(arg, "--write-baseline=", 17) == 0) {
      write_path = arg + 17;
    } else if (std::strncmp(arg, "--update-baseline=", 18) == 0) {
      update_path = arg + 18;
    } else if (std::strncmp(arg, "--threshold=", 12) == 0) {
      threshold = std::atof(arg + 12);
    } else if (std::strncmp(arg, "--abs-floor=", 12) == 0) {
      abs_floor = std::atof(arg + 12);
    } else if (std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "bench_diff: unknown flag %s\n", arg);
      return 2;
    } else {
      current_paths.push_back(arg);
    }
  }
  int modes = (baseline_path.empty() ? 0 : 1) + (write_path.empty() ? 0 : 1) +
              (update_path.empty() ? 0 : 1);
  if (modes != 1 || current_paths.empty()) {
    std::fprintf(
        stderr,
        "usage: bench_diff --baseline=B.json a.json [b.json ...]\n"
        "       bench_diff --write-baseline=B.json a.json ...\n"
        "       bench_diff --update-baseline=B.json a.json ...\n");
    return 2;
  }

  std::vector<Document> docs;
  for (const std::string& path : current_paths) {
    Document doc;
    if (!ParseDocument(path, &doc)) return 2;
    if (doc.bench.empty()) {
      std::fprintf(stderr, "bench_diff: %s has no \"bench\" field\n",
                   path.c_str());
      return 2;
    }
    // Writing or updating a baseline records where its numbers came from.
    if (baseline_path.empty() &&
        (doc.git_sha.empty() || doc.git_sha == "unknown")) {
      std::fprintf(stderr,
                   "bench_diff: %s records no commit (git_sha \"%s\"); "
                   "rerun the bench in a git checkout or with "
                   "GODIVA_GIT_SHA set\n",
                   path.c_str(), doc.git_sha.c_str());
      return 2;
    }
    docs.push_back(std::move(doc));
  }
  if (!write_path.empty()) return WriteBaseline(write_path, docs);
  if (!update_path.empty()) return UpdateBaseline(update_path, docs);

  Document baseline;
  if (!ParseDocument(baseline_path, &baseline)) return 2;

  int regressions = 0;
  int compared = 0;
  std::vector<std::string> regressed_benches;
  auto fail = [&](const std::string& bench) {
    ++regressions;
    if (std::find(regressed_benches.begin(), regressed_benches.end(),
                  bench) == regressed_benches.end()) {
      regressed_benches.push_back(bench);
    }
  };
  std::printf("%-52s %12s %12s %9s\n", "metric", "baseline", "current",
              "delta");
  for (const Document& doc : docs) {
    for (const auto& [key, current] : doc.metrics) {
      std::string full = doc.bench + "." + key;
      const double* base = FindMetric(baseline, full);
      if (base == nullptr) {
        std::printf("%-52s %12s %12.4g %9s  new (run --update-baseline)\n",
                    full.c_str(), "-", current, "-");
        continue;
      }
      ++compared;
      double delta = current - *base;
      double relative = (*base != 0) ? delta / *base : 0;
      bool worse = HigherIsBetter(key) ? delta < 0 : delta > 0;
      const bool exact = ExactBench(doc.bench);
      bool fails = exact ? current != *base
                         : worse && std::fabs(relative) > threshold &&
                               std::fabs(delta) > abs_floor;
      if (fails) fail(doc.bench);
      std::printf("%-52s %12.4g %12.4g %+8.1f%%%s\n", full.c_str(), *base,
                  current, 100.0 * relative,
                  !fails ? "" : exact ? "  CHANGED (exact)" : "  REGRESSION");
    }
  }
  // Baselines may hold benches not being compared this run; only keys
  // whose bench was supplied can be missing.
  for (const auto& [key, value] : baseline.metrics) {
    for (const Document& doc : docs) {
      const std::string prefix = doc.bench + ".";
      if (key.compare(0, prefix.size(), prefix) != 0 ||
          FindMetric(doc, key.substr(prefix.size())) != nullptr) {
        continue;
      }
      const bool exact = ExactBench(doc.bench);
      if (exact) fail(doc.bench);
      std::printf("%-52s %12.4g %12s %9s  (missing from current)%s\n",
                  key.c_str(), value, "-", "-", exact ? "  MISSING" : "");
    }
  }
  std::printf("compared %d metrics, %d regression%s (threshold %.0f%%; "
              "*_de benches exact)\n",
              compared, regressions, regressions == 1 ? "" : "s",
              100.0 * threshold);
  // Name the commits on both sides of every regression, so the report
  // alone says where the baseline numbers came from and which commit
  // produced the regression.
  for (const std::string& bench : regressed_benches) {
    const std::string* base_prov = FindProvenance(baseline, bench);
    std::string current_prov;
    for (const Document& doc : docs) {
      if (doc.bench == bench) current_prov = DocProvenance(doc);
    }
    std::printf("  %s: baseline from [%s], regression produced by [%s]\n",
                bench.c_str(),
                base_prov != nullptr ? base_prov->c_str() : "unrecorded",
                current_prov.empty() ? "unrecorded" : current_prov.c_str());
  }
  return regressions > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
