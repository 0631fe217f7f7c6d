#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"

namespace perfbench {

bool MetricSink::Add(const std::string& name, const std::string& unit,
                     const std::string& domain, double value,
                     const std::string& note) {
  if (Find(name) != nullptr) {
    std::fprintf(stderr, "metric %s registered twice\n", name.c_str());
    ++clashes_;
    return false;
  }
  metrics_.push_back({name, unit, domain, value, note});
  return true;
}

const Metric* MetricSink::Find(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

void MetricSink::Print(const std::string& title, size_t first) const {
  std::printf("%s\n", title.c_str());
  for (size_t i = first; i < metrics_.size(); ++i) {
    const Metric& metric = metrics_[i];
    std::printf("  %-34s %16.6f %-6s [%s]%s%s\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(), metric.domain.c_str(),
                metric.note.empty() ? "" : "  ", metric.note.c_str());
  }
}

double Percentile(std::vector<double> samples, double p) {
  godiva::bench::LatencyRecorder recorder;
  recorder.RecordAll(samples);
  return recorder.Percentile(p);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

Tail TailOf(std::vector<double> samples) {
  Tail tail;
  tail.samples = static_cast<int64_t>(samples.size());
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const size_t index = n >= 11 ? n - 11 : n - 1;
  tail.value = samples[index];
  tail.percentile =
      100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return tail;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<const Metric*>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                ", \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
  json += buffer;
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i]->name.c_str(),
                  metrics[i]->value, metrics[i]->unit.c_str());
    json += buffer;
  }
  json += "}}";
  return json;
}

}  // namespace perfbench
