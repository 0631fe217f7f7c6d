// Metric collection and printing. Every metric has a name, a unit and a
// clock domain: "host" (steady_clock on this machine), "modeled" (the
// virtual clock of the simulated 2003 platform) or "exact" (counts and
// ratios that do not depend on any clock). A name is registered once.
#ifndef GODIVA_PERFBENCH_REPORT_H_
#define GODIVA_PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  std::string domain;  // "host", "modeled" or "exact"
  double value = 0;
  std::string note;  // printed after the value (e.g. percentile and n)
};

class MetricSink {
 public:
  // Returns false (and records the clash) when `name` was already added.
  bool Add(const std::string& name, const std::string& unit,
           const std::string& domain, double value,
           const std::string& note = "");

  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;
  bool clashes() const { return clashes_ > 0; }

  // One line per metric from index `first` on:
  // "  name  value unit  [domain]  note".
  void Print(const std::string& title, size_t first = 0) const;

 private:
  std::vector<Metric> metrics_;
  int clashes_ = 0;
};

// Linear interpolation over rank p * (n - 1); 0 for no samples.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

// The highest percentile of `samples` that still has at least ten samples
// beyond it: the sample at sorted index n - 11. With fewer than 11
// samples there is none, and the maximum is reported instead
// (percentile 100).
struct Tail {
  double value = 0;
  double percentile = 0;  // 100 * (index + 1) / n
  int64_t samples = 0;
};
Tail TailOf(std::vector<double> samples);

// Peak resident set size of this process, MiB.
double PeakRssMib();

// The final machine-readable line.
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<const Metric*>& metrics);

}  // namespace perfbench

#endif  // GODIVA_PERFBENCH_REPORT_H_
