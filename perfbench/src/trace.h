// Benchmark-side spans around calls into the GODIVA layers.
//
// A Span records, for one call into a layer: its name (the layer's metric
// prefix plus the operation, e.g. "core.gbo.wait"), host start/end from
// std::chrono::steady_clock, virtual start/end from godiva::Now() (the
// discrete-event clock while a DiscreteEventScope is active), the enclosing
// span on the same thread, and a request id the workload sets per op.
//
// Spans go into a per-thread buffer owned by a process-wide registry. The
// buffer is appended to without any lock: a thread only ever touches its
// own buffer, and the registry's std::mutex is taken once per thread, at
// registration. (A godiva::Mutex would be a scheduling point under the
// discrete-event scheduler and would perturb the run being measured.)
// Collect() must only be called while no traced worker thread is running.
//
// When tracing is disabled a Span costs one relaxed atomic load.
#ifndef GODIVA_PERFBENCH_TRACE_H_
#define GODIVA_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

struct SpanRecord {
  const char* name = nullptr;  // static string
  int64_t host_start_ns = 0;
  int64_t host_end_ns = 0;
  int64_t virt_start_ns = 0;
  int64_t virt_end_ns = 0;
  uint64_t id = 0;      // unique per process, never 0
  uint64_t parent = 0;  // 0 = top-level on its thread
  int64_t request = -1;
  uint32_t thread = 0;  // registry index of the recording thread

  int64_t host_ns() const { return host_end_ns - host_start_ns; }
  int64_t virt_ns() const { return virt_end_ns - virt_start_ns; }
};

void SetEnabled(bool enabled);
bool Enabled();

// Host nanoseconds on the span clock (steady_clock since process start).
int64_t HostNowNs();

// The calling thread's request id, stamped on every span it opens.
void SetRequest(int64_t request);
int64_t CurrentRequest();

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
  uint64_t saved_parent_ = 0;
};

// Moves every buffered span of every thread out of the registry.
std::vector<SpanRecord> Collect();

// Per-name aggregates plus the structural checks over one traced run.
struct LayerStats {
  int64_t calls = 0;
  std::vector<double> host_ns;
  std::vector<double> virt_ns;
};

struct Summary {
  std::vector<std::pair<std::string, LayerStats>> layers;  // sorted by name
  // Children whose host (or virtual) duration exceeds their parent's, or
  // whose interval escapes it. Must be 0.
  int64_t nesting_violations = 0;
  // Host nanoseconds of [window_start, window_end] covered by at least one
  // span of any thread.
  int64_t covered_host_ns = 0;

  const LayerStats& Get(const std::string& name) const;
};

Summary Summarize(const std::vector<SpanRecord>& spans,
                  int64_t window_start_ns, int64_t window_end_ns);

// Writes the spans as Chrome trace-event JSON (opens in Perfetto or
// chrome://tracing). Host time is the timeline; virtual times ride in
// each event's args. Returns false on I/O failure.
bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path);

}  // namespace perfbench::trace

#endif  // GODIVA_PERFBENCH_TRACE_H_
