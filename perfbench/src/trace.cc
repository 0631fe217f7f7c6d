#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/clock.h"

namespace perfbench::trace {
namespace {

struct ThreadBuffer {
  uint32_t index = 0;
  uint64_t next_seq = 0;
  std::vector<SpanRecord> spans;
};

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by mu

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local uint64_t t_open_span = 0;  // innermost open span's id
thread_local int64_t t_request = -1;

const std::chrono::steady_clock::time_point g_host_epoch =
    std::chrono::steady_clock::now();

ThreadBuffer* Buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->index = static_cast<uint32_t>(g_buffers.size());
    buffer->spans.reserve(1024);
    t_buffer = buffer.get();
    g_buffers.push_back(std::move(buffer));
  }
  return t_buffer;
}

int64_t VirtNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             godiva::Now().time_since_epoch())
      .count();
}

}  // namespace

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_host_epoch)
      .count();
}

void SetRequest(int64_t request) { t_request = request; }
int64_t CurrentRequest() { return t_request; }

Span::Span(const char* name) {
  if (!Enabled()) return;
  ThreadBuffer* buffer = Buffer();
  active_ = true;
  record_.name = name;
  record_.thread = buffer->index;
  record_.id = (static_cast<uint64_t>(buffer->index) + 1) << 40 |
               ++buffer->next_seq;
  record_.parent = t_open_span;
  record_.request = t_request;
  saved_parent_ = t_open_span;
  t_open_span = record_.id;
  record_.host_start_ns = HostNowNs();
  record_.virt_start_ns = VirtNowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.virt_end_ns = VirtNowNs();
  record_.host_end_ns = HostNowNs();
  t_open_span = saved_parent_;
  t_buffer->spans.push_back(record_);
}

std::vector<SpanRecord> Collect() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<SpanRecord> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return all;
}

const LayerStats& Summary::Get(const std::string& name) const {
  static const LayerStats kEmpty;
  for (const auto& [layer, stats] : layers) {
    if (layer == name) return stats;
  }
  return kEmpty;
}

Summary Summarize(const std::vector<SpanRecord>& spans,
                  int64_t window_start_ns, int64_t window_end_ns) {
  Summary summary;
  std::map<std::string, LayerStats> by_name;
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  by_id.reserve(spans.size());
  for (const SpanRecord& span : spans) {
    LayerStats& stats = by_name[span.name];
    ++stats.calls;
    stats.host_ns.push_back(static_cast<double>(span.host_ns()));
    stats.virt_ns.push_back(static_cast<double>(span.virt_ns()));
    by_id[span.id] = &span;
  }
  summary.layers.assign(by_name.begin(), by_name.end());

  // A child must sit inside its parent on both clocks.
  for (const SpanRecord& span : spans) {
    if (span.parent == 0) continue;
    auto it = by_id.find(span.parent);
    if (it == by_id.end()) {
      ++summary.nesting_violations;
      continue;
    }
    const SpanRecord& parent = *it->second;
    if (span.host_start_ns < parent.host_start_ns ||
        span.host_end_ns > parent.host_end_ns ||
        span.host_ns() > parent.host_ns() ||
        span.virt_start_ns < parent.virt_start_ns ||
        span.virt_end_ns > parent.virt_end_ns) {
      ++summary.nesting_violations;
    }
  }

  // Union of every span's host interval, clipped to the window.
  std::vector<std::pair<int64_t, int64_t>> intervals;
  intervals.reserve(spans.size());
  for (const SpanRecord& span : spans) {
    int64_t start = std::max(span.host_start_ns, window_start_ns);
    int64_t end = std::min(span.host_end_ns, window_end_ns);
    if (end > start) intervals.emplace_back(start, end);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t run_start = 0;
  int64_t run_end = -1;
  for (const auto& [start, end] : intervals) {
    if (start > run_end) {
      if (run_end > run_start) summary.covered_host_ns += run_end - run_start;
      run_start = start;
      run_end = end;
    } else {
      run_end = std::max(run_end, end);
    }
  }
  if (run_end > run_start) summary.covered_host_ns += run_end - run_start;
  return summary;
}

bool WriteChromeTrace(const std::vector<SpanRecord>& spans,
                      const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  int64_t host_origin = INT64_MAX;
  int64_t virt_origin = INT64_MAX;
  for (const SpanRecord& span : spans) {
    host_origin = std::min(host_origin, span.host_start_ns);
    virt_origin = std::min(virt_origin, span.virt_start_ns);
  }
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    std::fprintf(
        out,
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
        "\"dur\":%.3f,\"args\":{\"virt_start_us\":%.3f,\"virt_dur_us\":%.3f,"
        "\"id\":%llu,\"parent\":%llu,\"request\":%lld}}%s\n",
        span.name, span.thread,
        static_cast<double>(span.host_start_ns - host_origin) / 1e3,
        static_cast<double>(span.host_ns()) / 1e3,
        static_cast<double>(span.virt_start_ns - virt_origin) / 1e3,
        static_cast<double>(span.virt_ns()) / 1e3,
        static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent),
        static_cast<long long>(span.request),
        i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench::trace
