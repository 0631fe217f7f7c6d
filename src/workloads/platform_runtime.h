// Bundles the simulated platform pieces (shared in-memory dataset files,
// disk model, virtual CPU, time scale) that a Voyager run executes against.
#ifndef GODIVA_WORKLOADS_PLATFORM_RUNTIME_H_
#define GODIVA_WORKLOADS_PLATFORM_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/clock.h"
#include "sim/platform.h"
#include "sim/sim_cpu.h"
#include "sim/sim_env.h"
#include "sim/virtual_time.h"

namespace godiva::workloads {

// CPU cost of decoding scientific-format data (per MiB read), modeled on
// the reference CPU. This is the I/O-thread CPU load that slows down
// computation when GODIVA prefetches on a single-processor machine
// (paper §4.2, Engle TG results).
inline constexpr double kDecodeSecondsPerMib = 0.18;

class PlatformRuntime {
 public:
  // `env` must outlive the runtime and hold the dataset files; its disk
  // model is reconfigured to the profile's. The trailing SimMode is
  // ignored: an active DiscreteEventScope decides how delays are paid;
  // delete it with the next perfbench change.
  PlatformRuntime(const PlatformProfile& profile, double time_scale,
                  SimEnv* env, SimMode = SimMode::kScaledSleep)
      : profile_(profile),
        scale_(time_scale),
        env_(env),
        cpu_(SimCpu::Options{.slots = profile.cpu_slots,
                             .quantum = std::chrono::milliseconds(20)},
             &scale_) {
    env_->SetDiskModel(profile.disk);
    env_->SetTimeScale(&scale_);
  }

  // Uninstalls scale_ from the env unless a later runtime replaced it, so
  // reads through the env after this runtime dies charge no delay instead
  // of reaching a dead TimeScale.
  ~PlatformRuntime() { env_->ClearTimeScale(&scale_); }

  PlatformRuntime(const PlatformRuntime&) = delete;
  PlatformRuntime& operator=(const PlatformRuntime&) = delete;

  // Charges `modeled_seconds` of reference-CPU work (scaled by the
  // platform's relative CPU speed) against the virtual CPU.
  void ChargeCompute(double modeled_seconds) {
    cpu_.Compute(FromSeconds(modeled_seconds / profile_.cpu_speed));
  }

  // Charges the CPU cost of decoding `bytes` of file data. Small charges
  // accumulate and are paid in batches of at least kDecodeFlushBytes so
  // per-sleep OS overhead does not inflate the model (decoding hundreds of
  // small datasets per file is the common case).
  void ChargeDecode(int64_t bytes) {
    int64_t pending =
        pending_decode_bytes_.fetch_add(bytes, std::memory_order_relaxed) +
        bytes;
    if (pending < kDecodeFlushBytes) return;
    int64_t flushed =
        pending_decode_bytes_.exchange(0, std::memory_order_relaxed);
    if (flushed == 0) return;  // another thread flushed concurrently
    ChargeCompute(kDecodeSecondsPerMib * static_cast<double>(flushed) /
                  (1024.0 * 1024.0));
  }

  const PlatformProfile& profile() const { return profile_; }
  const TimeScale& scale() const { return scale_; }
  SimEnv* env() { return env_; }
  SimCpu* cpu() { return &cpu_; }

  // Env the workload's file reads go through. Defaults to env(); tests
  // interpose a decorator (e.g. FaultInjectionEnv wrapping env()) here so
  // faults hit the read path while the disk model stays on the base env.
  // `io_env` must outlive the runtime; pass nullptr to restore the default.
  void SetIoEnv(Env* io_env) { io_env_ = io_env; }
  Env* io_env() { return io_env_ != nullptr ? io_env_ : env_; }

 private:
  static constexpr int64_t kDecodeFlushBytes = 256 * 1024;

  PlatformProfile profile_;
  TimeScale scale_;
  SimEnv* env_;
  Env* io_env_ = nullptr;  // optional decorator over env_ for file reads
  SimCpu cpu_;
  std::atomic<int64_t> pending_decode_bytes_{0};
};

}  // namespace godiva::workloads

#endif  // GODIVA_WORKLOADS_PLATFORM_RUNTIME_H_
