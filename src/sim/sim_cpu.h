// SimCpu: a virtual processor with N slots. Threads charge modeled compute
// time by holding a slot while sleeping the scaled duration, so CPU
// occupancy — and contention between the visualization main thread and the
// GODIVA background I/O thread — is modeled faithfully regardless of how
// many physical cores the host has. Work is charged in quanta so slot
// ownership interleaves like an OS round-robin scheduler (paper §4.2).
#ifndef GODIVA_SIM_SIM_CPU_H_
#define GODIVA_SIM_SIM_CPU_H_

#include <atomic>

#include "common/clock.h"
#include "common/sync.h"
#include "common/thread.h"
#include "sim/virtual_time.h"

namespace godiva {

class SimCpu {
 public:
  struct Options {
    int slots = 1;
    // Scheduling quantum in modeled time: Compute() releases and reacquires
    // its slot every quantum so competing threads interleave.
    Duration quantum = std::chrono::milliseconds(20);
  };

  SimCpu(Options options, const TimeScale* time_scale);
  SimCpu(const SimCpu&) = delete;
  SimCpu& operator=(const SimCpu&) = delete;

  // Charges `modeled` CPU time to the calling thread.
  void Compute(Duration modeled);

  // Total modeled CPU time charged so far (all threads).
  double TotalComputeSeconds() const;

  int slots() const { return options_.slots; }
  // Slots currently held by computing threads (instantaneous occupancy,
  // from the semaphore's own accounting).
  int busy_slots() const { return slots_sem_.in_use(); }
  const TimeScale* time_scale() const { return time_scale_; }

 private:
  Options options_;
  const TimeScale* time_scale_;
  Semaphore slots_sem_;
  std::atomic<int64_t> total_nanos_{0};
};

// A compute-bound background process occupying one SimCpu slot at ~100%
// duty from construction to destruction. Models the paper's TG1 setup
// ("run Voyager and another computation-intensive program ... to occupy
// both processors").
class CompetitorLoad {
 public:
  explicit CompetitorLoad(SimCpu* cpu);
  CompetitorLoad(const CompetitorLoad&) = delete;
  CompetitorLoad& operator=(const CompetitorLoad&) = delete;
  ~CompetitorLoad();

 private:
  SimCpu* cpu_;
  std::atomic<bool> stop_{false};
  Thread thread_;
};

}  // namespace godiva

#endif  // GODIVA_SIM_SIM_CPU_H_
