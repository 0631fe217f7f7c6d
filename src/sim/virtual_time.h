// Modeled-time execution: experiment components express costs in *modeled*
// seconds (what a 2003-era platform would have spent) and TimeScale maps
// them onto the active execution mode:
//
//   kScaledSleep (default) — modeled durations become scaled real sleeps
//     (`modeled * scale_`), so a paper run of hundreds of seconds replays
//     in a few wall seconds while preserving overlap behaviour between
//     real threads. This is the TSan-visible mode.
//   kDiscreteEvent — a DiscreteEventScope (sim/event_scheduler.h) is
//     active and modeled durations become events on the logical clock:
//     one virtual nanosecond per modeled nanosecond, no real sleeping,
//     wall cost independent of modeled time. The scale factor is unused.
//
// The mode is not stored here: TimeScale consults the process-wide
// scheduler hook, so the same TimeScale object (and all the workload code
// holding one) works in both modes unmodified.
#ifndef GODIVA_SIM_VIRTUAL_TIME_H_
#define GODIVA_SIM_VIRTUAL_TIME_H_

#include <thread>

#include "common/clock.h"
#include "common/sim_hooks.h"

namespace godiva {

// How modeled time executes. Nothing stores it: the one runtime switch is
// whether a DiscreteEventScope is active.
enum class SimMode {
  kScaledSleep,
  kDiscreteEvent,
};

class TimeScale {
 public:
  // `scale` = real seconds per modeled second, in (0, 1]. E.g. 0.004 turns
  // a 500 s modeled run into 2 s of wall time. Ignored in discrete-event
  // mode, where modeled time costs no wall time at all.
  explicit TimeScale(double scale) : scale_(scale) {}

  double scale() const { return scale_; }

  // Blocks the calling thread for `modeled` * scale of real time — or, in
  // discrete-event mode, parks it until the virtual clock advances by
  // `modeled` (unscaled: virtual time IS modeled time).
  void SleepModeled(Duration modeled) const {
    if (modeled <= Duration::zero()) return;
    detail::SimSchedulerHooks* hooks = detail::ActiveSimScheduler();
    if (hooks != nullptr && hooks->Intercepts()) {
      hooks->DeSleepFor(modeled);
      return;
    }
    std::this_thread::sleep_for(
        std::chrono::duration_cast<Duration>(modeled * scale_));
  }

  // Converts a measured duration back into modeled seconds. Measurements
  // come from Stopwatch/Now(), which in discrete-event mode already read
  // the virtual (= modeled) clock, so only scaled-sleep wall time needs
  // the un-scaling division.
  double WallToModeledSeconds(Duration wall) const {
    if (detail::ActiveSimScheduler() != nullptr) return ToSeconds(wall);
    return ToSeconds(wall) / scale_;
  }

 private:
  double scale_;
};

}  // namespace godiva

#endif  // GODIVA_SIM_VIRTUAL_TIME_H_
