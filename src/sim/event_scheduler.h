// The discrete-event execution mode (ROADMAP item 2, DESIGN.md §14).
//
// EventScheduler implements detail::SimSchedulerHooks (common/sim_hooks.h)
// as a cooperative single-occupancy scheduler over real OS threads: at
// most one registered thread runs at a time (it holds the "permit"), and
// the permit changes hands only at instrumented blocking points — sleeps,
// contended Mutex::Lock, CondVar waits, thread join. Modeled delays
// (TimeScale::SleepModeled, SimEnv disk service times, timed waits) become
// entries in a timer heap; when no thread is runnable the scheduler pops
// the earliest timer and advances a logical clock to it — the
// DelayQueue/cycle() idiom — so a thousand modeled seconds replay in the
// wall time it takes to process the events, and every run with the same
// seed replays the identical event sequence.
//
// What makes the replay deterministic:
//   * single occupancy — no two hooked threads ever race;
//   * FIFO everything — the ready queue, per-cv and per-mutex wait lists,
//     and (vtime, sequence)-ordered timers leave no choice points;
//   * program-order thread ids — godiva::Thread pre-registers children at
//     spawn, before any OS nondeterminism can reorder their first steps.
//
// Scaled-sleep mode (no scope active) is untouched and remains the mode
// TSan jobs run, with true-thread overlap.
#ifndef GODIVA_SIM_EVENT_SCHEDULER_H_
#define GODIVA_SIM_EVENT_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/sim_hooks.h"
#include "common/thread_annotations.h"
#include "sim/virtual_time.h"

namespace godiva {

// Counters for tests and the trace footer.
struct SchedulerStats {
  int64_t threads_registered = 0;
  int64_t grants = 0;          // permit handoffs
  int64_t clock_advances = 0;  // distinct virtual instants visited
  int64_t timer_events = 0;
  int64_t sleeps = 0;
  int64_t cv_parks = 0;
  int64_t mutex_parks = 0;
  double virtual_seconds = 0;  // vclock elapsed since activation
};

class EventScheduler final : public detail::SimSchedulerHooks {
 public:
  struct Options {
    // Collect an event trace readable via TraceString(); also enabled by
    // a non-empty GODIVA_SIM_TRACE (whose value names the dump file
    // appended at scope exit).
    bool trace = false;
  };

  EventScheduler();
  explicit EventScheduler(Options options);
  ~EventScheduler() override;
  EventScheduler(const EventScheduler&) = delete;
  EventScheduler& operator=(const EventScheduler&) = delete;

  // The currently installed scheduler (via DiscreteEventScope), if any.
  static EventScheduler* Active();

  SchedulerStats stats() const EXCLUDES(mu_);
  // The collected trace: one line per event, pointer-free (thread and
  // object ids are assigned in first-use order) so two identical runs
  // produce byte-identical traces.
  std::string TraceString() const EXCLUDES(mu_);
  double VirtualElapsedSeconds() const;

  // detail::SimSchedulerHooks:
  bool Intercepts() const override;
  TimePoint VirtualNow() const override;
  void DeSleepFor(Duration d) override EXCLUDES(mu_);
  void DeLock(Mutex* mu) override EXCLUDES(mu_);
  void DeUnlocked(Mutex* mu) override EXCLUDES(mu_);
  bool DeCvWait(CondVar* cv, Mutex* mu, const TimePoint* deadline) override
      EXCLUDES(mu_);
  void DeCvNotify(CondVar* cv, bool all) override EXCLUDES(mu_);
  void* DeThreadSpawn() override EXCLUDES(mu_);
  void DeThreadAdopt(void* token) override EXCLUDES(mu_);
  void DeThreadExit(void* token) override EXCLUDES(mu_);
  void DeThreadJoin(void* token) override EXCLUDES(mu_);

 private:
  friend class DiscreteEventScope;
  friend struct ThreadRegistration;

  enum class State {
    kRunning,      // holds the permit
    kReady,        // runnable, queued for the permit
    kParkedTimer,  // sleeping until a virtual instant
    kParkedCv,     // in a condition wait (optionally with a deadline)
    kParkedMutex,  // waiting for a Mutex's raw lock
    kParkedJoin,   // joining another thread
    kExited,
  };

  struct Rec;          // per-thread record (event_scheduler.cc)
  class ScopedInternal;

  struct TimerEvent {
    int64_t when_nanos;  // virtual nanoseconds since epoch_
    uint64_t seq;        // insertion order breaks when ties
    Rec* rec;
    uint64_t gen;  // stale if != rec->timer_gen (lazy cancellation)
  };
  struct TimerLater {
    bool operator()(const TimerEvent& a, const TimerEvent& b) const {
      if (a.when_nanos != b.when_nanos) return a.when_nanos > b.when_nanos;
      return a.seq > b.seq;
    }
  };

  void Activate();
  void Deactivate();

  Rec* EnsureRegistered() EXCLUDES(mu_);
  Rec* RegisterLocked() REQUIRES(mu_);
  void GrantLocked(Rec* rec) REQUIRES(mu_);
  void ScheduleNextLocked() REQUIRES(mu_);
  void WaitForGrantLocked(Rec* rec) REQUIRES(mu_);
  // Parks the calling thread's `rec`, releases the permit, and blocks
  // until granted again.
  void ParkLocked(Rec* rec, State state, const void* wait_key) REQUIRES(mu_);
  void FireTimerLocked(Rec* rec) REQUIRES(mu_);
  void PushTimerLocked(Rec* rec, int64_t when_nanos) REQUIRES(mu_);
  void FinishRecLocked(Rec* rec) REQUIRES(mu_);
  void AcquireRawParked(Mutex* mu, Rec* rec) EXCLUDES(mu_);
  int64_t NanosAt(TimePoint tp) const;
  void TraceLocked(const char* event, const Rec* rec, const void* obj)
      REQUIRES(mu_);
  int ObjIdLocked(const void* obj) REQUIRES(mu_);
  // Runs from thread_local destructors, where rank bookkeeping storage may
  // already be destroyed; takes mu_'s raw lock directly.
  // lint: holds_on_entry(none)
  void UnregisterExitingThread(void* rec) EXCLUDES(mu_);
  void MaybeDumpTrace();

  // lint: unguarded(written at construction, read-only afterwards)
  Options options_;
  const TimePoint epoch_;  // virtual t=0, anchored to real steady time
  mutable Mutex mu_{lock_rank::kSimScheduler, "EventScheduler::mu_"};
  // The virtual clock, readable lock-free from VirtualNow(). Written only
  // while mu_ is held.
  std::atomic<int64_t> vnow_nanos_{0};

  std::vector<std::unique_ptr<Rec>> recs_ GUARDED_BY(mu_);
  Rec* running_ GUARDED_BY(mu_) = nullptr;
  std::deque<Rec*> ready_ GUARDED_BY(mu_);
  std::priority_queue<TimerEvent, std::vector<TimerEvent>, TimerLater> timers_
      GUARDED_BY(mu_);
  // Park lists keyed by the CondVar* or Mutex* being waited on.
  std::unordered_map<const void*, std::deque<Rec*>> waiters_ GUARDED_BY(mu_);
  std::unordered_map<const void*, int> obj_ids_ GUARDED_BY(mu_);
  uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  int live_recs_ GUARDED_BY(mu_) = 0;
  SchedulerStats stats_ GUARDED_BY(mu_);
  std::vector<std::string> trace_ GUARDED_BY(mu_);
  size_t trace_dropped_ GUARDED_BY(mu_) = 0;
  bool warned_idle_ GUARDED_BY(mu_) = false;
};

// RAII activation: installs the scheduler process-wide, registers the
// constructing thread (which holds the permit from the start), and tears
// everything down — dumping the GODIVA_SIM_TRACE file if requested — on
// destruction. All godiva::Threads spawned inside the scope must be
// joined before it ends. Scopes must not nest.
class DiscreteEventScope {
 public:
  explicit DiscreteEventScope(
      EventScheduler::Options options = EventScheduler::Options());
  ~DiscreteEventScope();
  DiscreteEventScope(const DiscreteEventScope&) = delete;
  DiscreteEventScope& operator=(const DiscreteEventScope&) = delete;

  EventScheduler* scheduler() { return &scheduler_; }

 private:
  EventScheduler scheduler_;
};

}  // namespace godiva

#endif  // GODIVA_SIM_EVENT_SCHEDULER_H_
