#include "sim/event_scheduler.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace godiva {

// Per-thread record. The embedded CondVar is what the OS thread actually
// blocks on while parked; it is signalled only by the permit granter, so
// handoff is O(1) regardless of how many threads are registered (a
// thousand-session sweep must not notify_all a thousand waiters per
// event).
struct EventScheduler::Rec {
  explicit Rec(uint64_t id_in) : id(id_in) {}

  const uint64_t id;
  // lint: unguarded(guarded by EventScheduler::mu_ — Recs live in recs_,
  // a GUARDED_BY(mu_) container, and every field access holds mu_)
  State state = State::kReady;
  CondVar cv;
  // Outcome of the last cv park: true = woken by DeCvNotify, false =
  // deadline timer fired first.
  // lint: unguarded(guarded by EventScheduler::mu_ via recs_)
  bool notified = false;
  // Lazy timer cancellation: a TimerEvent is live iff its gen matches.
  // lint: unguarded(guarded by EventScheduler::mu_ via recs_)
  uint64_t timer_gen = 0;
  // The CondVar*/Mutex* (waiters_ key) or join target this rec is parked
  // on; for tracing and for removing timed-out cv waiters from the list.
  const void* wait_key = nullptr;
  // lint: unguarded(guarded by EventScheduler::mu_ via recs_)
  std::vector<Rec*> joiners;
};

namespace {

// Events a trace keeps; later ones are counted as dropped.
constexpr size_t kTraceLimit = size_t{1} << 20;

// Which scheduler objects are still alive — consulted by thread_local
// destructors of lazily-registered threads, which can run after the
// scheduler (a stack object) is gone. g_live_mu is always acquired before
// EventScheduler::mu_ and never the other way around.
std::mutex& GlobalLiveMu() {
  static std::mutex mu;
  return mu;
}
EventScheduler*& GlobalLive() {
  static EventScheduler* live = nullptr;
  return live;
}

// Virtual clocks from consecutive scopes must not move backwards (callers
// cache Now()-derived deadlines across scope boundaries in tests): each
// scope's epoch starts at or after every instant a prior scope reached.
std::atomic<int64_t> g_epoch_floor_nanos{0};

TimePoint InitialEpoch() {
  int64_t nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      SteadyClock::now().time_since_epoch())
                      .count();
  int64_t floor = g_epoch_floor_nanos.load(std::memory_order_relaxed);
  if (floor >= nanos) nanos = floor + 1;
  return TimePoint(std::chrono::duration_cast<Duration>(
      std::chrono::nanoseconds(nanos)));
}

}  // namespace

// This thread's registration with the (single) active scheduler.
// internal_depth > 0 marks scheduler-internal frames: their Mutex/CondVar
// use must hit the raw primitives, not recurse into the hooks. A friend of
// EventScheduler (not in the anonymous namespace) so the destructor of a
// lazily-registered thread can retire its record.
struct ThreadRegistration {
  EventScheduler* sched = nullptr;
  EventScheduler::Rec* rec = nullptr;
  int internal_depth = 0;

  ~ThreadRegistration() {
    if (sched == nullptr) return;
    std::lock_guard<std::mutex> live(GlobalLiveMu());
    if (GlobalLive() == sched) sched->UnregisterExitingThread(rec);
  }
};

namespace {
thread_local ThreadRegistration t_reg;
}  // namespace

class EventScheduler::ScopedInternal {
 public:
  ScopedInternal() { ++t_reg.internal_depth; }
  ~ScopedInternal() { --t_reg.internal_depth; }
  ScopedInternal(const ScopedInternal&) = delete;
  ScopedInternal& operator=(const ScopedInternal&) = delete;
};

EventScheduler::EventScheduler() : EventScheduler(Options()) {}

EventScheduler::EventScheduler(Options options)
    : options_(options), epoch_(InitialEpoch()) {
  if (!options_.trace) {
    const char* env = std::getenv("GODIVA_SIM_TRACE");
    if (env != nullptr && env[0] != '\0') options_.trace = true;
  }
}

EventScheduler::~EventScheduler() {
  std::lock_guard<std::mutex> live(GlobalLiveMu());
  if (GlobalLive() == this) GlobalLive() = nullptr;
}

EventScheduler* EventScheduler::Active() {
  detail::SimSchedulerHooks* hooks = detail::ActiveSimScheduler();
  // The only SimSchedulerHooks implementation is this class; the static
  // type is the seam, not a real polymorphism axis.
  return static_cast<EventScheduler*>(hooks);
}

bool EventScheduler::Intercepts() const {
  return t_reg.internal_depth == 0;
}

TimePoint EventScheduler::VirtualNow() const {
  return epoch_ + std::chrono::duration_cast<Duration>(std::chrono::nanoseconds(
                      vnow_nanos_.load(std::memory_order_acquire)));
}

double EventScheduler::VirtualElapsedSeconds() const {
  return static_cast<double>(vnow_nanos_.load(std::memory_order_acquire)) *
         1e-9;
}

SchedulerStats EventScheduler::stats() const {
  ScopedInternal internal;
  MutexLock lock(&mu_);
  SchedulerStats out = stats_;
  out.virtual_seconds =
      static_cast<double>(vnow_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  return out;
}

std::string EventScheduler::TraceString() const {
  ScopedInternal internal;
  MutexLock lock(&mu_);
  std::string out;
  for (const std::string& line : trace_) {
    out += line;
    out += '\n';
  }
  if (trace_dropped_ > 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "# dropped %zu\n", trace_dropped_);
    out += buf;
  }
  return out;
}

int64_t EventScheduler::NanosAt(TimePoint tp) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_)
      .count();
}

int EventScheduler::ObjIdLocked(const void* obj) {
  auto it = obj_ids_.find(obj);
  if (it == obj_ids_.end()) {
    it = obj_ids_.emplace(obj, static_cast<int>(obj_ids_.size())).first;
  }
  return it->second;
}

void EventScheduler::TraceLocked(const char* event, const Rec* rec,
                                 const void* obj) {
  if (!options_.trace) return;
  if (trace_.size() >= kTraceLimit) {
    ++trace_dropped_;
    return;
  }
  char buf[96];
  if (obj != nullptr) {
    std::snprintf(buf, sizeof(buf), "%lld %s t%llu o%d",
                  static_cast<long long>(
                      vnow_nanos_.load(std::memory_order_relaxed)),
                  event, static_cast<unsigned long long>(rec ? rec->id : 0),
                  ObjIdLocked(obj));
  } else {
    std::snprintf(buf, sizeof(buf), "%lld %s t%llu",
                  static_cast<long long>(
                      vnow_nanos_.load(std::memory_order_relaxed)),
                  event, static_cast<unsigned long long>(rec ? rec->id : 0));
  }
  trace_.emplace_back(buf);
}

EventScheduler::Rec* EventScheduler::RegisterLocked() {
  recs_.push_back(std::make_unique<Rec>(recs_.size()));
  Rec* rec = recs_.back().get();
  ++live_recs_;
  ++stats_.threads_registered;
  return rec;
}

void EventScheduler::GrantLocked(Rec* rec) {
  rec->state = State::kRunning;
  running_ = rec;
  ++stats_.grants;
  // Raw notify (we are inside a ScopedInternal frame): wakes exactly the
  // parked OS thread owning `rec`, or no one if that thread has not
  // started / not parked yet — it will observe kRunning when it does.
  rec->cv.NotifyOne();
}

void EventScheduler::ScheduleNextLocked() {
  if (running_ != nullptr) return;
  while (true) {
    if (!ready_.empty()) {
      Rec* next = ready_.front();
      ready_.pop_front();
      GrantLocked(next);
      return;
    }
    // Drop cancelled timers, then advance the clock to the next live one.
    while (!timers_.empty() &&
           timers_.top().gen != timers_.top().rec->timer_gen) {
      timers_.pop();
    }
    if (timers_.empty()) {
      // Quiescent — or every thread is parked with nothing scheduled.
      // That is legitimate while an unregistered thread still runs real
      // code (it will register at its first instrumented op), so this is
      // a trace-mode diagnostic, not an abort.
      if (options_.trace && live_recs_ > 0 && !warned_idle_) {
        warned_idle_ = true;
        std::fprintf(stderr,
                     "godiva: EventScheduler idle with %d registered "
                     "thread(s) parked and no timers pending\n",
                     live_recs_);
      }
      return;
    }
    const int64_t when = timers_.top().when_nanos;
    if (when > vnow_nanos_.load(std::memory_order_relaxed)) {
      vnow_nanos_.store(when, std::memory_order_release);
      ++stats_.clock_advances;
    }
    while (!timers_.empty()) {
      TimerEvent ev = timers_.top();
      if (ev.gen != ev.rec->timer_gen) {
        timers_.pop();
        continue;
      }
      if (ev.when_nanos != when) break;
      timers_.pop();
      FireTimerLocked(ev.rec);
    }
    // Fired recs are READY now; loop grants the first.
  }
}

void EventScheduler::FireTimerLocked(Rec* rec) {
  ++stats_.timer_events;
  ++rec->timer_gen;  // consume the event
  if (rec->state == State::kParkedCv) {
    // Deadline beat the notify: leave the cv's wait list.
    auto it = waiters_.find(rec->wait_key);
    if (it != waiters_.end()) {
      auto& q = it->second;
      q.erase(std::find(q.begin(), q.end(), rec));
      if (q.empty()) waiters_.erase(it);
    }
    rec->notified = false;
  }
  rec->wait_key = nullptr;
  rec->state = State::kReady;
  ready_.push_back(rec);
  TraceLocked("wake", rec, nullptr);
}

void EventScheduler::WaitForGrantLocked(Rec* rec) {
  while (rec->state != State::kRunning) rec->cv.Wait(&mu_);
}

void EventScheduler::ParkLocked(Rec* rec, State state, const void* wait_key) {
  rec->state = state;
  rec->wait_key = wait_key;
  if (running_ == rec) running_ = nullptr;
  ScheduleNextLocked();
  WaitForGrantLocked(rec);
}

void EventScheduler::PushTimerLocked(Rec* rec, int64_t when_nanos) {
  timers_.push(TimerEvent{when_nanos, ++next_seq_, rec, ++rec->timer_gen});
}

void EventScheduler::FinishRecLocked(Rec* rec) {
  rec->state = State::kExited;
  for (Rec* joiner : rec->joiners) {
    joiner->state = State::kReady;
    joiner->wait_key = nullptr;
    ready_.push_back(joiner);
  }
  rec->joiners.clear();
  --live_recs_;
  TraceLocked("exit", rec, nullptr);
  if (running_ == rec) {
    running_ = nullptr;
    ScheduleNextLocked();
  }
}

EventScheduler::Rec* EventScheduler::EnsureRegistered() {
  if (t_reg.sched == this) return t_reg.rec;
  // Lazy registration: a thread spawned outside godiva::Thread reaching
  // its first instrumented operation. It queues for the permit like
  // everyone else — from here on it runs only when granted.
  MutexLock lock(&mu_);
  Rec* rec = RegisterLocked();
  TraceLocked("register", rec, nullptr);
  ready_.push_back(rec);
  ScheduleNextLocked();
  WaitForGrantLocked(rec);
  t_reg.sched = this;
  t_reg.rec = rec;
  return rec;
}

void EventScheduler::DeSleepFor(Duration d) {
  ScopedInternal internal;
  Rec* rec = EnsureRegistered();
  MutexLock lock(&mu_);
  ++stats_.sleeps;
  const int64_t when =
      vnow_nanos_.load(std::memory_order_relaxed) +
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  PushTimerLocked(rec, when);
  TraceLocked("sleep", rec, nullptr);
  ParkLocked(rec, State::kParkedTimer, nullptr);
}

void EventScheduler::DeLock(Mutex* mu) {
  ScopedInternal internal;
  Rec* rec = EnsureRegistered();
  if (mu->RawTryLock()) return;
  // Held by a parked thread (single occupancy: no running thread but us).
  MutexLock lock(&mu_);
  ++stats_.mutex_parks;
  while (!mu->RawTryLock()) {
    waiters_[mu].push_back(rec);
    TraceLocked("mpark", rec, mu);
    ParkLocked(rec, State::kParkedMutex, mu);
  }
}

void EventScheduler::AcquireRawParked(Mutex* mu, Rec* rec) {
  if (mu->RawTryLock()) return;
  MutexLock lock(&mu_);
  ++stats_.mutex_parks;
  while (!mu->RawTryLock()) {
    waiters_[mu].push_back(rec);
    TraceLocked("mpark", rec, mu);
    ParkLocked(rec, State::kParkedMutex, mu);
  }
}

void EventScheduler::DeUnlocked(Mutex* mu) {
  ScopedInternal internal;
  MutexLock lock(&mu_);
  auto it = waiters_.find(mu);
  if (it == waiters_.end()) return;
  // Wake everyone parked on this mutex; they re-try the raw lock in FIFO
  // order as each is granted, re-parking on failure.
  for (Rec* rec : it->second) {
    rec->state = State::kReady;
    rec->wait_key = nullptr;
    ready_.push_back(rec);
    TraceLocked("munlock-wake", rec, mu);
  }
  waiters_.erase(it);
}

bool EventScheduler::DeCvWait(CondVar* cv, Mutex* mu,
                              const TimePoint* deadline) {
  ScopedInternal internal;
  Rec* rec = EnsureRegistered();
  bool notified = false;
  {
    MutexLock lock(&mu_);
    ++stats_.cv_parks;
    if (deadline != nullptr) {
      const int64_t when = NanosAt(*deadline);
      if (when <= vnow_nanos_.load(std::memory_order_relaxed)) {
        // Already past: report timeout without releasing the caller's
        // lock or yielding the permit.
        return false;
      }
      PushTimerLocked(rec, when);
    }
    mu->RawUnlock();
    waiters_[cv].push_back(rec);
    rec->notified = false;
    TraceLocked("cvwait", rec, cv);
    ParkLocked(rec, State::kParkedCv, cv);
    notified = rec->notified;
  }
  AcquireRawParked(mu, rec);
  return notified;
}

void EventScheduler::DeCvNotify(CondVar* cv, bool all) {
  ScopedInternal internal;
  EnsureRegistered();
  MutexLock lock(&mu_);
  auto it = waiters_.find(cv);
  if (it == waiters_.end()) return;
  std::deque<Rec*>& q = it->second;
  size_t n = all ? q.size() : 1;
  for (size_t i = 0; i < n; ++i) {
    Rec* rec = q.front();
    q.pop_front();
    ++rec->timer_gen;  // cancel a pending wait deadline, if any
    rec->notified = true;
    rec->wait_key = nullptr;
    rec->state = State::kReady;
    ready_.push_back(rec);
    TraceLocked("notify", rec, cv);
  }
  if (q.empty()) waiters_.erase(it);
}

void* EventScheduler::DeThreadSpawn() {
  ScopedInternal internal;
  EnsureRegistered();  // the spawner
  MutexLock lock(&mu_);
  Rec* rec = RegisterLocked();
  ready_.push_back(rec);
  TraceLocked("spawn", rec, nullptr);
  return rec;
}

void EventScheduler::DeThreadAdopt(void* token) {
  ScopedInternal internal;
  Rec* rec = static_cast<Rec*>(token);
  MutexLock lock(&mu_);
  // The spawner pre-registered us READY; the permit may even have been
  // granted to us before our OS thread started.
  WaitForGrantLocked(rec);
  t_reg.sched = this;
  t_reg.rec = rec;
}

void EventScheduler::DeThreadExit(void* token) {
  ScopedInternal internal;
  Rec* rec = static_cast<Rec*>(token);
  MutexLock lock(&mu_);
  FinishRecLocked(rec);
  t_reg.sched = nullptr;
  t_reg.rec = nullptr;
}

void EventScheduler::DeThreadJoin(void* token) {
  ScopedInternal internal;
  Rec* self = EnsureRegistered();
  Rec* target = static_cast<Rec*>(token);
  MutexLock lock(&mu_);
  TraceLocked("join", self, target);
  while (target->state != State::kExited) {
    target->joiners.push_back(self);
    ParkLocked(self, State::kParkedJoin, target);
  }
}

void EventScheduler::UnregisterExitingThread(void* rec_in)
    NO_THREAD_SAFETY_ANALYSIS {
  // Called from a thread_local destructor of a lazily-registered thread
  // (godiva::Thread children go through DeThreadExit instead), with
  // GlobalLiveMu() held so `this` is known alive. Locks the raw mutex
  // directly: thread_local destruction order means the lock-rank
  // checker's own thread_local state may already be gone on this thread,
  // so Mutex::Lock's bookkeeping must not run here.
  ScopedInternal internal;
  mu_.raw_.lock();
  FinishRecLocked(static_cast<Rec*>(rec_in));
  mu_.raw_.unlock();
}

void EventScheduler::Activate() {
  detail::SimSchedulerHooks* expected = nullptr;
  if (!detail::ActiveSimSchedulerSlot().compare_exchange_strong(
          expected, this, std::memory_order_acq_rel)) {
    std::fprintf(stderr,
                 "godiva: nested DiscreteEventScope is not supported\n");
    std::abort();
  }
  {
    std::lock_guard<std::mutex> live(GlobalLiveMu());
    GlobalLive() = this;
  }
  // The activating thread holds the permit from the start.
  ScopedInternal internal;
  EnsureRegistered();
}

void EventScheduler::Deactivate() {
  {
    ScopedInternal internal;
    MutexLock lock(&mu_);
    if (t_reg.sched == this && t_reg.rec != nullptr) {
      FinishRecLocked(t_reg.rec);
      t_reg.sched = nullptr;
      t_reg.rec = nullptr;
    }
    if (live_recs_ > 0) {
      std::fprintf(stderr,
                   "godiva: DiscreteEventScope destroyed with %d thread(s) "
                   "still registered; join them before ending the scope\n",
                   live_recs_);
    }
  }
  detail::ActiveSimSchedulerSlot().store(nullptr, std::memory_order_release);
  {
    std::lock_guard<std::mutex> live(GlobalLiveMu());
    GlobalLive() = nullptr;
  }
  // Later scopes (and raw Now() reads) must not see time move backwards.
  int64_t reached = NanosAt(VirtualNow());
  int64_t floor = g_epoch_floor_nanos.load(std::memory_order_relaxed);
  int64_t epoch_nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          epoch_.time_since_epoch())
          .count();
  while (floor < epoch_nanos + reached &&
         !g_epoch_floor_nanos.compare_exchange_weak(
             floor, epoch_nanos + reached, std::memory_order_relaxed)) {
  }
  MaybeDumpTrace();
}

void EventScheduler::MaybeDumpTrace() {
  const char* path = std::getenv("GODIVA_SIM_TRACE");
  if (path == nullptr || path[0] == '\0') return;
  // "1"/"on" enable collection without a dump file.
  if (std::strcmp(path, "1") == 0 || std::strcmp(path, "on") == 0) return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) {
    std::fprintf(stderr, "godiva: cannot open GODIVA_SIM_TRACE file %s\n",
                 path);
    return;
  }
  SchedulerStats final_stats = stats();
  std::fprintf(f, "# scope: %lld events, %lld grants, %.9fs virtual\n",
               static_cast<long long>(final_stats.timer_events),
               static_cast<long long>(final_stats.grants),
               final_stats.virtual_seconds);
  std::string trace = TraceString();
  std::fwrite(trace.data(), 1, trace.size(), f);
  std::fclose(f);
}

DiscreteEventScope::DiscreteEventScope(EventScheduler::Options options)
    : scheduler_(options) {
  scheduler_.Activate();
}

DiscreteEventScope::~DiscreteEventScope() { scheduler_.Deactivate(); }

}  // namespace godiva
