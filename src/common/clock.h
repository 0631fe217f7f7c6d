// Clock helpers: a stopwatch and an accumulating timer on the clock
// godiva::Now() reads (virtual under a DiscreteEventScope, the steady wall
// clock otherwise), used for the paper's "visible I/O time" /
// "computation time" accounting.
//
// All timing in src/ goes through godiva::Now() / godiva::SleepFor()
// rather than SteadyClock::now() / std::this_thread::sleep_for directly:
// when a discrete-event scheduler is active (sim/event_scheduler.h) they
// read and advance the logical clock, so the same measurement code yields
// virtual time in discrete-event mode and real time otherwise.
#ifndef GODIVA_COMMON_CLOCK_H_
#define GODIVA_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace godiva {

using SteadyClock = std::chrono::steady_clock;
using Duration = SteadyClock::duration;
using TimePoint = SteadyClock::time_point;

inline double ToSeconds(Duration d) {
  return std::chrono::duration<double>(d).count();
}

inline Duration FromSeconds(double seconds) {
  return std::chrono::duration_cast<Duration>(
      std::chrono::duration<double>(seconds));
}

// The current time: the virtual clock when a discrete-event scheduler is
// active, SteadyClock::now() otherwise. Deadlines built as Now() + timeout
// are comparable with either source (the virtual clock is anchored to a
// real steady_clock epoch).
TimePoint Now();

// Sleeps for `d`: a parked scheduler event in discrete-event mode, a real
// std::this_thread::sleep_for otherwise.
void SleepFor(Duration d);

// Measures elapsed time since construction or the last Restart(), on the
// same clock Now() reads (virtual in discrete-event mode).
class Stopwatch {
 public:
  Stopwatch() : start_(Now()) {}

  void Restart() { start_ = Now(); }
  Duration Elapsed() const { return Now() - start_; }
  double ElapsedSeconds() const { return ToSeconds(Elapsed()); }

 private:
  TimePoint start_;
};

// Thread-safe accumulator of durations (nanosecond granularity). Used by
// GODIVA stats where several threads contribute to one total.
class TimeAccumulator {
 public:
  TimeAccumulator() : nanos_(0) {}
  TimeAccumulator(const TimeAccumulator&) = delete;
  TimeAccumulator& operator=(const TimeAccumulator&) = delete;

  void Add(Duration d) {
    nanos_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count(),
        std::memory_order_relaxed);
  }

  Duration Total() const {
    return std::chrono::duration_cast<Duration>(
        std::chrono::nanoseconds(nanos_.load(std::memory_order_relaxed)));
  }

  double TotalSeconds() const { return ToSeconds(Total()); }

  void Reset() { nanos_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> nanos_;
};

// RAII helper: adds the scope's elapsed time to an accumulator.
class ScopedTimer {
 public:
  explicit ScopedTimer(TimeAccumulator* accumulator)
      : accumulator_(accumulator) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { accumulator_->Add(stopwatch_.Elapsed()); }

 private:
  TimeAccumulator* accumulator_;
  Stopwatch stopwatch_;
};

}  // namespace godiva

#endif  // GODIVA_COMMON_CLOCK_H_
