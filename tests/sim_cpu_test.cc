// Tests for the virtual CPU: modeled durations, slot contention, and the
// competitor load used by the TG1 experiment.
//
// Every modeled duration is asserted exactly on the discrete-event virtual
// clock, where the scenarios have no noise. On scaled sleep only what
// holds on any host is asserted: a scaled sleep lasts at least its scaled
// duration.
#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <vector>

#include "common/clock.h"
#include "common/thread.h"
#include "sim/event_scheduler.h"
#include "sim/platform.h"
#include "sim/sim_cpu.h"
#include "sim/virtual_time.h"

namespace godiva {
namespace {

using std::chrono::milliseconds;

TEST(TimeScaleTest, ScalesSleeps) {
  {
    // Under the scheduler, SleepModeled advances the virtual clock by the
    // full modeled duration regardless of scale.
    DiscreteEventScope scope;
    TimeScale scale(0.01);
    Stopwatch sw;
    scale.SleepModeled(std::chrono::seconds(1));
    EXPECT_NEAR(sw.ElapsedSeconds(), 1.0, 1e-9);
    EXPECT_NEAR(scale.WallToModeledSeconds(FromSeconds(1.0)), 1.0, 1e-9);
  }
  TimeScale scale(0.01);
  Stopwatch sw;
  scale.SleepModeled(std::chrono::seconds(1));  // 10 ms wall
  EXPECT_GE(sw.ElapsedSeconds(), 0.009);
  EXPECT_NEAR(scale.WallToModeledSeconds(FromSeconds(0.01)), 1.0, 1e-9);
}

// Seconds `modeled` of compute takes on a one-slot CPU: virtual seconds
// under a DiscreteEventScope when `de`, scaled wall seconds otherwise.
double ComputeSeconds(Duration modeled, bool de) {
  std::optional<DiscreteEventScope> scope;
  if (de) scope.emplace();
  TimeScale scale(0.01);
  SimCpu cpu(SimCpu::Options{.slots = 1, .quantum = milliseconds(20)},
             &scale);
  Stopwatch sw;
  cpu.Compute(modeled);
  EXPECT_NEAR(cpu.TotalComputeSeconds(), ToSeconds(modeled), 1e-9);
  return sw.ElapsedSeconds();
}

TEST(SimCpuTest, ComputeTakesModeledTime) {
  EXPECT_NEAR(ComputeSeconds(milliseconds(500), /*de=*/true), 0.5, 1e-9);
  // 500 modeled ms = 5 ms wall.
  EXPECT_GE(ComputeSeconds(milliseconds(500), /*de=*/false), 0.004);
}

// Seconds two threads of 300 modeled ms each take on a `slots`-slot CPU,
// on the clock `de` picks.
double TwoThreadSeconds(int slots, bool de) {
  std::optional<DiscreteEventScope> scope;
  if (de) scope.emplace();
  TimeScale scale(0.01);
  SimCpu cpu(SimCpu::Options{.slots = slots, .quantum = milliseconds(10)},
             &scale);
  Stopwatch sw;
  std::vector<Thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&cpu] { cpu.Compute(milliseconds(300)); });
  }
  for (auto& th : threads) th.join();
  return sw.ElapsedSeconds();
}

TEST(SimCpuTest, SingleSlotSerializesTwoThreads) {
  // Exact: 600 modeled ms, fully serialized, zero scheduler overhead on
  // the virtual clock.
  EXPECT_NEAR(TwoThreadSeconds(1, /*de=*/true), 0.600, 1e-9);
  // 600 ms of modeled work on one slot → ≥ 6 ms wall.
  EXPECT_GE(TwoThreadSeconds(1, /*de=*/false), 0.0055);
}

TEST(SimCpuTest, TwoSlotsRunTwoThreadsConcurrently) {
  // Exact: both threads overlap perfectly in virtual time.
  EXPECT_NEAR(TwoThreadSeconds(2, /*de=*/true), 0.300, 1e-9);
}

TEST(SimCpuTest, ZeroDurationIsNoop) {
  TimeScale scale(0.01);
  SimCpu cpu(SimCpu::Options{}, &scale);
  cpu.Compute(Duration::zero());
  EXPECT_EQ(cpu.TotalComputeSeconds(), 0.0);
}

// Virtual seconds 200 modeled ms of work take on a `slots`-slot CPU,
// optionally with a competitor occupying one slot.
double CompetitorSeconds(int slots, bool with_competitor) {
  DiscreteEventScope scope;
  TimeScale scale(0.01);
  SimCpu cpu(SimCpu::Options{.slots = slots, .quantum = milliseconds(5)},
             &scale);
  std::optional<CompetitorLoad> competitor;
  if (with_competitor) competitor.emplace(&cpu);
  Stopwatch sw;
  cpu.Compute(milliseconds(200));
  return sw.ElapsedSeconds();
}

TEST(CompetitorLoadTest, SlowsSharedSlotWork) {
  // One slot: the competitor and the measured work alternate quanta, so
  // the measured work takes roughly twice as long as when running alone.
  double alone = CompetitorSeconds(1, false);
  double contended = CompetitorSeconds(1, true);
  EXPECT_NEAR(alone, 0.200, 1e-9);
  // Strict 1:1 quantum alternation on the virtual clock: the contended
  // run takes 1.9x–2.1x the solo run (the exact factor depends only on
  // who holds the final quantum, not on host scheduling).
  EXPECT_GT(contended, alone * 1.9);
  EXPECT_LT(contended, alone * 2.1);
  // And it is deterministic: a second run measures the same value.
  EXPECT_EQ(contended, CompetitorSeconds(1, true));
}

TEST(CompetitorLoadTest, DoesNotBlockSecondSlot) {
  // Identical work under a competitor: with two slots the work proceeds
  // on the free slot.
  EXPECT_NEAR(CompetitorSeconds(2, true), 0.200, 1e-9);
}

TEST(PlatformProfileTest, PresetsMatchThePaperTestbeds) {
  PlatformProfile engle = PlatformProfile::Engle();
  EXPECT_EQ(engle.name, "engle");
  EXPECT_EQ(engle.cpu_slots, 1);
  PlatformProfile turing = PlatformProfile::Turing();
  EXPECT_EQ(turing.name, "turing");
  EXPECT_EQ(turing.cpu_slots, 2);
  EXPECT_GT(engle.disk.bytes_per_second, 0);
  EXPECT_GT(turing.disk.bytes_per_second, 0);
}

}  // namespace
}  // namespace godiva
