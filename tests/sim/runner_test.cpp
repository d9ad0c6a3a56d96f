// Tests for the batch/parallel experiment runner: plan construction, seed
// derivation, and the core determinism contract - N-worker execution is
// bit-identical to serial execution in plan order.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "common/error.hpp"
#include "sim/runner.hpp"

namespace nextgov::sim {
namespace {

RunPlan small_grid() {
  // 2 apps x 3 governors x 2 seeds = 12 sessions, kept short so the suite
  // stays fast while still crossing governor/record/throttle boundaries.
  const workload::AppId apps[] = {workload::AppId::kFacebook, workload::AppId::kLineage};
  const GovernorKind governors[] = {GovernorKind::kSchedutil, GovernorKind::kOndemand,
                                    GovernorKind::kNext};
  const std::uint64_t seeds[] = {1, 2};
  ExperimentConfig base;
  base.duration = SimTime::from_seconds(5.0);
  RunPlan plan;
  plan.add_grid(apps, governors, seeds, base);
  return plan;
}

void expect_bit_identical(const SessionResult& a, const SessionResult& b) {
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.governor, b.governor);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.avg_power_w, b.avg_power_w);
  EXPECT_EQ(a.peak_power_w, b.peak_power_w);
  EXPECT_EQ(a.avg_temp_big_c, b.avg_temp_big_c);
  EXPECT_EQ(a.peak_temp_big_c, b.peak_temp_big_c);
  EXPECT_EQ(a.avg_temp_device_c, b.avg_temp_device_c);
  EXPECT_EQ(a.peak_temp_device_c, b.peak_temp_device_c);
  EXPECT_EQ(a.avg_fps, b.avg_fps);
  EXPECT_EQ(a.energy_j, b.energy_j);
  EXPECT_EQ(a.frames_presented, b.frames_presented);
  EXPECT_EQ(a.frames_dropped, b.frames_dropped);
  EXPECT_EQ(a.avg_ppdw, b.avg_ppdw);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    // Sample is all doubles, so memcmp equality is exactly bitwise
    // equality across every recorded field.
    EXPECT_EQ(std::memcmp(&a.series[i], &b.series[i], sizeof(Sample)), 0) << "sample " << i;
  }
}

TEST(RunPlan, GridBuildsCrossProductInOrder) {
  const RunPlan plan = small_grid();
  ASSERT_EQ(plan.size(), 12u);
  // Order: apps outermost, then governors, then seeds.
  EXPECT_EQ(plan.sessions()[0].name, "facebook");
  EXPECT_EQ(plan.sessions()[0].config.seed, 1u);
  EXPECT_EQ(plan.sessions()[1].config.seed, 2u);
  EXPECT_EQ(plan.sessions()[6].name, "lineage");
  EXPECT_EQ(static_cast<int>(plan.sessions()[2].config.governor),
            static_cast<int>(GovernorKind::kOndemand));
}

TEST(RunPlan, AddRejectsNullFactory) {
  RunPlan plan;
  EXPECT_THROW(plan.add(AppFactory{}, "broken", ExperimentConfig{}), ConfigError);
}

TEST(Runner, ParallelIsBitIdenticalToSerial) {
  const RunPlan plan = small_grid();
  const auto serial = run_plan(plan, {.workers = 1});
  const auto parallel = run_plan(plan, {.workers = 4});
  ASSERT_EQ(serial.size(), plan.size());
  ASSERT_EQ(parallel.size(), plan.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_bit_identical(serial[i], parallel[i]);
  }
}

TEST(Runner, RepeatedParallelRunsAreIdentical) {
  RunPlan plan;
  ExperimentConfig base;
  base.duration = SimTime::from_seconds(3.0);
  base.governor = GovernorKind::kNext;  // exercises the RL stack's RNG
  base.seed = 11;
  plan.add(workload::AppId::kPubg, base);
  base.seed = 12;
  plan.add(workload::AppId::kPubg, base);
  const auto first = run_plan(plan, {.workers = 2});
  const auto second = run_plan(plan, {.workers = 3});
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    SCOPED_TRACE(i);
    expect_bit_identical(first[i], second[i]);
  }
}

TEST(Runner, EmptyPlanReturnsEmpty) {
  EXPECT_TRUE(run_plan(RunPlan{}).empty());
}

TEST(Runner, PropagatesSessionFailure) {
  RunPlan plan;
  ExperimentConfig ok;
  ok.duration = SimTime::from_seconds(1.0);
  plan.add(workload::AppId::kHome, ok);
  plan.add([](std::uint64_t) -> std::unique_ptr<workload::App> {
    throw ConfigError("boom");
  }, "broken", ok);
  EXPECT_THROW((void)run_plan(plan, {.workers = 2}), ConfigError);
}

TEST(Runner, DeriveSeedIsDeterministicAndSpreads) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t s = derive_seed(42, i);
    EXPECT_EQ(s, derive_seed(42, i));
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 1000u);                    // no collisions
  EXPECT_NE(derive_seed(42, 0), derive_seed(43, 0));  // base matters
}

}  // namespace
}  // namespace nextgov::sim
