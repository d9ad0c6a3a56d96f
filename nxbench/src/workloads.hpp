// workloads.hpp - the benchmark's workloads (see nxbench/README.md).
#pragma once

#include "harness.hpp"

namespace nxbench {

/// 12-scenario library x {schedutil, Next deployed} x 4 seeds.
void run_eval_sweep(const Args& args, Report& report);
/// The same library x 4 seeds as a fixed-budget training plan.
void run_train_sweep(const Args& args, Report& report);
/// A churning 16-device fleet server, sessions of 20 short rounds.
void run_fleet_rounds(const Args& args, Report& report);

}  // namespace nxbench
