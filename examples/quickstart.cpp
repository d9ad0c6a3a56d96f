// quickstart - the five-minute tour of the library.
//
// Builds the Exynos 9810 model, runs a short Facebook session under stock
// schedutil, then trains the Next agent on the same workload and shows the
// power/thermal win at equal QoS. This is the paper's experiment in
// miniature.
#include <cstdio>

#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "workload/apps.hpp"

int main() {
  using namespace nextgov;

  std::puts("nextgov quickstart: Next (DATE 2020) on a simulated Galaxy Note 9\n");

  // 1. Every experiment needs a workload. The scenario library describes
  //    complete operating points (workload, duration, ambient, panel);
  //    app_scenario() is the paper-length single-app point. Factories keep
  //    sessions reproducible: the same seed replays the same behaviour.
  const auto app = workload::AppId::kFacebook;
  const sim::ScenarioSpec spec = sim::app_scenario(app);

  // 2. Baseline: stock schedutil for one paper-length session. Sessions
  //    run through the plan runner - a one-entry plan here, a whole
  //    scenario matrix in bench/scenario_matrix.
  sim::ExperimentConfig config = spec.experiment_config(sim::GovernorKind::kSchedutil, 42);
  sim::RunPlan baseline_plan;
  baseline_plan.add(spec.app_factory(), spec.name, config);
  const sim::SessionResult stock = std::move(sim::run_plan(baseline_plan).front());
  std::printf("[schedutil] avg power %.2f W | peak big temp %.1f C | avg FPS %.1f\n",
              stock.avg_power_w, stock.peak_temp_big_c, stock.avg_fps);

  // 3. Train Next online on the app (Section IV-B): the agent watches the
  //    25 ms frame window, learns Q-values over {freqs, FPS, target, power,
  //    temps}, and actuates per-cluster maxfreq caps every 100 ms.
  std::puts("\ntraining Next (online, simulated device time)...");
  sim::TrainingOptions train;
  train.max_duration = SimTime::from_seconds(1200.0);
  train.seed = 1042;
  const sim::TrainingResult trained = sim::train_next(app, core::NextConfig{}, train);
  std::printf("  %llu decisions, %zu states visited, mean reward %.3f%s\n",
              static_cast<unsigned long long>(trained.decisions), trained.states_visited,
              trained.final_mean_reward, trained.converged ? " (converged)" : "");

  // 4. Deploy the learned Q-table greedily ("fully trained", Section V).
  config = spec.experiment_config(sim::GovernorKind::kNext, 42);
  config.trained_table = &trained.table;
  sim::RunPlan deploy_plan;
  deploy_plan.add(spec.app_factory(), spec.name, config);
  const sim::SessionResult next = std::move(sim::run_plan(deploy_plan).front());
  std::printf("\n[Next]      avg power %.2f W | peak big temp %.1f C | avg FPS %.1f\n",
              next.avg_power_w, next.peak_temp_big_c, next.avg_fps);

  std::printf("\nresult: %.1f%% power saved, %.1f C cooler peak, FPS %.1f -> %.1f\n",
              100.0 * (1.0 - next.avg_power_w / stock.avg_power_w),
              stock.peak_temp_big_c - next.peak_temp_big_c, stock.avg_fps, next.avg_fps);
  std::puts("\nnext steps: examples/session_player for any app/governor combination,");
  std::puts("bench/ for the full paper reproduction, DESIGN.md for the architecture.");
  return 0;
}
