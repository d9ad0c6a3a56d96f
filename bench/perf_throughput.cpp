// perf_throughput - engine throughput tracking for the repo's perf
// trajectory.
//
// Measures the cost of the 1 ms Engine::step() tick on one thread for the
// stock (schedutil) and Next stacks: every trial runs the whole scenario
// library (sim::scenario_names(), each scenario for its own duration) on
// one stack, and the bench repeats it 7 times after one untimed warm-up
// pass, reporting the median, min and spread of ns/tick. Then it
// measures the parallel experiment runner's scaling over serial for a
// small session sweep (including the bit-identity check the runner
// guarantees), and writes everything to bench_out/BENCH_throughput.json so
// successive PRs can be compared.
//
// `--smoke` shrinks the measurement so CI can run it on every PR (3 trials
// instead of 7, a smaller runner sweep): the numbers are then only
// smoke-level indicative, but the bit-identity contract is still fully
// exercised.
//
// On hosts with a single hardware thread the parallel timing is
// meaningless (threads just time-slice one core), so the speedup
// measurement is reported as skipped; the bit-identity check still runs
// with a real 4-thread pool, because the determinism contract is about
// scheduling, not about cores.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "workload/apps.hpp"

namespace {

using namespace nextgov;
using nextgov::bench::wall_seconds;

/// ns/tick of one serial pass over the scenario library on `kind`'s stack
/// (Next deploys an empty table: it decides every 100 ms and never learns).
/// Engine construction is outside the timing; only the ticks are timed.
double library_ns_per_tick(sim::GovernorKind kind) {
  double wall = 0.0;
  std::int64_t ticks = 0;
  for (const std::string_view name : sim::scenario_names()) {
    const sim::ScenarioSpec spec = sim::scenario(name);
    const sim::ExperimentConfig config = spec.experiment_config(kind);
    auto engine = sim::make_engine(spec.app_factory(), config);
    wall += wall_seconds([&] { engine->run(config.duration); });
    ticks += config.duration.us() / engine->config().step.us();
  }
  return wall * 1e9 / static_cast<double>(ticks);
}

/// Repeated serial library passes on one stack.
struct TickCost {
  double median_ns{0.0};
  double min_ns{0.0};
  double max_ns{0.0};
  /// (max - min) / median over the trials.
  [[nodiscard]] double spread() const { return (max_ns - min_ns) / median_ns; }
};

TickCost measure_tick_cost(sim::GovernorKind kind, int trials) {
  TickCost cost;
  (void)library_ns_per_tick(kind);  // warm-up
  std::vector<double> ns;
  for (int i = 0; i < trials; ++i) ns.push_back(library_ns_per_tick(kind));
  cost.median_ns = percentile(ns, 50.0);
  cost.min_ns = *std::min_element(ns.begin(), ns.end());
  cost.max_ns = *std::max_element(ns.begin(), ns.end());
  return cost;
}

void print_tick_cost(const char* stack, const TickCost& c) {
  std::printf("  serial %-9s %7.1f ns/tick median (min %.1f, spread %.1f %%)\n", stack,
              c.median_ns, c.min_ns, 100.0 * c.spread());
}

void write_tick_cost(std::FILE* out, const char* stack, const TickCost& c, bool last) {
  std::fprintf(out, "    \"%s\": {\n", stack);
  std::fprintf(out, "      \"ns_per_tick_median\": %.2f,\n", c.median_ns);
  std::fprintf(out, "      \"ns_per_tick_min\": %.2f,\n", c.min_ns);
  std::fprintf(out, "      \"ns_per_tick_max\": %.2f,\n", c.max_ns);
  std::fprintf(out, "      \"spread\": %.4f\n", c.spread());
  std::fprintf(out, "    }%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nextgov::bench;

  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  print_header("perf", smoke ? "engine ns/tick + runner scaling (smoke mode)"
                             : "engine ns/tick + parallel runner scaling");

  // --- serial tick cost ------------------------------------------------
  const int trials = smoke ? 3 : 7;
  const TickCost sched = measure_tick_cost(sim::GovernorKind::kSchedutil, trials);
  const TickCost next = measure_tick_cost(sim::GovernorKind::kNext, trials);
  print_tick_cost("schedutil", sched);
  print_tick_cost("next", next);

  // --- parallel runner scaling ------------------------------------------
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t n_sessions =
      smoke ? std::max<std::size_t>(4, hw) : std::max<std::size_t>(8, 2 * hw);
  sim::RunPlan plan;
  sim::ExperimentConfig base;
  base.duration = SimTime::from_seconds(smoke ? 15.0 : 60.0);
  for (std::size_t i = 0; i < n_sessions; ++i) {
    sim::ExperimentConfig cfg = base;
    cfg.governor = (i % 2 == 0) ? sim::GovernorKind::kSchedutil : sim::GovernorKind::kNext;
    cfg.seed = sim::derive_seed(42, i);
    plan.add(i % 2 == 0 ? workload::AppId::kLineage : workload::AppId::kFacebook, cfg);
  }

  // Shared serial-vs-pool measurement + bit-identity gate (bench_util):
  // timing workers clamped to min(sessions, hardware threads), the
  // contract check always under >= 4 threads even on single-core hosts.
  const PlanTiming timing = time_run_plan(plan, hw);

  if (timing.can_measure_speedup) {
    std::printf("  runner: %zu sessions, serial %.2f s, %zu workers %.2f s -> %.2fx, %s\n",
                n_sessions, timing.serial_s, timing.workers, timing.parallel_s,
                timing.speedup, timing.bit_identical ? "bit-identical" : "RESULTS DIVERGED");
  } else {
    std::printf("  runner: %zu sessions, serial %.2f s; speedup skipped (1 hardware "
                "thread), bit-identity (%zu threads): %s\n",
                n_sessions, timing.serial_s, timing.contract_workers,
                timing.bit_identical ? "bit-identical" : "RESULTS DIVERGED");
  }

  // --- JSON trajectory file ---------------------------------------------
  const std::string path = out_dir() + "/BENCH_throughput.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"perf_throughput\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"hardware_threads\": %u,\n", hw);
  std::fprintf(out, "  \"serial\": {\n");
  std::fprintf(out, "    \"workload\": \"scenario library, %zu scenarios, one thread\",\n",
               sim::scenario_names().size());
  std::fprintf(out, "    \"trials\": %d,\n", trials);
  write_tick_cost(out, "schedutil", sched, false);
  write_tick_cost(out, "next", next, true);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"parallel\": {\n");
  std::fprintf(out, "    \"sessions\": %zu,\n", n_sessions);
  std::fprintf(out, "    \"workers\": %zu,\n", timing.workers);
  std::fprintf(out, "    \"serial_wall_s\": %.4f,\n", timing.serial_s);
  if (timing.can_measure_speedup) {
    std::fprintf(out, "    \"status\": \"ok\",\n");
    std::fprintf(out, "    \"parallel_wall_s\": %.4f,\n", timing.parallel_s);
    std::fprintf(out, "    \"speedup\": %.3f,\n", timing.speedup);
  } else {
    std::fprintf(out, "    \"status\": \"skipped: single hardware thread\",\n");
    std::fprintf(out, "    \"speedup\": null,\n");
  }
  std::fprintf(out, "    \"bit_identical\": %s\n", timing.bit_identical ? "true" : "false");
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("  -> %s\n\n", path.c_str());
  return timing.bit_identical ? 0 : 1;
}
