// runner.hpp - the parallel experiment + training runner.
//
// Every figure, ablation and example in this repo is a sweep of independent
// cells: evaluation sweeps are (app x governor x seed x config) sessions
// through the 1 ms engine loop, training sweeps are (app x NextConfig x
// seed x budget) online-learning runs. The runner makes both declarative:
// callers describe a RunPlan or a TrainingPlan, and run_plan() /
// run_training_plan() execute it across one shared worker pool
// (run_indexed_tasks), returning results in plan order. Each task is one
// whole cell, stepped through Engine::step() from start to finish - the
// runner's only way to advance a session.
//
// Determinism contract: a cell's entire trajectory is a function of its
// spec (the engine holds no global state, and every stochastic element
// draws from the spec's seed), so parallel execution is *bit-identical* to
// serial execution regardless of worker count or scheduling. For training
// cells the contract covers the learned table and every derived field
// except TrainingResult::wall_seconds, which measures host wall-clock by
// definition. Asserted by tests/sim/runner_test.cpp and
// tests/sim/training_plan_test.cpp. The contract requires app factories to
// be pure: make_app-style factories that derive everything from the seed
// argument qualify; factories that mutate shared captured state do not.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/task_pool.hpp"
#include "sim/experiment.hpp"
#include "workload/apps.hpp"

namespace nextgov::sim {

// --- the shared worker pool ------------------------------------------------

// The pool itself lives in common/task_pool.hpp so the layers below sim
// (the federated merge, the snapshot writer) can run on it too. run_plan()
// and run_training_plan() are thin wrappers over it; benches with bespoke
// per-cell loops (e.g. fig06's instrumented training) use it directly.
using nextgov::resolve_workers;
using nextgov::run_indexed_tasks;

struct RunnerOptions {
  /// Worker threads; 0 = one per hardware thread. 1 = serial in the
  /// calling thread (no pool).
  std::size_t workers{0};
};

// --- evaluation sweeps -----------------------------------------------------

/// One independent session of a run plan.
struct SessionSpec {
  std::string name;        ///< label copied into SessionResult::app
  AppFactory app_factory;  ///< must be pure (see determinism contract above)
  ExperimentConfig config;
};

/// Declarative set of sessions. Build with add()/add_grid(), execute with
/// run_plan().
class RunPlan {
 public:
  /// Adds one session for a catalog app.
  void add(workload::AppId app, const ExperimentConfig& config);
  /// Adds one session for an arbitrary app factory.
  void add(AppFactory factory, std::string name, const ExperimentConfig& config);

  /// Cross product: one session per (app, governor, seed), each starting
  /// from `base` with the governor and seed substituted. Suits homogeneous
  /// sweeps; sweeps needing per-cell config (e.g. a trained table per
  /// governor, as in the Fig. 7/8 benches) build their plans with add().
  void add_grid(std::span<const workload::AppId> apps,
                std::span<const GovernorKind> governors,
                std::span<const std::uint64_t> seeds, const ExperimentConfig& base);

  [[nodiscard]] std::size_t size() const noexcept { return sessions_.size(); }
  [[nodiscard]] bool empty() const noexcept { return sessions_.empty(); }
  [[nodiscard]] const std::vector<SessionSpec>& sessions() const noexcept { return sessions_; }

 private:
  std::vector<SessionSpec> sessions_;
};

/// Executes every session of `plan` and returns results in plan order.
[[nodiscard]] std::vector<SessionResult> run_plan(const RunPlan& plan,
                                                  const RunnerOptions& options = {});

// --- training sweeps -------------------------------------------------------

/// One independent training cell of a training plan.
struct TrainingSpec {
  std::string name;        ///< label for diagnostics/CSV rows
  AppFactory app_factory;  ///< must be pure (see determinism contract above)
  core::NextConfig config;
  TrainingOptions options;
};

/// Declarative set of (app x NextConfig x seed x budget) training cells,
/// mirroring RunPlan. Build with add()/add_seed_sweep(), execute with
/// run_training_plan(). The figure benches route *all* their agent
/// training through this (one agent per cell trains concurrently instead
/// of serializing the sweep).
class TrainingPlan {
 public:
  /// Adds one training cell for a catalog app.
  void add(workload::AppId app, const core::NextConfig& config,
           const TrainingOptions& options);
  /// Adds one training cell for an arbitrary app factory.
  void add(AppFactory factory, std::string name, const core::NextConfig& config,
           const TrainingOptions& options);

  /// `count` cells of `base` whose seeds are derive_seed(base_seed, i) -
  /// the repo's one documented seed-derivation scheme for sweeps.
  void add_seed_sweep(workload::AppId app, const core::NextConfig& config,
                      const TrainingOptions& base, std::size_t count,
                      std::uint64_t base_seed);

  [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }
  [[nodiscard]] bool empty() const noexcept { return cells_.empty(); }
  [[nodiscard]] const std::vector<TrainingSpec>& cells() const noexcept { return cells_; }

 private:
  std::vector<TrainingSpec> cells_;
};

/// Executes every training cell of `plan` and returns TrainingResults in
/// plan order, bit-identical to serial execution (wall_seconds excepted).
[[nodiscard]] std::vector<TrainingResult> run_training_plan(const TrainingPlan& plan,
                                                            const RunnerOptions& options = {});

/// Stateless SplitMix64-style seed derivation for grid sweeps: gives every
/// (base, index) pair an independent, reproducible stream. Used by
/// add_grid()/add_seed_sweep() callers that want per-cell seeds from one
/// base seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) noexcept;

}  // namespace nextgov::sim
