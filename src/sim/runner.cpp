#include "sim/runner.hpp"

#include <optional>
#include <utility>

#include "common/error.hpp"

namespace nextgov::sim {

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) noexcept {
  // SplitMix64 finalizer over the combined (base, index) state: adjacent
  // indices land in unrelated streams.
  std::uint64_t z = base + (index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- evaluation sweeps -----------------------------------------------------

void RunPlan::add(workload::AppId app, const ExperimentConfig& config) {
  add([app](std::uint64_t seed) { return workload::make_app(app, seed); },
      std::string{workload::to_string(app)}, config);
}

void RunPlan::add(AppFactory factory, std::string name, const ExperimentConfig& config) {
  require(static_cast<bool>(factory), "RunPlan::add needs an app factory");
  sessions_.push_back(SessionSpec{std::move(name), std::move(factory), config});
}

void RunPlan::add_grid(std::span<const workload::AppId> apps,
                       std::span<const GovernorKind> governors,
                       std::span<const std::uint64_t> seeds, const ExperimentConfig& base) {
  for (const workload::AppId app : apps) {
    for (const GovernorKind governor : governors) {
      for (const std::uint64_t seed : seeds) {
        ExperimentConfig config = base;
        config.governor = governor;
        config.seed = seed;
        add(app, config);
      }
    }
  }
}

std::vector<SessionResult> run_plan(const RunPlan& plan, const RunnerOptions& options) {
  std::vector<SessionResult> results(plan.size());
  run_indexed_tasks(plan.size(), resolve_workers(options.workers, plan.size()),
                    [&](std::size_t i) {
                      const SessionSpec& spec = plan.sessions()[i];
                      results[i] = run_session(spec.app_factory, spec.name, spec.config);
                    });
  return results;
}

// --- training sweeps -------------------------------------------------------

void TrainingPlan::add(workload::AppId app, const core::NextConfig& config,
                       const TrainingOptions& options) {
  add([app](std::uint64_t seed) { return workload::make_app(app, seed); },
      std::string{workload::to_string(app)}, config, options);
}

void TrainingPlan::add(AppFactory factory, std::string name, const core::NextConfig& config,
                       const TrainingOptions& options) {
  require(static_cast<bool>(factory), "TrainingPlan::add needs an app factory");
  cells_.push_back(TrainingSpec{std::move(name), std::move(factory), config, options});
}

void TrainingPlan::add_seed_sweep(workload::AppId app, const core::NextConfig& config,
                                  const TrainingOptions& base, std::size_t count,
                                  std::uint64_t base_seed) {
  for (std::size_t i = 0; i < count; ++i) {
    TrainingOptions options = base;
    options.seed = derive_seed(base_seed, i);
    add(app, config, options);
  }
}

std::vector<TrainingResult> run_training_plan(const TrainingPlan& plan,
                                              const RunnerOptions& options) {
  // TrainingResult carries a QTable (no default state), so cells land in
  // optional slots and are moved out once the pool has drained.
  std::vector<std::optional<TrainingResult>> slots(plan.size());
  run_indexed_tasks(plan.size(), resolve_workers(options.workers, plan.size()),
                    [&](std::size_t i) {
                      const TrainingSpec& cell = plan.cells()[i];
                      slots[i] = train_next_on(cell.app_factory, cell.config, cell.options);
                    });
  std::vector<TrainingResult> results;
  results.reserve(plan.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace nextgov::sim
