#include "sim/experiment.hpp"

#include <chrono>
#include <cstring>

#include "common/error.hpp"
#include "governors/intqos.hpp"
#include "governors/schedutil.hpp"
#include "governors/simple_governors.hpp"

namespace nextgov::sim {

std::string_view to_string(GovernorKind kind) noexcept {
  switch (kind) {
    case GovernorKind::kSchedutil: return "schedutil";
    case GovernorKind::kPerformance: return "performance";
    case GovernorKind::kPowersave: return "powersave";
    case GovernorKind::kOndemand: return "ondemand";
    case GovernorKind::kIntQos: return "intqos";
    case GovernorKind::kNext: return "next";
  }
  return "?";
}

namespace {

std::unique_ptr<governors::FreqGovernor> make_freq_governor(GovernorKind kind) {
  switch (kind) {
    case GovernorKind::kPerformance: return std::make_unique<governors::PerformanceGovernor>();
    case GovernorKind::kPowersave: return std::make_unique<governors::PowersaveGovernor>();
    case GovernorKind::kOndemand: return std::make_unique<governors::OndemandGovernor>();
    // schedutil underlies the stock config and both meta governors.
    case GovernorKind::kSchedutil:
    case GovernorKind::kIntQos:
    case GovernorKind::kNext: return std::make_unique<governors::SchedutilGovernor>();
  }
  throw ConfigError("unknown governor kind");
}

std::unique_ptr<governors::MetaGovernor> make_meta_governor(const ExperimentConfig& config,
                                                            const soc::Soc& soc) {
  switch (config.governor) {
    case GovernorKind::kIntQos: return std::make_unique<governors::IntQosGovernor>();
    case GovernorKind::kNext: {
      auto agent = core::make_next_agent(soc, config.next_config, config.seed ^ 0xa9e27);
      if (config.trained_table != nullptr) {
        agent->set_q_table(*config.trained_table);
        agent->set_mode(core::AgentMode::kDeployed);
      } else {
        agent->set_mode(config.next_mode);
      }
      return agent;
    }
    default: return nullptr;
  }
}

}  // namespace

std::unique_ptr<Engine> make_engine(AppFactory app_factory, const ExperimentConfig& config) {
  require(static_cast<bool>(app_factory), "make_engine needs an app factory");
  auto soc = soc::make_exynos9810();
  auto meta = make_meta_governor(config, soc);
  EngineConfig engine_config;
  engine_config.ambient = config.ambient;
  engine_config.refresh_hz = config.refresh_hz;
  engine_config.record_period = config.record_period;
  return std::make_unique<Engine>(std::move(soc), app_factory(config.seed),
                                  make_freq_governor(config.governor), std::move(meta),
                                  engine_config);
}

SessionResult summarize(const Engine& engine, std::string app_name, std::string governor_name) {
  SessionResult r;
  r.app = std::move(app_name);
  r.governor = std::move(governor_name);
  r.duration_s = engine.now().seconds();
  const auto& totals = engine.totals();
  r.avg_power_w = totals.power_w.mean();
  r.peak_power_w = totals.power_w.max();
  r.avg_temp_big_c = totals.temp_big_c.mean();
  r.peak_temp_big_c = totals.temp_big_c.max();
  r.avg_temp_device_c = totals.temp_device_c.mean();
  r.peak_temp_device_c = totals.temp_device_c.max();
  r.avg_fps = engine.average_fps();
  r.energy_j = totals.energy_j;
  r.frames_presented = totals.frames_presented;
  r.frames_dropped = totals.frames_dropped;
  const auto ppdw_series = engine.recorder().column(&Sample::ppdw);
  r.avg_ppdw = mean_of(ppdw_series);
  r.series = engine.recorder().samples();
  return r;
}

bool bit_identical(const SessionResult& a, const SessionResult& b) noexcept {
  if (a.app != b.app || a.governor != b.governor || a.duration_s != b.duration_s ||
      a.avg_power_w != b.avg_power_w || a.peak_power_w != b.peak_power_w ||
      a.avg_temp_big_c != b.avg_temp_big_c || a.peak_temp_big_c != b.peak_temp_big_c ||
      a.avg_temp_device_c != b.avg_temp_device_c ||
      a.peak_temp_device_c != b.peak_temp_device_c || a.avg_fps != b.avg_fps ||
      a.energy_j != b.energy_j || a.frames_presented != b.frames_presented ||
      a.frames_dropped != b.frames_dropped || a.avg_ppdw != b.avg_ppdw ||
      a.series.size() != b.series.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    if (std::memcmp(&a.series[i], &b.series[i], sizeof(Sample)) != 0) return false;
  }
  return true;
}

SessionResult run_session(AppFactory app_factory, std::string app_name,
                          const ExperimentConfig& config) {
  auto engine = make_engine(std::move(app_factory), config);
  engine->run(config.duration);
  return summarize(*engine, std::move(app_name), std::string{to_string(config.governor)});
}

SessionResult run_app_session(workload::AppId app, const ExperimentConfig& config) {
  return run_session(
      [app](std::uint64_t seed) { return workload::make_app(app, seed); },
      std::string{workload::to_string(app)}, config);
}

std::unique_ptr<Engine> make_training_engine(const AppFactory& app_factory,
                                             const core::NextConfig& config,
                                             const TrainingOptions& options) {
  ExperimentConfig exp;
  exp.governor = GovernorKind::kNext;
  exp.seed = options.seed;
  exp.ambient = options.ambient;
  exp.refresh_hz = options.refresh_hz;
  exp.next_config = config;
  exp.next_mode = core::AgentMode::kTraining;

  auto engine = make_engine(app_factory, exp);
  if (options.initial_table != nullptr) {
    // Warm start (federated merge rounds): resume learning from the given
    // aggregate instead of a cold table. Mode stays kTraining.
    auto* agent = dynamic_cast<core::NextAgent*>(engine->meta());
    NEXTGOV_ASSERT(agent != nullptr);
    agent->set_q_table(*options.initial_table);
  }
  return engine;
}

namespace {

/// Cadence at which training re-checks convergence.
constexpr SimTime kTrainingCheckChunk = SimTime::from_seconds(1.0);

/// The convergence detector applied after every trained chunk. Convergence
/// = TD errors settled (enough decisions) AND the quantized state space
/// stopped growing: the agent keeps discovering new states for as long as
/// the discretization is finer, which is exactly what makes finer FPS
/// quantization train longer (the paper's Fig. 6).
struct TrainingConvergence {
  static constexpr int kCoverageSettleChunks = 45;  // 45 s without real discovery
  std::size_t prev_states{0};
  int settled_chunks{0};
  bool converged{false};
  double sim_seconds_at_convergence{0.0};

  /// Feed the agent's state after one more kTrainingCheckChunk of training.
  void on_chunk(std::size_t states_now, std::uint64_t decisions, double trained_s) noexcept {
    settled_chunks = (states_now - prev_states <= 1) ? settled_chunks + 1 : 0;
    prev_states = states_now;
    // The TD-EMA detector alone is dominated by reward noise and the
    // epsilon schedule; coverage settling is what actually scales with
    // the discretization (Fig. 6). Require both a minimum learning
    // volume and a sustained stop in state discovery.
    if (!converged && decisions > 2000 && settled_chunks >= kCoverageSettleChunks) {
      converged = true;
      sim_seconds_at_convergence = trained_s;
    }
  }
};

}  // namespace

TrainingResult train_next_on(AppFactory app_factory, const core::NextConfig& config,
                             const TrainingOptions& options) {
  require(static_cast<bool>(app_factory), "train_next_on needs an app factory");
  auto engine = make_training_engine(app_factory, config, options);
  auto* agent = dynamic_cast<core::NextAgent*>(engine->meta());
  NEXTGOV_ASSERT(agent != nullptr);

  const auto wall_start = std::chrono::steady_clock::now();
  SimTime trained = SimTime::zero();
  std::uint64_t episode = 0;
  TrainingConvergence convergence;

  while (trained < options.max_duration) {
    SimTime episode_left = options.episode_length;
    while (episode_left.us() > 0 && trained < options.max_duration) {
      const SimTime chunk = std::min(kTrainingCheckChunk, episode_left);
      engine->run(chunk);
      trained += chunk;
      episode_left = episode_left - chunk;
      convergence.on_chunk(agent->q_table().state_count(), agent->decisions(),
                           trained.seconds());
      if (convergence.converged && options.stop_at_convergence) break;
    }
    if (convergence.converged && options.stop_at_convergence) break;
    ++episode;
    // User re-opens the app: fresh app instance + cold thermal state, but
    // the learned Q-table persists (Section IV-B).
    engine->reset_session(app_factory(options.seed + episode + 1));
  }
  const auto wall_end = std::chrono::steady_clock::now();

  const std::size_t states = agent->q_table().state_count();
  return TrainingResult{agent->take_q_table(),
                        convergence.converged,
                        convergence.converged ? convergence.sim_seconds_at_convergence
                                              : trained.seconds(),
                        std::chrono::duration<double>(wall_end - wall_start).count(),
                        agent->decisions(),
                        agent->mean_reward(),
                        states};
}

TrainingResult train_next(workload::AppId app, const core::NextConfig& config,
                          const TrainingOptions& options) {
  return train_next_on([app](std::uint64_t seed) { return workload::make_app(app, seed); },
                       config, options);
}

}  // namespace nextgov::sim
