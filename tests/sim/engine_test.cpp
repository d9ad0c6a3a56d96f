// Unit tests for the simulation engine: wiring, accounting, throttling,
// determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/next_agent.hpp"
#include "governors/schedutil.hpp"
#include "governors/simple_governors.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "soc/sensors.hpp"
#include "thermal/note9_model.hpp"
#include "workload/apps.hpp"

namespace nextgov::sim {
namespace {

using namespace nextgov::literals;

std::unique_ptr<Engine> make_test_engine(workload::AppId app, std::uint64_t seed,
                                         EngineConfig cfg = {}) {
  return std::make_unique<Engine>(soc::make_exynos9810(), workload::make_app(app, seed),
                                  std::make_unique<governors::SchedutilGovernor>(), nullptr,
                                  cfg);
}

TEST(Engine, TimeAdvancesByStep) {
  auto e = make_test_engine(workload::AppId::kFacebook, 1);
  EXPECT_EQ(e->now(), SimTime::zero());
  e->step();
  EXPECT_EQ(e->now(), 1_ms);
  e->run(99_ms);
  EXPECT_EQ(e->now(), 100_ms);
}

TEST(Engine, RequiresAppAndGovernor) {
  EXPECT_THROW(Engine(soc::make_exynos9810(), nullptr,
                      std::make_unique<governors::SchedutilGovernor>(), nullptr, {}),
               ConfigError);
  EXPECT_THROW(Engine(soc::make_exynos9810(), workload::make_app(workload::AppId::kHome, 1),
                      nullptr, nullptr, {}),
               ConfigError);
}

TEST(Engine, EnergyEqualsMeanPowerTimesTime) {
  auto e = make_test_engine(workload::AppId::kFacebook, 1);
  e->run(20_s);
  const auto& t = e->totals();
  EXPECT_NEAR(t.energy_j, t.power_w.mean() * 20.0, t.energy_j * 0.01);
}

TEST(Engine, SensorsAreQuantized) {
  auto e = make_test_engine(workload::AppId::kFacebook, 1);
  e->run(5_s);
  const auto& s = e->observation().sensors;
  EXPECT_NEAR(s.big.value() * 10.0, std::round(s.big.value() * 10.0), 1e-9);
  EXPECT_NEAR(s.power.value() * 1000.0, std::round(s.power.value() * 1000.0), 1e-9);
}

TEST(Engine, TemperaturesStartAtAmbientAndRise) {
  EngineConfig cfg;
  cfg.ambient = Celsius{21.0};
  auto e = make_test_engine(workload::AppId::kLineage, 1, cfg);
  EXPECT_NEAR(e->observation().sensors.big.value(), 21.0, 0.2);
  e->run(60_s);
  EXPECT_GT(e->observation().sensors.big.value(), 35.0);
  EXPECT_GT(e->observation().sensors.device.value(), 22.0);
}

TEST(Engine, DeterministicForIdenticalSeeds) {
  auto a = make_test_engine(workload::AppId::kFacebook, 7);
  auto b = make_test_engine(workload::AppId::kFacebook, 7);
  a->run(30_s);
  b->run(30_s);
  EXPECT_EQ(a->totals().frames_presented, b->totals().frames_presented);
  EXPECT_DOUBLE_EQ(a->totals().power_w.mean(), b->totals().power_w.mean());
  EXPECT_DOUBLE_EQ(a->totals().temp_big_c.max(), b->totals().temp_big_c.max());
}

TEST(Engine, RecorderSamplesAtConfiguredPeriod) {
  EngineConfig cfg;
  cfg.record_period = SimTime::from_seconds(0.5);
  auto e = make_test_engine(workload::AppId::kFacebook, 1, cfg);
  e->run(10_s);
  EXPECT_NEAR(static_cast<double>(e->recorder().samples().size()), 20.0, 2.0);
}

TEST(Engine, ThermalThrottleCapsRunawayTemperature) {
  // performance governor on the heaviest game: without throttling the
  // junction would exceed the limit; the engine must hold it near the
  // limit instead.
  EngineConfig cfg;
  cfg.throttle_limit_c = 92.0;
  auto e = std::make_unique<Engine>(soc::make_exynos9810(),
                                    workload::make_app(workload::AppId::kPubg, 1),
                                    std::make_unique<governors::PerformanceGovernor>(), nullptr,
                                    cfg);
  e->run(300_s);
  EXPECT_LT(e->totals().temp_big_c.max(), 97.0);
}

TEST(Engine, ThrottleDisabledAllowsHigherPeaks) {
  EngineConfig on;
  EngineConfig off;
  off.thermal_throttle = false;
  auto hot = std::make_unique<Engine>(soc::make_exynos9810(),
                                      workload::make_app(workload::AppId::kPubg, 1),
                                      std::make_unique<governors::PerformanceGovernor>(),
                                      nullptr, off);
  auto cool = std::make_unique<Engine>(soc::make_exynos9810(),
                                       workload::make_app(workload::AppId::kPubg, 1),
                                       std::make_unique<governors::PerformanceGovernor>(),
                                       nullptr, on);
  hot->run(300_s);
  cool->run(300_s);
  // Throttling can only lower (or match, when equilibrium sits below the
  // limit anyway) the peak; and it must hold the line near the limit.
  EXPECT_GE(hot->totals().temp_big_c.max(), cool->totals().temp_big_c.max() - 0.2);
  EXPECT_LT(cool->totals().temp_big_c.max(), 97.0);
}

TEST(Engine, ResetSessionRestoresColdState) {
  auto e = make_test_engine(workload::AppId::kLineage, 1);
  e->run(60_s);
  ASSERT_GT(e->observation().sensors.big.value(), 30.0);
  e->reset_session(workload::make_app(workload::AppId::kLineage, 2));
  EXPECT_NEAR(e->observation().sensors.big.value(), 21.0, 0.2);
  EXPECT_EQ(e->totals().frames_presented, 0);
  EXPECT_DOUBLE_EQ(e->totals().energy_j, 0.0);
}

TEST(Engine, PowersaveUsesLessEnergyThanPerformance) {
  const auto run_with = [](auto governor) {
    auto e = std::make_unique<Engine>(soc::make_exynos9810(),
                                      workload::make_app(workload::AppId::kFacebook, 3),
                                      std::move(governor), nullptr, EngineConfig{});
    e->run(30_s);
    return e->totals().energy_j;
  };
  const double perf = run_with(std::make_unique<governors::PerformanceGovernor>());
  const double save = run_with(std::make_unique<governors::PowersaveGovernor>());
  EXPECT_LT(save, perf * 0.7);
}

TEST(Engine, FpsObservationMatchesPresentedFrames) {
  auto e = make_test_engine(workload::AppId::kYoutube, 1);
  e->run(30_s);
  // Average FPS derived from totals must be in the same band as the
  // instantaneous observation for a steady 30 FPS video.
  EXPECT_NEAR(e->average_fps(), 30.0, 5.0);
}

TEST(Engine, PhaseSplitComposesToStep) {
  // External callers (nxbench's layer ledger) time each layer by calling
  // the phases one by one; that is only sound if their concatenation is
  // exactly step(). Run each engine kind through both paths and demand a
  // bitwise-equal summary: a deployed Next session and a training-mode
  // engine, which also learns and explores at every control point.
  ScenarioSpec spec = scenario("fig1_session");
  spec.duration = 2_s;
  const ExperimentConfig config = spec.experiment_config(GovernorKind::kNext);
  TrainingOptions training;
  training.seed = 7;
  const auto build = [&](bool train) {
    return train ? make_training_engine(spec.app_factory(), core::NextConfig{}, training)
                 : make_engine(spec.app_factory(), config);
  };
  for (const bool train : {false, true}) {
    SCOPED_TRACE(train ? "training engine" : "deployed engine");
    auto phased = build(train);
    auto stepped = build(train);
    const SimTime dt = phased->config().step;
    const std::int64_t ticks = spec.duration.us() / dt.us();
    for (std::int64_t t = 0; t < ticks; ++t) {
      phased->step_pre_power();
      phased->apply_power_model();
      phased->thermal().step(dt);
      phased->step_post_observe();
      if (phased->meta_control_due()) phased->step_post_meta();
      phased->step_post_finish();
      stepped->step();
    }
    EXPECT_TRUE(bit_identical(summarize(*phased, "app", "gov"),
                              summarize(*stepped, "app", "gov")));
    EXPECT_EQ(phased->now().us(), stepped->now().us());
    if (train) {
      const auto* a = phased->next_agent();
      const auto* b = stepped->next_agent();
      ASSERT_NE(a, nullptr);
      ASSERT_NE(b, nullptr);
      EXPECT_GT(a->decisions(), 0u);
      EXPECT_EQ(a->decisions(), b->decisions());
      EXPECT_EQ(a->mean_reward(), b->mean_reward());
      EXPECT_EQ(a->q_table().state_count(), b->q_table().state_count());
      EXPECT_EQ(a->q_table().total_visits(), b->q_table().total_visits());
    }
  }
}

// --- the sensor block against fresh quantization ----------------------------

/// Schedutil that keeps the power reading of every control() call, so a
/// test sees what each kernel-governor tick observed.
class PowerProbe final : public governors::FreqGovernor {
 public:
  [[nodiscard]] SimTime period() const override { return inner_.period(); }
  void control(const governors::Observation& obs, soc::Soc& soc) override {
    seen.push_back(obs.sensors.power);
    inner_.control(obs, soc);
  }
  void reset() override { inner_.reset(); }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

  std::vector<Watts> seen;

 private:
  governors::SchedutilGovernor inner_;
};

/// make_engine() for the schedutil and deployed-Next stacks, with the
/// kernel governor wrapped in a PowerProbe.
std::unique_ptr<Engine> make_probed_engine(const AppFactory& app, const ExperimentConfig& config,
                                           PowerProbe*& probe) {
  auto soc = soc::make_exynos9810();
  std::unique_ptr<governors::MetaGovernor> meta;
  if (config.governor == GovernorKind::kNext) {
    auto agent = core::make_next_agent(soc, config.next_config, config.seed);
    agent->set_q_table(*config.trained_table);
    agent->set_mode(core::AgentMode::kDeployed);
    meta = std::move(agent);
  }
  auto governor = std::make_unique<PowerProbe>();
  probe = governor.get();
  EngineConfig engine_config;
  engine_config.ambient = config.ambient;
  engine_config.refresh_hz = config.refresh_hz;
  engine_config.record_period = config.record_period;
  return std::make_unique<Engine>(std::move(soc), app(config.seed), std::move(governor),
                                  std::move(meta), engine_config);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every engine's network is a view over the one Note 9 topology, so the
/// node ids are the same everywhere.
const thermal::Note9Nodes& note9_nodes() {
  static const thermal::Note9Nodes nodes = thermal::make_note9_thermal(Celsius{21.0}).nodes;
  return nodes;
}

/// The five temperature readings equal freshly quantized node temperatures
/// and the device reading equals the virtual-sensor formula over them.
/// `tick` < 0 labels a check outside the tick loop.
void expect_temperatures_exact(const Engine& e, const std::string& label, std::int64_t tick) {
  const thermal::Note9Nodes& nodes = note9_nodes();
  const auto temps = e.thermal().temperatures_raw();
  const auto fresh = [&](thermal::NodeId n) { return soc::quantize_temperature(Celsius{temps[n]}); };
  const Celsius big = fresh(nodes.big);
  const Celsius little = fresh(nodes.little);
  const Celsius gpu = fresh(nodes.gpu);
  const Celsius battery = fresh(nodes.battery);
  const Celsius skin = fresh(nodes.skin);
  const Celsius device = soc::quantize_temperature(
      soc::virtual_device_temperature(battery, skin, big, little, gpu));
  const auto& s = e.observation().sensors;
  ASSERT_EQ(bits(s.big.value()), bits(big.value())) << label << " tick " << tick;
  ASSERT_EQ(bits(s.little.value()), bits(little.value())) << label << " tick " << tick;
  ASSERT_EQ(bits(s.gpu.value()), bits(gpu.value())) << label << " tick " << tick;
  ASSERT_EQ(bits(s.battery.value()), bits(battery.value())) << label << " tick " << tick;
  ASSERT_EQ(bits(s.skin.value()), bits(skin.value())) << label << " tick " << tick;
  ASSERT_EQ(bits(s.device.value()), bits(device.value())) << label << " tick " << tick;
}

/// The power reading `seen` equals the device power recomputed from the
/// network's inputs, quantized.
void expect_power_exact(const Engine& e, Watts seen, const std::string& label,
                        std::int64_t tick) {
  const thermal::Note9Nodes& nodes = note9_nodes();
  // The engine's sum, in its order: clusters, then display (skin node) and
  // rest of device (board node).
  const auto& net = e.thermal();
  Watts soc_power{0.0};
  for (const thermal::NodeId n : {nodes.big, nodes.little, nodes.gpu}) soc_power += net.power(n);
  const Watts device = soc_power + net.power(nodes.skin) + net.power(nodes.soc_board);
  ASSERT_EQ(bits(seen.value()), bits(soc::quantize_power(device).value())) << label << " tick " << tick;
}

/// Steps `e` for `duration` and, after every tick, checks the temperature
/// and power readings; on every tick where a power consumer ran (kernel
/// governor, Next control point, recorder) it also checks the power reading
/// each of them saw. Returns the number of consumer ticks.
std::size_t expect_sensor_block_exact(Engine& e, const PowerProbe& probe, SimTime duration,
                                      const std::string& label) {
  const SimTime dt = e.config().step;
  std::size_t consumer_ticks = 0;
  for (std::int64_t t = 0; t < duration.us() / dt.us(); ++t) {
    const std::size_t samples = e.recorder().samples().size();
    const std::size_t controls = probe.seen.size();
    e.step_pre_power();
    e.apply_power_model();
    e.thermal().step(dt);
    e.step_post_observe();
    const bool meta_tick = e.meta_control_due();
    e.step_post_meta();
    e.step_post_finish();
    expect_temperatures_exact(e, label, t);
    expect_power_exact(e, e.observation().sensors.power, label, t);

    const bool recorded = e.recorder().samples().size() > samples;
    const bool governed = probe.seen.size() > controls;
    if (recorded || governed || meta_tick) {
      ++consumer_ticks;
      if (recorded) expect_power_exact(e, Watts{e.recorder().samples().back().power_w}, label, t);
      if (governed) expect_power_exact(e, probe.seen.back(), label, t);
    }
    if (::testing::Test::HasFailure()) break;
  }
  return consumer_ticks;
}

TEST(EngineSensors, ReadingsMatchFreshQuantizationOnEveryLibraryScenario) {
  TrainingOptions training;
  training.max_duration = 60_s;
  const rl::QTable table =
      train_next(workload::AppId::kFacebook, core::NextConfig{}, training).table;
  for (const std::string_view name : scenario_names()) {
    const ScenarioSpec spec = scenario(name);
    for (const GovernorKind kind : {GovernorKind::kSchedutil, GovernorKind::kNext}) {
      ExperimentConfig config = spec.experiment_config(kind);
      config.trained_table = &table;
      PowerProbe* probe = nullptr;
      auto e = make_probed_engine(spec.app_factory(), config, probe);
      const std::string label = std::string{name} + "/" + std::string{to_string(kind)};
      expect_temperatures_exact(*e, label + " at construction", -1);
      EXPECT_GT(expect_sensor_block_exact(*e, *probe, config.duration, label), 0u) << label;
      if (HasFatalFailure()) return;
    }
  }
}

TEST(EngineSensors, ColdAmbientReadingsBelowOneBucketStayExact) {
  // At -5 C every node starts in a negative bucket, and the junctions warm
  // through the signed-zero bucket: the quantizer's full path, every tick.
  ExperimentConfig config;
  config.ambient = Celsius{-5.0};
  config.seed = 3;
  PowerProbe* probe = nullptr;
  auto e = make_probed_engine(
      [](std::uint64_t seed) { return workload::make_app(workload::AppId::kLineage, seed); },
      config, probe);
  ASSERT_EQ(e->observation().sensors.big.value(), -5.0);
  EXPECT_GT(expect_sensor_block_exact(*e, *probe, 120_s, "ambient -5"), 0u);
  EXPECT_GT(e->observation().sensors.big.value(), 0.0);
  EXPECT_LT(e->observation().sensors.battery.value(), 1.0);
}

TEST(EngineSensors, ReadingsStayExactAcrossResetSession) {
  ExperimentConfig config;
  PowerProbe* probe = nullptr;
  auto e = make_probed_engine(
      [](std::uint64_t seed) { return workload::make_app(workload::AppId::kPubg, seed); },
      config, probe);
  expect_sensor_block_exact(*e, *probe, 60_s, "before reset");
  ASSERT_GT(e->observation().sensors.big.value(), 30.0);
  for (std::uint64_t episode = 2; episode <= 3; ++episode) {
    e->reset_session(workload::make_app(workload::AppId::kFacebook, episode));
    const std::string label = "episode " + std::to_string(episode);
    expect_temperatures_exact(*e, label + " at reset", -1);
    EXPECT_EQ(e->observation().sensors.big.value(), 21.0);
    EXPECT_GT(expect_sensor_block_exact(*e, *probe, 30_s, label), 0u);
  }
}

}  // namespace
}  // namespace nextgov::sim
