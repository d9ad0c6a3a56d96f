// Unit tests for sensor quantization and the virtual device sensor.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "soc/sensors.hpp"

namespace nextgov::soc {
namespace {

TEST(Sensors, TemperatureQuantizedToTenthDegree) {
  EXPECT_DOUBLE_EQ(quantize_temperature(Celsius{41.234}).value(), 41.2);
  EXPECT_DOUBLE_EQ(quantize_temperature(Celsius{41.25}).value(), 41.3);
  EXPECT_DOUBLE_EQ(quantize_temperature(Celsius{-0.04}).value(), -0.0);
}

TEST(Sensors, PowerQuantizedToMilliwatt) {
  EXPECT_DOUBLE_EQ(quantize_power(Watts{3.51544}).value(), 3.515);
  EXPECT_DOUBLE_EQ(quantize_power(Watts{3.5156}).value(), 3.516);
}

TEST(Sensors, QuantizationIsIdempotent) {
  const Celsius t = quantize_temperature(Celsius{37.77});
  EXPECT_EQ(quantize_temperature(t).value(), t.value());
  const Watts p = quantize_power(Watts{1.2345});
  EXPECT_EQ(quantize_power(p).value(), p.value());
}

TEST(Sensors, VirtualDeviceSensorIsDocumentedWeightedAverage) {
  // 0.40*battery + 0.35*skin + 0.25*max(soc) per DESIGN.md.
  const Celsius t = virtual_device_temperature(Celsius{30.0}, Celsius{28.0}, Celsius{60.0},
                                               Celsius{40.0}, Celsius{50.0});
  EXPECT_DOUBLE_EQ(t.value(), 0.40 * 30.0 + 0.35 * 28.0 + 0.25 * 60.0);
}

TEST(Sensors, VirtualSensorUsesHottestSocNode) {
  const Celsius gpu_hottest = virtual_device_temperature(
      Celsius{30.0}, Celsius{30.0}, Celsius{40.0}, Celsius{35.0}, Celsius{70.0});
  const Celsius big_hottest = virtual_device_temperature(
      Celsius{30.0}, Celsius{30.0}, Celsius{70.0}, Celsius{35.0}, Celsius{40.0});
  EXPECT_DOUBLE_EQ(gpu_hottest.value(), big_hottest.value());
}

TEST(Sensors, UniformTemperatureIsFixedPoint) {
  const Celsius t =
      virtual_device_temperature(Celsius{21.0}, Celsius{21.0}, Celsius{21.0}, Celsius{21.0},
                                 Celsius{21.0});
  EXPECT_NEAR(t.value(), 21.0, 1e-12);
}

/// Feeds `inputs` through one TemperatureQuantizer in order and demands the
/// bit pattern quantize_temperature() gives for each. Returns how many
/// calls were answered from the cached bucket.
std::size_t expect_cached_matches_full(const std::vector<double>& inputs) {
  TemperatureQuantizer q;
  std::size_t hits = 0;
  for (const double x : inputs) {
    const Celsius previous = q.value();
    const bool missed = q.update(Celsius{x});
    const Celsius want = quantize_temperature(Celsius{x});
    EXPECT_EQ(std::bit_cast<std::uint64_t>(q.value().value()),
              std::bit_cast<std::uint64_t>(want.value()))
        << "input " << x << " (bits " << std::bit_cast<std::uint64_t>(x) << ")";
    if (!missed) {
      ++hits;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(q.value().value()),
                std::bit_cast<std::uint64_t>(previous.value()));
    }
  }
  return hits;
}

/// `x` and its `ulps` nextafter neighbours on either side, in ascending
/// order.
void push_neighbourhood(std::vector<double>& out, double x, int ulps) {
  double lo = x;
  for (int i = 0; i < ulps; ++i) lo = std::nextafter(lo, -std::numeric_limits<double>::infinity());
  for (int i = 0; i <= 2 * ulps; ++i) {
    out.push_back(lo);
    lo = std::nextafter(lo, std::numeric_limits<double>::infinity());
  }
}

TEST(TemperatureQuantizer, MatchesFullPathAtEveryBucketEdgeWalkingUpAndDown) {
  // Bucket k covers t*10 in [k - 0.5, k + 0.5); its edges sit near
  // (k +- 0.5)/10 in t, where the multiply's rounding decides the side.
  std::vector<double> up;
  for (int k = -400; k <= 1500; ++k) {
    push_neighbourhood(up, (static_cast<double>(k) - 0.5) / 10.0, 4);
    push_neighbourhood(up, static_cast<double>(k) / 10.0, 1);
  }
  const std::vector<double> down(up.rbegin(), up.rend());
  EXPECT_GT(expect_cached_matches_full(up), up.size() / 2);
  EXPECT_GT(expect_cached_matches_full(down), down.size() / 2);
}

TEST(TemperatureQuantizer, SpecialValuesMatchTheFullPath) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> specials = {
      -0.04, 0.0,  -0.0, 0.04, -0.06, 0.06,  41.25, 1e300, -1e300, inf,   -inf,
      41.25, 0.04, 0.05, 0.15, 0.149, -0.05, 1e300, 41.2,  -0.04,  -0.04, 1e-300};
  expect_cached_matches_full(specials);

  // -0.04 rounds to a negative zero, which the cache must not replace by
  // the +0.0 of an earlier bucket-0 reading.
  TemperatureQuantizer q;
  q.update(Celsius{0.04});
  q.update(Celsius{-0.04});
  EXPECT_TRUE(std::signbit(q.value().value()));
  EXPECT_EQ(q.value().value(), 0.0);

  // NaN in, NaN out, and the quantizer recovers on the next finite reading.
  EXPECT_TRUE(q.update(Celsius{std::numeric_limits<double>::quiet_NaN()}));
  EXPECT_TRUE(std::isnan(q.value().value()));
  q.update(Celsius{37.77});
  EXPECT_EQ(q.value().value(), quantize_temperature(Celsius{37.77}).value());
}

TEST(TemperatureQuantizer, HugeBucketsStayExact) {
  // Around 2^52 the bucket bounds k +- 0.5 stop being representable; every
  // integer there (and beyond 2^53, every even integer) is its own bucket.
  std::vector<double> inputs;
  for (const double y : {0x1p51, 0x1p52, 0x1p53}) {
    for (int d = -4; d <= 4; ++d) push_neighbourhood(inputs, (y + d) / 10.0, 2);
  }
  expect_cached_matches_full(inputs);
  const std::vector<double> down(inputs.rbegin(), inputs.rend());
  expect_cached_matches_full(down);
}

TEST(TemperatureQuantizer, SeededRandomWalksMatchTheFullPath) {
  // Log-uniform step sizes from 1e-6 to 1 C: the slow junction drift the
  // cache is for, and jumps across several buckets. Walks start above 0 C
  // so the cache has buckets to serve (the bucket-edge walk above covers
  // the negative range).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng{seed};
    std::vector<double> walk;
    double t = rng.uniform(5.0, 150.0);
    for (int i = 0; i < 20000; ++i) {
      const double step = std::pow(10.0, rng.uniform(-6.0, 0.0));
      t += rng.bernoulli(0.5) ? step : -step;
      t = std::clamp(t, -40.0, 150.0);
      walk.push_back(t);
    }
    const std::size_t hits = expect_cached_matches_full(walk);
    EXPECT_GT(hits, walk.size() / 2) << "seed " << seed;
  }
}

}  // namespace
}  // namespace nextgov::soc
