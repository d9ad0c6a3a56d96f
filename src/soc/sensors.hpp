// sensors.hpp - thermal/power sensor front-end.
//
// The governor stack must observe the system the way the paper's
// application-layer agent does: through quantized, slightly delayed sensor
// readings, not the simulator's exact floating-point state. Section III-A:
// the Note 9 exposes 5 thermal sensors of which one sits on the big cluster
// and one *virtual* sensor reports "overall device temperature" via a
// proprietary formula. We document our replacement formula here (DESIGN.md):
//
//   T_device = 0.40*T_battery + 0.35*T_skin + 0.25*max(T_big,T_little,T_gpu)
//
// Readings are quantized to 0.1 C (typical tsens granularity) and power to
// 1 mW (fuel-gauge granularity).
//
// Cost: quantize_temperature() is a libm round() and a divide. The engine
// reads five temperature sensors every 1 ms tick, which made quantization
// the bulk of its observation step, yet a junction node moves ~0.001 C per
// ms, so nearly every call returned the previous tick's value.
// TemperatureQuantizer memoizes the last bucket exactly; the engine feeds
// one per sensor and recomputes the virtual device sensor only when one of
// them left its bucket.
#pragma once

#include <limits>

#include "common/units.hpp"

namespace nextgov::soc {

/// Quantizes a temperature to the sensor granularity (0.1 degrees C).
[[nodiscard]] Celsius quantize_temperature(Celsius t) noexcept;

/// Quantizes a power reading to 1 mW.
[[nodiscard]] Watts quantize_power(Watts p) noexcept;

/// The device-level virtual sensor replacement formula.
[[nodiscard]] Celsius virtual_device_temperature(Celsius battery, Celsius skin, Celsius big,
                                                 Celsius little, Celsius gpu) noexcept;

/// quantize_temperature() for one sensor, remembering the last 0.1 C bucket.
///
/// With y = t*10 (the same multiply quantize_temperature does) and a cached
/// bucket k >= 1, k - 0.5 <= y < k + 0.5 means round(y) == k (round half
/// away from zero, y > 0), so the cached k/10 is bit for bit what the full
/// path would return. Buckets below 1 (where round() yields a signed zero or
/// a negative value), NaN, infinities and buckets too large for k +- 0.5 to
/// be exact always take the full path.
class TemperatureQuantizer {
 public:
  /// Quantizes `t`. Returns true when the call took the full path, i.e.
  /// when value() may differ from the previous call's.
  bool update(Celsius t) noexcept {
    const double y = t.value() * 10.0;
    if (y >= bucket_ - 0.5 && y < bucket_ + 0.5) return false;
    refill(y);
    return true;
  }
  /// The last update()'s reading: quantize_temperature(t), bit for bit.
  [[nodiscard]] Celsius value() const noexcept { return value_; }

 private:
  void refill(double y) noexcept;

  /// NaN while no bucket is cached (every comparison above then fails).
  double bucket_{std::numeric_limits<double>::quiet_NaN()};
  Celsius value_{};
};

/// Snapshot of every sensor the agent can read.
struct SensorReadings {
  Celsius big;     ///< big-cluster on-die sensor
  Celsius little;  ///< LITTLE-cluster on-die sensor
  Celsius gpu;     ///< GPU on-die sensor
  Celsius battery; ///< battery pack sensor
  Celsius skin;    ///< chassis/skin sensor
  Celsius device;  ///< virtual "overall device" sensor
  Watts power;     ///< instantaneous device power (fuel gauge)
};

}  // namespace nextgov::soc
