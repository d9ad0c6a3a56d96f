#include "soc/sensors.hpp"

#include <algorithm>
#include <cmath>

namespace nextgov::soc {

Celsius quantize_temperature(Celsius t) noexcept {
  return Celsius{std::round(t.value() * 10.0) / 10.0};
}

Watts quantize_power(Watts p) noexcept { return Watts{std::round(p.value() * 1000.0) / 1000.0}; }

Celsius virtual_device_temperature(Celsius battery, Celsius skin, Celsius big, Celsius little,
                                   Celsius gpu) noexcept {
  const double soc_max = std::max({big.value(), little.value(), gpu.value()});
  return Celsius{0.40 * battery.value() + 0.35 * skin.value() + 0.25 * soc_max};
}

void TemperatureQuantizer::refill(double y) noexcept {
  const double k = std::round(y);
  value_ = Celsius{k / 10.0};
  // 2^52: from there on k +- 0.5 is not representable and the bounds round.
  bucket_ = (k >= 1.0 && k < 0x1p52) ? k : std::numeric_limits<double>::quiet_NaN();
}

}  // namespace nextgov::soc
