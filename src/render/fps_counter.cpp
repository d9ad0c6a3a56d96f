#include "render/fps_counter.hpp"

#include "common/error.hpp"

namespace nextgov::render {

namespace {
/// First window capacity of a counter nobody sizes; RenderPipeline
/// reserves its panel's peak up front instead.
constexpr std::size_t kInitialPresents = 16;
}  // namespace

SlidingFpsCounter::SlidingFpsCounter(SimTime window)
    : window_{window}, presents_{kInitialPresents} {
  require(window.us() > 0, "FPS window must be positive");
}

void SlidingFpsCounter::on_present(SimTime t) {
  NEXTGOV_ASSERT(presents_.empty() || t >= presents_.newest());
  // Readers only ever ask at or after the newest present, so whatever has
  // left the window by `t` is gone for them too: dropping it here bounds
  // the storage by the window's busiest content, whatever the read cadence.
  evict(t);
  if (presents_.full()) presents_.reserve(2 * presents_.capacity());
  presents_.push(t);
}

void SlidingFpsCounter::evict(SimTime now) const {
  const SimTime cutoff = now - window_;
  while (!presents_.empty() && presents_.oldest() <= cutoff) presents_.pop_oldest();
}

Fps SlidingFpsCounter::fps(SimTime now) const {
  evict(now);
  const double scale = 1.0 / window_.seconds();
  return Fps{static_cast<double>(presents_.size()) * scale};
}

}  // namespace nextgov::render
