// fps_counter.hpp - sliding-window frame-rate measurement.
//
// "FPS_current ... is the frame rate of the front buffer of VSync"
// (Section IV-A): we count front-buffer updates (presented frames) inside a
// trailing window. The Next agent samples this every 25 ms; the recorder
// samples it at its own cadence.
//
// The window's timestamps live in a RingBuffer that doubles only when a
// present finds it full, so once the counter holds its busiest window it
// never allocates again; RenderPipeline reserves that size up front, which
// keeps the engine tick allocation-free.
#pragma once

#include "common/ring_buffer.hpp"
#include "common/sim_time.hpp"
#include "common/units.hpp"

namespace nextgov::render {

class SlidingFpsCounter {
 public:
  /// `window` is the trailing measurement horizon (default 1 s, so the
  /// reading is directly in frames-per-second).
  explicit SlidingFpsCounter(SimTime window = SimTime::from_ms(1000));

  /// Records one presented frame at time `t`.
  void on_present(SimTime t);

  /// Frames presented in (now - window, now], scaled to per-second units.
  [[nodiscard]] Fps fps(SimTime now) const;

  void clear() noexcept { presents_.clear(); }

  /// Sizes the window storage for `presents` entries up front (a producer
  /// that knows its peak rate, such as a VSync-paced pipeline, calls it
  /// once so the counter never has to grow mid-session).
  void reserve(std::size_t presents) { presents_.reserve(presents); }

 private:
  void evict(SimTime now) const;

  SimTime window_;
  mutable RingBuffer<SimTime> presents_;
};

}  // namespace nextgov::render
