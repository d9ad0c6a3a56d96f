// alloc_test.cpp - heap-allocation pins, under a counting global operator new.
//
// This binary replaces the global allocation functions with counting ones,
// which is why it is built apart from nextgov_tests (the replacement is
// process-wide). It pins two properties:
//   * the steady-state 1 ms engine tick makes no heap allocation at all on
//     the schedutil, Next and Int. QoS stacks (recorder off);
//   * the Q-table decoders size their pre-allocation from the payload they
//     were handed, never from an untrusted header count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "rl/qtable.hpp"
#include "rl/qtable_delta.hpp"
#include "sim/experiment.hpp"
#include "workload/apps.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};

/// Largest single request served. A decoder that regresses to sizing from
/// a header count gets bad_alloc here (and fails its test) instead of
/// touching gigabytes: 2^20 rows at 4096 actions is ~34 GB.
constexpr std::size_t kMaxRequest = std::size_t{64} << 20;

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n > kMaxRequest) throw std::bad_alloc{};
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, alignof(std::max_align_t)); }
void* operator new[](std::size_t n) { return counted_alloc(n, alignof(std::max_align_t)); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace nextgov {
namespace {

/// Allocation count and requested bytes between construction and now.
struct AllocWindow {
  std::size_t allocations0{g_allocations.load()};
  std::size_t bytes0{g_bytes.load()};
  [[nodiscard]] std::size_t allocations() const { return g_allocations.load() - allocations0; }
  [[nodiscard]] std::size_t bytes() const { return g_bytes.load() - bytes0; }
};

constexpr SimTime kWarmUp = SimTime::from_seconds(20.0);
constexpr SimTime kMeasured = SimTime::from_seconds(100.0);

/// Heap allocations an engine makes over kMeasured after kWarmUp, with the
/// recorder's period beyond the run so it never samples.
std::size_t steady_state_allocations(sim::ExperimentConfig config, workload::AppId app) {
  config.record_period = SimTime::from_seconds(1e6);
  auto engine =
      sim::make_engine([app](std::uint64_t seed) { return workload::make_app(app, seed); },
                       config);
  engine->run(kWarmUp);
  const AllocWindow window;
  engine->run(kMeasured);
  return window.allocations();
}

TEST(SteadyStateTick, SchedutilMakesNoHeapAllocation) {
  sim::ExperimentConfig config;
  config.governor = sim::GovernorKind::kSchedutil;
  EXPECT_EQ(steady_state_allocations(config, workload::AppId::kFacebook), 0u);
}

TEST(SteadyStateTick, DeployedNextMakesNoHeapAllocation) {
  sim::TrainingOptions training;
  training.max_duration = SimTime::from_seconds(60.0);
  const sim::TrainingResult trained =
      sim::train_next(workload::AppId::kFacebook, core::NextConfig{}, training);
  ASSERT_GT(trained.table.state_count(), 0u);
  sim::ExperimentConfig config;
  config.governor = sim::GovernorKind::kNext;
  config.trained_table = &trained.table;
  EXPECT_EQ(steady_state_allocations(config, workload::AppId::kFacebook), 0u);
}

TEST(SteadyStateTick, IntQosMakesNoHeapAllocation) {
  sim::ExperimentConfig config;
  config.governor = sim::GovernorKind::kIntQos;
  EXPECT_EQ(steady_state_allocations(config, workload::AppId::kPubg), 0u);
}

// --- decoders: pre-allocation bounded by the payload ----------------------

constexpr std::size_t kOneMiB = std::size_t{1} << 20;
constexpr std::uint64_t kClaimedRows = std::uint64_t{1} << 20;

/// Runs `decode` on `payload`, requires a SerializeError and returns the
/// bytes requested from the heap on the way.
template <typename Decode>
std::size_t bytes_until_rejected(const ByteWriter& payload, Decode decode) {
  ByteReader in{payload.data(), "crafted header"};
  const AllocWindow window;
  EXPECT_THROW((void)decode(in), SerializeError);
  return window.bytes();
}

class DecoderBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderBound, QTableHeaderClaimingRowsItLacksAllocatesLittle) {
  // 32-byte payload: header only, claiming 2^20 states and holding none.
  ByteWriter w;
  w.u64(GetParam());  // actions
  w.f64(0.0);         // default_q
  w.u64(0);           // total visits
  w.u64(kClaimedRows);
  ASSERT_EQ(w.size(), 32u);
  EXPECT_LT(bytes_until_rejected(w, [](ByteReader& in) { return rl::QTable::deserialize(in); }),
            kOneMiB);
}

TEST_P(DecoderBound, QuantizedHeaderClaimingRowsItLacksAllocatesLittle) {
  for (const rl::WireQuant quant :
       {rl::WireQuant::kF32, rl::WireQuant::kF16, rl::WireQuant::kQ8}) {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(quant));
    w.u64(GetParam());  // actions
    w.f64(0.0);         // default_q
    w.u64(0);           // total visits
    w.u64(kClaimedRows);
    EXPECT_LT(
        bytes_until_rejected(w, [](ByteReader& in) { return rl::deserialize_quantized(in); }),
        kOneMiB)
        << "quant " << static_cast<int>(quant);
  }
}

TEST_P(DecoderBound, DeltaHeaderClaimingChangesItLacksAllocatesLittle) {
  ByteWriter w;
  w.u64(GetParam());  // actions
  w.f64(0.0);         // default_q
  w.u64(0);           // base states
  w.u64(0);           // base total visits
  w.u64(kClaimedRows);
  EXPECT_LT(
      bytes_until_rejected(w, [](ByteReader& in) { return rl::QTableDelta::deserialize(in); }),
      kOneMiB);
}

TEST_P(DecoderBound, QTableReservesOnlyTheRowsThePayloadHolds) {
  // A real table whose header is inflated to 2^20 states: the decoder may
  // size for the rows that are there, then fails at the first missing one.
  rl::QTable t{static_cast<std::size_t>(GetParam())};
  for (rl::StateKey k = 1; k <= 10; ++k) t.set_q(k, 0, 1.0);
  ByteWriter w;
  t.serialize(w);
  std::vector<std::uint8_t> bytes = w.data();
  store_u64(bytes.data() + 24, kClaimedRows);  // the state-count field
  ByteWriter crafted;
  crafted.bytes(bytes);
  EXPECT_LT(bytes_until_rejected(crafted,
                                 [](ByteReader& in) { return rl::QTable::deserialize(in); }),
            kOneMiB);
}

INSTANTIATE_TEST_SUITE_P(ActionCounts, DecoderBound, ::testing::Values(9u, 4096u));

}  // namespace
}  // namespace nextgov
