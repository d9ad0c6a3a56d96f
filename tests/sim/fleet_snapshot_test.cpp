// Unit tests for fleet checkpoint persistence (sim/fleet.hpp): snapshot
// round trips, the recorded-options guard on resume, and corruption
// rejection. The bit-identical crash/resume behavior of train_fleet itself
// is pinned by tests/sim/fleet_resume_golden_test.cpp and the
// fleet_checkpoint CI smoke step.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/fleet.hpp"

namespace nextgov::sim {
namespace {

rl::QTable table_with(std::size_t actions, rl::StateKey base, std::size_t states) {
  rl::QTable t{actions};
  for (rl::StateKey s = 0; s < states; ++s) {
    t.set_q(base + s, s % actions, 0.01 * static_cast<double>(s));
    t.record_visit(base + s);
  }
  return t;
}

FleetSnapshot sample_snapshot() {
  FleetSnapshot snap;
  snap.next_round = 3;
  snap.total_decisions = 1234;
  snap.last_round_mean_reward = 0.625;
  snap.dropped_device_rounds = 2;
  snap.rejected_uploads = 1;
  snap.shard_tables.push_back(table_with(9, 100, 5));
  snap.shard_tables.push_back(std::nullopt);
  snap.uploads.push_back(FleetUpload{table_with(9, 200, 4), 2});
  snap.uploads.push_back(std::nullopt);
  snap.shard_last_upload = {2, kNeverUploaded};
  snap.last_aggregate = table_with(9, 300, 6);
  return snap;
}

class FleetSnapshotFile : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".corrupt").c_str());
  }
  // One file per test case: ctest runs every case in its own process, so a
  // shared path would let concurrent cases overwrite each other's file.
  const ::testing::TestInfo* test_ = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string path_ = ::testing::TempDir() + "/nextgov_fleet_snapshot_" + test_->test_suite_name() + "_" +
                      test_->name() + ".bin";
  FleetOptions options_{};  // defaults are fine; only identity matters here
};

TEST_F(FleetSnapshotFile, RoundTripsAllState) {
  const FleetSnapshot snap = sample_snapshot();
  save_fleet_snapshot(snap, options_, path_);
  const FleetSnapshot back = load_fleet_snapshot(path_);
  EXPECT_EQ(back.next_round, snap.next_round);
  EXPECT_EQ(back.total_decisions, snap.total_decisions);
  EXPECT_EQ(back.last_round_mean_reward, snap.last_round_mean_reward);
  EXPECT_EQ(back.dropped_device_rounds, snap.dropped_device_rounds);
  EXPECT_EQ(back.rejected_uploads, snap.rejected_uploads);
  ASSERT_EQ(back.shard_tables.size(), 2u);
  ASSERT_TRUE(back.shard_tables[0].has_value());
  EXPECT_TRUE(*back.shard_tables[0] == *snap.shard_tables[0]);
  EXPECT_FALSE(back.shard_tables[1].has_value());
  ASSERT_TRUE(back.uploads[0].has_value());
  EXPECT_EQ(back.uploads[0]->round, 2u);
  EXPECT_TRUE(back.uploads[0]->table == snap.uploads[0]->table);
  EXPECT_FALSE(back.uploads[1].has_value());
  EXPECT_EQ(back.shard_last_upload, snap.shard_last_upload);
  ASSERT_TRUE(back.last_aggregate.has_value());
  EXPECT_TRUE(*back.last_aggregate == *snap.last_aggregate);
}

TEST_F(FleetSnapshotFile, ResumeUnderDifferentOptionsIsRefused) {
  save_fleet_snapshot(sample_snapshot(), options_, path_);
  // Matching options pass the guard...
  EXPECT_NO_THROW((void)load_fleet_snapshot(path_, options_));
  // ...but any trajectory-determining difference is refused.
  FleetOptions changed = options_;
  changed.base_seed += 1;
  EXPECT_THROW((void)load_fleet_snapshot(path_, changed), SerializeError);
  changed = options_;
  changed.devices += 1;
  EXPECT_THROW((void)load_fleet_snapshot(path_, changed), SerializeError);
  changed = options_;
  changed.faults.dropout_rate = 0.5;
  EXPECT_THROW((void)load_fleet_snapshot(path_, changed), SerializeError);
  changed = options_;
  changed.next_config.qlearning.alpha += 0.01;
  EXPECT_THROW((void)load_fleet_snapshot(path_, changed), SerializeError);
  // rounds and the crash/snapshot plumbing are deliberately NOT identity:
  // a resumed run may extend the horizon and drop the crash hook.
  changed = options_;
  changed.rounds += 10;
  changed.faults.crash_at_round = kNoCrashRound;
  changed.snapshot_every = 0;
  changed.resume_from = path_;
  EXPECT_NO_THROW((void)load_fleet_snapshot(path_, changed));
}

TEST_F(FleetSnapshotFile, CorruptionAndTruncationAreRejected) {
  save_fleet_snapshot(sample_snapshot(), options_, path_);
  std::vector<unsigned char> good;
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    int c;
    while ((c = std::fgetc(f)) != EOF) good.push_back(static_cast<unsigned char>(c));
    std::fclose(f);
  }
  std::vector<unsigned char> bad = good;
  bad[bad.size() / 2] ^= 0x40;
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bad.data(), 1, bad.size(), f);
    std::fclose(f);
  }
  EXPECT_THROW((void)load_fleet_snapshot(path_), SerializeError);
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(good.data(), 1, good.size() / 3, f);
    std::fclose(f);
  }
  EXPECT_THROW((void)load_fleet_snapshot(path_), SerializeError);
  EXPECT_THROW((void)load_fleet_snapshot(path_ + ".missing"), IoError);
}

TEST_F(FleetSnapshotFile, CorruptSnapshotIsQuarantinedNotLeftInPlace) {
  // A CRC-failing snapshot must not sit at its path failing every restart:
  // the load renames it to <path>.corrupt (and says so in the error), so
  // the next startup falls through to older state instead of re-reading
  // the same damage forever.
  save_fleet_snapshot(sample_snapshot(), options_, path_);
  {
    std::FILE* f = std::fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -8, SEEK_END);  // inside the last section's payload
    const unsigned char evil = 0xa5;
    std::fwrite(&evil, 1, 1, f);
    std::fclose(f);
  }
  try {
    (void)load_fleet_snapshot(path_);
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("quarantined"), std::string::npos) << e.what();
  }
  // The original is gone; the damage is preserved for post-mortems.
  std::FILE* original = std::fopen(path_.c_str(), "rb");
  EXPECT_EQ(original, nullptr);
  std::FILE* quarantined = std::fopen((path_ + ".corrupt").c_str(), "rb");
  ASSERT_NE(quarantined, nullptr);
  std::fclose(quarantined);
}

TEST_F(FleetSnapshotFile, ServerStateRoundTripsThroughVersionTwo) {
  // The fleet-server extension (leases, pending uploads, clock, counters)
  // must survive a container round trip bit-exactly - it is what makes a
  // kill -9 resume replay the same arrivals.
  FleetSnapshot snap = sample_snapshot();
  snap.has_server_state = true;
  snap.leases = {DeviceLease{true, 0}, DeviceLease{false, 7}};
  snap.pending_uploads.push_back(PendingUpload{1, 2, 987654321, 3, table_with(9, 400, 3)});
  snap.server_clock_us = 123456789;
  snap.server_counters = {10, 20, 30, 40, 50, 60};
  save_fleet_snapshot(snap, options_, path_);
  EXPECT_EQ(SnapshotReader::from_file(path_).version(), kSnapshotVersion);

  const FleetSnapshot back = load_fleet_snapshot(path_);
  ASSERT_TRUE(back.has_server_state);
  ASSERT_EQ(back.leases.size(), 2u);
  EXPECT_TRUE(back.leases[0].active);
  EXPECT_FALSE(back.leases[1].active);
  EXPECT_EQ(back.leases[1].rejoin_round, 7u);
  ASSERT_EQ(back.pending_uploads.size(), 1u);
  EXPECT_EQ(back.pending_uploads[0].device, 1u);
  EXPECT_EQ(back.pending_uploads[0].trained_round, 2u);
  EXPECT_EQ(back.pending_uploads[0].arrival_us, 987654321);
  EXPECT_EQ(back.pending_uploads[0].attempts_used, 3u);
  EXPECT_TRUE(back.pending_uploads[0].table == snap.pending_uploads[0].table);
  EXPECT_EQ(back.server_clock_us, 123456789);
  EXPECT_EQ(back.server_counters.rounds_served, 10u);
  EXPECT_EQ(back.server_counters.uploads_accepted, 20u);
  EXPECT_EQ(back.server_counters.uploads_retried, 30u);
  EXPECT_EQ(back.server_counters.uploads_lost, 40u);
  EXPECT_EQ(back.server_counters.late_uploads_merged, 50u);
  EXPECT_EQ(back.server_counters.departures, 60u);

  // A plain train_fleet checkpoint stays server-less on the way back - the
  // version-1 decode path in miniature.
  save_fleet_snapshot(sample_snapshot(), options_, path_);
  EXPECT_FALSE(load_fleet_snapshot(path_).has_server_state);
}

TEST_F(FleetSnapshotFile, SyncStateRoundTripsThroughVersionThree) {
  // The delta-upload extension: per-shard bases + cursors + the cumulative
  // wire counters must survive a container round trip bit-exactly, so a
  // resumed run replays the same delta/full decisions and keeps counting.
  FleetSnapshot snap = sample_snapshot();
  snap.sync.bases.push_back(table_with(9, 500, 4));
  snap.sync.bases.push_back(std::nullopt);
  snap.sync.cursors = {2, kNeverUploaded};
  snap.sync.upload_bytes_full = 11111;
  snap.sync.upload_bytes_delta = 2222;
  snap.sync.uploads_full = 7;
  snap.sync.uploads_delta = 13;
  save_fleet_snapshot(snap, options_, path_);

  const FleetSnapshot back = load_fleet_snapshot(path_);
  ASSERT_EQ(back.sync.bases.size(), 2u);
  ASSERT_TRUE(back.sync.bases[0].has_value());
  EXPECT_TRUE(*back.sync.bases[0] == *snap.sync.bases[0]);
  EXPECT_FALSE(back.sync.bases[1].has_value());
  EXPECT_EQ(back.sync.cursors, snap.sync.cursors);
  EXPECT_EQ(back.sync.upload_bytes_full, 11111u);
  EXPECT_EQ(back.sync.upload_bytes_delta, 2222u);
  EXPECT_EQ(back.sync.uploads_full, 7u);
  EXPECT_EQ(back.sync.uploads_delta, 13u);
}

TEST_F(FleetSnapshotFile, MissingSyncSectionDecodesWithDefaults) {
  // Pre-v3 files have no "sync_state" section. Synthesize one by copying
  // only the sections an old writer produced into a fresh container: the
  // decode must fall back to empty bases and zero counters, not fail.
  save_fleet_snapshot(sample_snapshot(), options_, path_);
  const SnapshotReader original = SnapshotReader::from_file(path_);
  SnapshotWriter pruned;
  for (const char* name : {"fleet_options", "fleet_state"}) {
    ByteReader in = original.section(name);
    std::vector<std::uint8_t> payload;
    payload.reserve(in.remaining());
    while (!in.done()) payload.push_back(in.u8());
    pruned.section(name).bytes(payload);
  }
  const SnapshotReader reader{pruned.bytes(), "pruned"};
  const FleetSnapshot back = read_fleet_state_sections(reader);
  EXPECT_EQ(back.next_round, 3u);
  EXPECT_TRUE(back.sync.bases.empty());
  EXPECT_TRUE(back.sync.cursors.empty());
  EXPECT_EQ(back.sync.upload_bytes_full, 0u);
  EXPECT_EQ(back.sync.upload_bytes_delta, 0u);
  EXPECT_EQ(back.sync.uploads_full, 0u);
  EXPECT_EQ(back.sync.uploads_delta, 0u);
}

}  // namespace
}  // namespace nextgov::sim
