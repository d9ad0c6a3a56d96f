// Tests for the versioned snapshot container (common/serialize.hpp):
// primitive round trips, pinned little-endian byte layout, the CRC32
// known-answer, and - the point of the layer - that every damage mode
// (bad magic, future version, truncation, bit flips, missing sections,
// trailing garbage) is a descriptive SerializeError, never UB or a silent
// partial load.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace nextgov {
namespace {

TEST(ByteCodec, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0x7f);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f32(3.25f);
  w.f64(-0.1);
  w.boolean(true);
  w.boolean(false);
  w.str("nextgov");
  ByteReader r{w.data(), "test"};
  EXPECT_EQ(r.u8(), 0x7f);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f32(), 3.25f);
  EXPECT_EQ(r.f64(), -0.1);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "nextgov");
  EXPECT_TRUE(r.done());
}

TEST(ByteCodec, NonFiniteAndDenormalDoublesAreBitExact) {
  const double values[] = {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min(),
                           -0.0};
  ByteWriter w;
  for (const double v : values) w.f64(v);
  ByteReader r{w.data(), "test"};
  for (const double v : values) {
    const double got = r.f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(v));
  }
}

TEST(ByteCodec, LayoutIsLittleEndianAndPinned) {
  // The wire format is part of the persistence contract: these exact bytes
  // must never change without a version bump.
  ByteWriter w;
  w.u32(0x11223344u);
  w.u64(0x0102030405060708ULL);
  const std::vector<std::uint8_t> expected = {0x44, 0x33, 0x22, 0x11, 0x08, 0x07,
                                              0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(w.data(), expected);
}

TEST(ByteCodec, TruncatedReadThrowsWithContext) {
  ByteWriter w;
  w.u32(7);
  ByteReader r{w.data(), "agent state"};
  try {
    (void)r.u64();  // only 4 bytes available
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("agent state"), std::string::npos) << e.what();
  }
}

TEST(ByteCodec, StringLengthBeyondPayloadThrows) {
  ByteWriter w;
  w.u32(1000);  // claims a 1000-byte string, provides none
  ByteReader r{w.data(), "test"};
  EXPECT_THROW((void)r.str(), SerializeError);
}

TEST(Crc32, KnownAnswer) {
  // The canonical CRC-32 check value (IEEE 802.3 / zlib / PNG).
  const std::string s = "123456789";
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  EXPECT_EQ(crc32({p, s.size()}), 0xCBF43926u);
  EXPECT_EQ(crc32({p, std::size_t{0}}), 0x00000000u);
}

/// Bitwise CRC-32 straight from the polynomial: the reference the
/// table-driven crc32() must match bit for bit.
std::uint32_t reference_crc32(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng{seed};
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next() >> 56);
  return out;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryShortLengthAndAlignment) {
  // Covers the 8-byte main loop, the bytewise tail and every mix of the
  // two, at every start offset within a word.
  const std::vector<std::uint8_t> buf = random_bytes(64 + 8, 0xC3C32026u);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::span<const std::uint8_t> s{buf.data() + offset, len};
      ASSERT_EQ(crc32(s), reference_crc32(s)) << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, MatchesBitwiseReferenceOnALargeBuffer) {
  const std::vector<std::uint8_t> buf = random_bytes(3u << 20, 42);  // 3 MiB
  EXPECT_EQ(crc32(buf), reference_crc32(buf));
}

TEST(Crc32, CombineMatchesWholeBuffer) {
  // Every split A|B of every buffer up to 64 bytes: the CRC of the whole
  // must follow from the two halves' CRCs and |B| alone.
  const std::vector<std::uint8_t> small = random_bytes(64, 0xC0B1u);
  for (std::size_t len = 0; len <= small.size(); ++len) {
    const std::span<const std::uint8_t> whole{small.data(), len};
    for (std::size_t cut = 0; cut <= len; ++cut) {
      const std::uint32_t a = crc32(whole.first(cut));
      const std::uint32_t b = crc32(whole.subspan(cut));
      ASSERT_EQ(crc32_combine(a, b, len - cut), crc32(whole))
          << "length " << len << " cut at " << cut;
    }
  }
  // A 3 MiB buffer in uneven chunks, combined left to right.
  const std::vector<std::uint8_t> big = random_bytes(3u << 20, 0xB16u);
  const std::span<const std::uint8_t> all{big};
  std::uint32_t running = 0;  // crc32 of nothing
  std::size_t at = 0;
  for (const std::size_t len : {std::size_t{1}, std::size_t{0}, std::size_t{777},
                                std::size_t{65536}, std::size_t{1} << 20, std::size_t{3},
                                std::size_t{1234567}}) {
    running = crc32_combine(running, crc32(all.subspan(at, len)), len);
    at += len;
  }
  running = crc32_combine(running, crc32(all.subspan(at)), big.size() - at);
  EXPECT_EQ(running, crc32(big));
}

TEST(SnapshotWriter, DeferredChunksMatchOneContiguousPayload) {
  // A section built from scalar writes and deferred chunks, sealed on any
  // worker count, must produce exactly the container of the same payload
  // written in one piece - the version-seeded v3 section CRC included.
  const std::vector<std::uint8_t> blob_a = random_bytes(100000, 1);
  const std::vector<std::uint8_t> blob_b = random_bytes(4097, 2);
  SnapshotWriter reference;
  {
    ByteWriter& w = reference.section("mixed");
    w.u64(7);
    w.bytes(blob_a);
    w.str("between");
    w.bytes(blob_b);
    w.bytes(blob_a);
    ByteWriter& plain = reference.section("plain");
    plain.u32(5);
    plain.bytes(blob_b);
  }
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    SCOPED_TRACE(workers);
    SnapshotWriter split;
    ByteWriter* w = &split.section("mixed");
    w->u64(7);
    w = &split.defer([&](ByteWriter& out) { out.bytes(blob_a); });
    w->str("between");
    w = &split.defer([&](ByteWriter& out) { out.bytes(blob_b); });
    w = &split.defer([&](ByteWriter& out) { out.bytes(blob_a); });  // back to back
    split.section("plain").u32(5);
    (void)split.defer([&](ByteWriter& out) { out.bytes(blob_b); });  // ends on an empty chunk
    EXPECT_THROW((void)split.bytes(), ConfigError);  // fills still pending
    split.seal(workers);
    EXPECT_EQ(split.bytes(), reference.bytes());
    const SnapshotReader read{split.bytes(), "test"};  // the reader's own CRC check
    EXPECT_EQ(read.section("plain").u32(), 5u);
  }
}

std::vector<std::uint8_t> two_section_snapshot() {
  SnapshotWriter w;
  ByteWriter& a = w.section("alpha");
  a.u64(123);
  a.str("payload");
  ByteWriter& b = w.section("beta");
  b.f64(2.5);
  return w.bytes();
}

/// Synthesizes a genuine old-version container from a current one: rewrites
/// the version field and re-stamps every section CRC with the plain payload
/// checksum pre-v3 writers used (from v3 on the section CRC is seeded with
/// the version word, so merely poking the version byte would - by design -
/// fail every CRC).
std::vector<std::uint8_t> as_version(std::vector<std::uint8_t> bytes, std::uint32_t version) {
  bytes[4] = static_cast<std::uint8_t>(version);
  bytes[5] = static_cast<std::uint8_t>(version >> 8);
  bytes[6] = static_cast<std::uint8_t>(version >> 16);
  bytes[7] = static_cast<std::uint8_t>(version >> 24);
  ByteReader in{bytes, "rewrite"};
  in.skip(8);  // magic + version
  const std::uint32_t count = in.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    (void)in.str();
    const std::uint64_t size = in.u64();
    const std::size_t crc_pos = in.pos();
    (void)in.u32();
    const std::uint32_t crc =
        crc32(std::span<const std::uint8_t>{bytes.data() + in.pos(), size});
    bytes[crc_pos] = static_cast<std::uint8_t>(crc);
    bytes[crc_pos + 1] = static_cast<std::uint8_t>(crc >> 8);
    bytes[crc_pos + 2] = static_cast<std::uint8_t>(crc >> 16);
    bytes[crc_pos + 3] = static_cast<std::uint8_t>(crc >> 24);
    in.skip(static_cast<std::size_t>(size));
  }
  return bytes;
}

TEST(SnapshotContainer, RoundTripsSections) {
  const SnapshotReader snap{two_section_snapshot(), "test"};
  EXPECT_EQ(snap.version(), kSnapshotVersion);
  EXPECT_TRUE(snap.has("alpha"));
  EXPECT_TRUE(snap.has("beta"));
  EXPECT_FALSE(snap.has("gamma"));
  ByteReader a = snap.section("alpha");
  EXPECT_EQ(a.u64(), 123u);
  EXPECT_EQ(a.str(), "payload");
  EXPECT_TRUE(a.done());
  ByteReader b = snap.section("beta");
  EXPECT_EQ(b.f64(), 2.5);
}

TEST(SnapshotContainer, MissingSectionThrows) {
  const SnapshotReader snap{two_section_snapshot(), "test"};
  EXPECT_THROW((void)snap.section("gamma"), SerializeError);
}

TEST(SnapshotContainer, BadMagicThrows) {
  std::vector<std::uint8_t> bytes = two_section_snapshot();
  bytes[0] ^= 0xff;
  try {
    const SnapshotReader snap{std::move(bytes), "test"};
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos) << e.what();
  }
}

TEST(SnapshotContainer, FutureVersionIsRefused) {
  // Refuse-forward: a snapshot written by a newer release must be rejected,
  // not misparsed. The version is the u32 after the magic.
  std::vector<std::uint8_t> bytes = two_section_snapshot();
  bytes[4] = static_cast<std::uint8_t>(kSnapshotVersion + 1);
  try {
    const SnapshotReader snap{std::move(bytes), "test"};
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST(SnapshotContainer, PreviousVersionsAreStillReadable) {
  // Back-compat window: version-1 (pre fleet-server) and version-2 (pre
  // delta-upload) snapshots must keep decoding after the version-3 bump.
  // The framing is identical across the window; only the section-CRC
  // seeding differs, which as_version() reproduces.
  for (std::uint32_t v = kSnapshotVersionMin; v < kSnapshotVersion; ++v) {
    SCOPED_TRACE(v);
    const SnapshotReader snap{as_version(two_section_snapshot(), v), "test"};
    EXPECT_EQ(snap.version(), v);
    ByteReader a = snap.section("alpha");
    EXPECT_EQ(a.u64(), 123u);
    EXPECT_EQ(a.str(), "payload");
  }
}

TEST(SnapshotContainer, InWindowVersionFlipTripsTheSeededCrc) {
  // The version word itself is outside any checksum, so from v3 on it seeds
  // every section CRC: corrupting a v3 container's version down to a still-
  // accepted v2 must fail the CRC check instead of silently decoding under
  // the wrong version's rules.
  std::vector<std::uint8_t> bytes = two_section_snapshot();
  bytes[4] = static_cast<std::uint8_t>(kSnapshotVersion - 1);
  EXPECT_THROW((void)SnapshotReader(std::move(bytes), "test"), SerializeError);
}

TEST(SnapshotContainer, VersionBelowTheWindowIsRefused) {
  std::vector<std::uint8_t> bytes = two_section_snapshot();
  bytes[4] = static_cast<std::uint8_t>(kSnapshotVersionMin - 1);
  try {
    const SnapshotReader snap{std::move(bytes), "test"};
    FAIL() << "expected SerializeError";
  } catch (const SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos) << e.what();
  }
}

TEST(SnapshotContainer, EveryTruncationIsDetected) {
  const std::vector<std::uint8_t> good = two_section_snapshot();
  for (std::size_t len = 0; len < good.size(); ++len) {
    std::vector<std::uint8_t> cut(good.begin(),
                                  good.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)SnapshotReader(std::move(cut), "test"), SerializeError)
        << "truncation to " << len << " of " << good.size() << " bytes not detected";
  }
}

TEST(SnapshotContainer, EverySingleByteFlipIsDetected) {
  // CRC32 detects all single-byte payload corruptions; header/framing
  // damage trips the magic/version/length checks instead. Either way no
  // flipped byte may yield a readable snapshot whose sections differ.
  const std::vector<std::uint8_t> good = two_section_snapshot();
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= 0x01;
    bool detected = false;
    try {
      const SnapshotReader snap{std::move(bad), "test"};
      // A flip inside a section *name* can survive framing + CRC (the CRC
      // covers the payload); the snapshot is then valid but must expose the
      // altered name, not the original.
      detected = !snap.has("alpha") || !snap.has("beta");
    } catch (const SerializeError&) {
      detected = true;
    }
    EXPECT_TRUE(detected) << "flip at byte " << i << " went unnoticed";
  }
}

TEST(SnapshotContainer, TrailingGarbageThrows) {
  std::vector<std::uint8_t> bytes = two_section_snapshot();
  bytes.push_back(0xee);
  EXPECT_THROW((void)SnapshotReader(std::move(bytes), "test"), SerializeError);
}

TEST(SnapshotContainer, FileRoundTripIsAtomic) {
  const std::string path = ::testing::TempDir() + "serialize_test_snapshot.bin";
  SnapshotWriter w;
  w.section("data").u64(99);
  w.write_file(path);
  const SnapshotReader snap = SnapshotReader::from_file(path);
  ByteReader r = snap.section("data");
  EXPECT_EQ(r.u64(), 99u);
  EXPECT_THROW((void)SnapshotReader::from_file(path + ".does-not-exist"), IoError);
  std::remove(path.c_str());
}

TEST(SnapshotContainer, StreamedFileEqualsInMemoryBytes) {
  // write_file() streams section by section; the file must still be exactly
  // what bytes() assembles, including an empty section and an empty writer.
  const std::string path = ::testing::TempDir() + "serialize_test_streamed.bin";
  const auto file_bytes = [&] {
    std::ifstream in{path, std::ios::binary};
    return std::vector<std::uint8_t>{std::istreambuf_iterator<char>{in}, {}};
  };
  SnapshotWriter empty;
  empty.write_file(path);
  EXPECT_EQ(file_bytes(), empty.bytes());
  SnapshotWriter w;
  w.section("bulk").bytes(random_bytes(100000, 7));
  (void)w.section("empty");
  w.section("tail").str("end");
  w.write_file(path);
  EXPECT_EQ(file_bytes(), w.bytes());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nextgov
