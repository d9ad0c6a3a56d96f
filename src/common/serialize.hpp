// serialize.hpp - versioned, endian-stable binary snapshot format.
//
// Everything the repo persists (Q-tables, agent training state, whole-fleet
// checkpoints) goes through this one layer so corruption handling, version
// policy and byte order are decided exactly once:
//
//   * ByteWriter/ByteReader encode fixed-width little-endian primitives
//     (floats via their IEEE-754 bit patterns), so snapshot bytes are
//     identical across hosts and a snapshot written on one machine restores
//     bit-identically on another;
//   * SnapshotWriter/SnapshotReader wrap payloads in a sectioned container:
//     magic + format version + named sections, each with a length and a
//     CRC32 over its payload. The reader validates all of it up front and
//     throws SerializeError with a descriptive message on bad magic,
//     unsupported version, truncation or checksum mismatch - a damaged
//     snapshot is always a reported error, never UB or a silent partial
//     load.
//
// Version policy (documented in bench/README.md): writers always emit
// kSnapshotVersion; readers refuse anything newer ("refuse-forward") and
// read back at most one version (kSnapshotVersionMin), so a rolling fleet
// upgrade can always restore the previous release's checkpoints.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace nextgov {

/// Corruption, truncation or version mismatch detected while decoding a
/// snapshot. Derives from IoError so existing persistence call sites that
/// handle IoError keep working.
class SerializeError : public IoError {
 public:
  using IoError::IoError;
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant): crc32 of
/// "123456789" is 0xCBF43926. Detects all single-byte corruptions and any
/// truncation the length fields miss.
///
/// Cost model: slicing-by-8 - eight bytes per step through eight
/// compile-time 256-entry tables (8 KiB), about a byte per cycle, so
/// checksumming a multi-MB fleet snapshot is ~1 ms rather than the ~7 ms of
/// a byte-at-a-time table walk. Input is read with shifts, never a word
/// load, so the result does not depend on host byte order.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

/// CRC-32 of the concatenation A||B from crc_a = crc32(A), crc_b = crc32(B)
/// and len_b = |B| alone, without reading a byte of either (the algorithm
/// of zlib's crc32_combine).
///
/// Cost model: crc_a is multiplied by x^(8 * len_b) modulo the CRC
/// polynomial, built from a compile-time table of the 32 powers x^(2^k) -
/// one 32-step carry-less multiply per set bit of len_b, so at most 65
/// multiplies (a few microseconds at worst) however long B is. That is what
/// lets SnapshotWriter checksum a section's chunks on different threads
/// and still store one CRC per section.
[[nodiscard]] std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                                          std::uint64_t len_b) noexcept;

/// Little-endian stores/loads at a raw position. Byte shifts keep the
/// encoding identical on every host; compilers fuse them into one move.
inline void store_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}
inline void store_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  store_u32(p, static_cast<std::uint32_t>(v));
  store_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}
[[nodiscard]] inline std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}
[[nodiscard]] inline std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  return static_cast<std::uint64_t>(load_u32(p)) |
         static_cast<std::uint64_t>(load_u32(p + 4)) << 32;
}

/// Appends fixed-width little-endian primitives to a growable byte buffer.
/// Each value grows the buffer once; bulk encoders (Q-table rows) size a
/// whole block with extend() and fill it through store_u32/store_u64.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v) { store_u32(extend(4), v); }
  void u64(std::uint64_t v) { store_u64(extend(8), v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v);   ///< IEEE-754 bit pattern, bit-exact round trip
  void f64(double v);  ///< IEEE-754 bit pattern, bit-exact round trip
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed (u32) UTF-8 bytes.
  void str(std::string_view s);
  void bytes(std::span<const std::uint8_t> data);
  /// Appends `n` bytes (zeroed) and returns where they start; the pointer
  /// is invalidated by the next write.
  [[nodiscard]] std::uint8_t* extend(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Decodes what ByteWriter encoded. Every read is bounds-checked: running
/// past the payload throws SerializeError naming `context` (set it to the
/// section/file being decoded so the error says *what* was truncated).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data, std::string context = "snapshot")
      : data_{data}, context_{std::move(context)} {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] float f32();
  [[nodiscard]] double f64();
  [[nodiscard]] bool boolean();
  [[nodiscard]] std::string str();

  /// Skips `n` payload bytes (bounds-checked like every read).
  void skip(std::size_t n);
  /// Consumes `n` bytes with one bounds check and returns where they start
  /// (for bulk decoders reading through load_u32/load_u64).
  [[nodiscard]] const std::uint8_t* take(std::size_t n);

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
  /// How many of `claimed` rows of `row_bytes` each the unread payload can
  /// hold: the most a decoder may pre-size for from an untrusted count.
  [[nodiscard]] std::size_t rows_available(std::uint64_t claimed,
                                           std::size_t row_bytes) const noexcept {
    return static_cast<std::size_t>(std::min<std::uint64_t>(claimed, remaining() / row_bytes));
  }
  [[nodiscard]] const std::string& context() const noexcept { return context_; }

  /// Throws SerializeError("<context>: <what>").
  [[noreturn]] void fail(const std::string& what) const;

 private:
  void need(std::size_t n);

  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
  std::string context_;
};

inline constexpr std::uint32_t kSnapshotMagic = 0x4e585353;  // "NXSS"
/// Version 3 (delta-upload era): fleet snapshots may carry an additional
/// `sync_state` section (per-shard sync cursors + the sync-base tables that
/// delta-encoded uploads diff against, plus cumulative wire-byte counters -
/// see sim/fleet.hpp). Version 2 (fleet-server era) added the optional
/// `server_state` section (device leases, deadline clock, pending late
/// uploads). The container framing itself is unchanged across all three
/// versions: older files simply lack the newer sections and decode through
/// the same path with those fields defaulted.
inline constexpr std::uint32_t kSnapshotVersion = 3;
/// Oldest container version the reader still accepts. The nominal policy is
/// read-back-one (a rolling fleet upgrade can always restore the previous
/// release's checkpoints), but because every addition since v1 has been an
/// optional section, the window is kept at 1: refusing v1 would cost
/// compatibility without retiring any decode path.
inline constexpr std::uint32_t kSnapshotVersionMin = 1;

/// Assembles a sectioned snapshot. Sections are written in call order;
/// names must be unique and are the reader's lookup keys.
///
/// A section's payload is a run of chunks: the writer section() hands out,
/// and one chunk per defer() call plus the fresh writer that follows it.
/// Deferred chunks are filled and checksummed by seal(), across a worker
/// pool; the section's stored CRC is combined from the chunk CRCs
/// (crc32_combine), so the container bytes are exactly those of one
/// contiguous payload.
class SnapshotWriter {
 public:
  /// Starts a new named section and returns the writer for its payload.
  /// The returned reference is invalidated by the next section() or
  /// defer() call.
  ByteWriter& section(std::string name);

  /// Ends the current section's open chunk and reserves the next payload
  /// bytes for `fill`, which writes them into a chunk of its own when
  /// seal() runs - possibly on a worker thread, which then checksums that
  /// chunk too. Returns the writer for the bytes that follow. Whatever
  /// `fill` reads must stay alive until seal().
  ByteWriter& defer(std::function<void(ByteWriter&)> fill);

  /// Runs every pending defer() fill, each followed by its chunk's CRC32,
  /// across `workers` threads (common/task_pool.hpp). The bytes do not
  /// depend on `workers`. bytes() and write_file() refuse a writer with
  /// fills still pending.
  void seal(std::size_t workers = 1);

  /// The assembled container (magic, version, section table + payloads,
  /// per-section CRC32).
  [[nodiscard]] std::vector<std::uint8_t> bytes() const;

  /// Writes the container to `path` atomically (temp file + rename), so a
  /// crash mid-write can never leave a half-written snapshot at `path`.
  /// The header and each chunk stream straight from their buffers; the
  /// file is never assembled in memory first. Throws IoError on filesystem
  /// failure.
  void write_file(const std::string& path) const;

 private:
  struct Chunk {
    ByteWriter bytes;
    std::function<void(ByteWriter&)> fill;  ///< pending until seal() runs it
    std::optional<std::uint32_t> crc;       ///< set by seal() for deferred chunks
  };
  struct Section {
    std::string name;
    std::vector<Chunk> chunks;
  };
  /// Emits the container as a run of byte spans (the single definition of
  /// the layout that bytes() and write_file() share).
  template <typename Emit>
  void emit(Emit&& out) const;
  std::vector<Section> sections_;
};

/// Parses and validates a snapshot container: magic, version window
/// [kSnapshotVersionMin, kSnapshotVersion], section framing and every
/// section's CRC32 are all checked in the constructor, so a SnapshotReader
/// that exists is known-good.
class SnapshotReader {
 public:
  /// `label` names the snapshot in error messages (usually the file path).
  SnapshotReader(std::vector<std::uint8_t> bytes, std::string label = "snapshot");

  /// Reads and validates `path`. Throws IoError if unreadable,
  /// SerializeError if damaged.
  [[nodiscard]] static SnapshotReader from_file(const std::string& path);

  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }
  [[nodiscard]] bool has(std::string_view name) const noexcept;
  /// Payload reader for a section; throws SerializeError when missing.
  [[nodiscard]] ByteReader section(std::string_view name) const;

 private:
  struct Section {
    std::string name;
    std::size_t offset{0};
    std::size_t size{0};
  };
  std::vector<std::uint8_t> bytes_;
  std::vector<Section> sections_;
  std::uint32_t version_{0};
  std::string label_;
};

}  // namespace nextgov
