#include "common/serialize.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/task_pool.hpp"

namespace nextgov {

namespace {

/// Slicing-by-8 CRC-32 tables for the reflected IEEE polynomial
/// 0xEDB88320, built at compile time. kCrcTables[0] is the classic bytewise
/// table; kCrcTables[k][i] advances kCrcTables[k - 1][i] by one more zero
/// byte, so eight lookups fold eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() noexcept {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t crc32_accumulate(std::uint32_t crc,
                               std::span<const std::uint8_t> data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = crc ^ load_u32(p);
    const std::uint32_t hi = load_u32(p + 4);
    crc = kCrcTables[7][lo & 0xFFu] ^ kCrcTables[6][(lo >> 8) & 0xFFu] ^
          kCrcTables[5][(lo >> 16) & 0xFFu] ^ kCrcTables[4][lo >> 24] ^
          kCrcTables[3][hi & 0xFFu] ^ kCrcTables[2][(hi >> 8) & 0xFFu] ^
          kCrcTables[1][(hi >> 16) & 0xFFu] ^ kCrcTables[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) crc = kCrcTables[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return crc;
}

/// zlib's running form: the CRC of bytes already checksummed as `crc`,
/// followed by `data`.
std::uint32_t crc32_extend(std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
  return crc32_accumulate(crc ^ 0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

/// Carry-less product a * b modulo the CRC polynomial, in the reflected
/// bit order the tables use (bit 31 holds x^0).
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) noexcept {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1u) ? 0xEDB88320u ^ (b >> 1) : b >> 1;
  }
  return product;
}

/// kX2n[k] = x^(2^k) modulo the CRC polynomial.
constexpr std::array<std::uint32_t, 32> make_x2n_table() noexcept {
  std::array<std::uint32_t, 32> t{};
  std::uint32_t p = 1u << 30;  // x^1
  for (std::uint32_t& power : t) {
    power = p;
    p = multmodp(p, p);
  }
  return t;
}

constexpr std::array<std::uint32_t, 32> kX2n = make_x2n_table();

/// Section checksum for a container of the given format version, as the
/// CRC of the (empty) prefix the payload's checksum continues from. From
/// v3 on the CRC is seeded with the version word itself, so the (otherwise
/// unprotected) version field cannot be flipped to another in-window value
/// without every section check failing: a v3 file misread as v2 verifies
/// with the plain payload CRC and mismatches, and vice versa. v1/v2 files
/// keep their original plain-payload checksum, which is what preserves
/// read-back compatibility.
std::uint32_t section_crc_seed(std::uint32_t version) noexcept {
  if (version < 3) return 0;  // crc32 of nothing
  const std::array<std::uint8_t, 4> seed{
      static_cast<std::uint8_t>(version), static_cast<std::uint8_t>(version >> 8),
      static_cast<std::uint8_t>(version >> 16), static_cast<std::uint8_t>(version >> 24)};
  return crc32(seed);
}

std::uint32_t section_crc(std::uint32_t version, std::span<const std::uint8_t> payload) noexcept {
  return crc32_extend(section_crc_seed(version), payload);
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  return crc32_accumulate(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) noexcept {
  // x^(8 * len_b), one table power per set bit of len_b (starting at
  // x^(2^3) = one byte). x has multiplicative order dividing 2^32 - 1, so
  // x^(2^32) = x and the table index wraps.
  std::uint32_t shift = 1u << 31;  // x^0
  for (unsigned k = 3; len_b != 0; len_b >>= 1, ++k) {
    if ((len_b & 1u) != 0) shift = multmodp(kX2n[k & 31u], shift);
  }
  return multmodp(shift, crc_a) ^ crc_b;
}

// --- ByteWriter -------------------------------------------------------------

void ByteWriter::u16(std::uint16_t v) {
  std::uint8_t* p = extend(2);
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void ByteWriter::f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

// --- ByteReader -------------------------------------------------------------

void ByteReader::fail(const std::string& what) const {
  throw SerializeError(context_ + ": " + what);
}

void ByteReader::need(std::size_t n) {
  if (remaining() < n) {
    fail("truncated (wanted " + std::to_string(n) + " more bytes, " +
         std::to_string(remaining()) + " left)");
  }
}

void ByteReader::skip(std::size_t n) {
  need(n);
  pos_ += n;
}

const std::uint8_t* ByteReader::take(std::size_t n) {
  need(n);
  const std::uint8_t* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  const std::uint16_t v = static_cast<std::uint16_t>(
      static_cast<std::uint32_t>(data_[pos_]) | static_cast<std::uint32_t>(data_[pos_ + 1]) << 8);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() { return load_u32(take(4)); }

std::uint64_t ByteReader::u64() { return load_u64(take(8)); }

float ByteReader::f32() { return std::bit_cast<float>(u32()); }

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

bool ByteReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) fail("corrupt boolean value " + std::to_string(v));
  return v == 1;
}

std::string ByteReader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return out;
}

// --- SnapshotWriter ---------------------------------------------------------

ByteWriter& SnapshotWriter::section(std::string name) {
  for (const Section& s : sections_) {
    require(s.name != name, "snapshot section name used twice");
  }
  sections_.push_back(Section{std::move(name), {}});
  sections_.back().chunks.emplace_back();
  return sections_.back().chunks.back().bytes;
}

ByteWriter& SnapshotWriter::defer(std::function<void(ByteWriter&)> fill) {
  require(!sections_.empty(), "SnapshotWriter::defer needs an open section");
  require(static_cast<bool>(fill), "SnapshotWriter::defer needs a fill");
  std::vector<Chunk>& chunks = sections_.back().chunks;
  chunks.push_back(Chunk{ByteWriter{}, std::move(fill), std::nullopt});
  chunks.emplace_back();
  return chunks.back().bytes;
}

void SnapshotWriter::seal(std::size_t workers) {
  std::vector<Chunk*> pending;
  for (Section& s : sections_) {
    for (Chunk& c : s.chunks) {
      if (c.fill) pending.push_back(&c);
    }
  }
  run_indexed_tasks(pending.size(), resolve_workers(workers, pending.size()),
                    [&](std::size_t i) {
                      Chunk& c = *pending[i];
                      c.fill(c.bytes);
                      c.fill = nullptr;
                      c.crc = crc32(c.bytes.data());
                    });
}

template <typename Emit>
void SnapshotWriter::emit(Emit&& out) const {
  // Checked before the first byte goes out: a chunk still waiting for its
  // fill has neither its bytes nor its CRC yet.
  for (const Section& s : sections_) {
    for (const Chunk& c : s.chunks) {
      require(!c.fill, "SnapshotWriter: seal() the deferred chunks before emitting");
    }
  }
  ByteWriter head;
  head.u32(kSnapshotMagic);
  head.u32(kSnapshotVersion);
  head.u32(static_cast<std::uint32_t>(sections_.size()));
  out(std::span<const std::uint8_t>{head.data()});
  for (const Section& s : sections_) {
    std::uint64_t size = 0;
    std::uint32_t crc = section_crc_seed(kSnapshotVersion);
    for (const Chunk& c : s.chunks) {
      size += c.bytes.size();
      crc = c.crc.has_value() ? crc32_combine(crc, *c.crc, c.bytes.size())
                              : crc32_extend(crc, c.bytes.data());
    }
    ByteWriter frame;
    frame.str(s.name);
    frame.u64(size);
    frame.u32(crc);
    out(std::span<const std::uint8_t>{frame.data()});
    for (const Chunk& c : s.chunks) out(std::span<const std::uint8_t>{c.bytes.data()});
  }
}

std::vector<std::uint8_t> SnapshotWriter::bytes() const {
  std::size_t total = 12;  // magic + version + section count
  for (const Section& s : sections_) {
    total += 16 + s.name.size();
    for (const Chunk& c : s.chunks) total += c.bytes.size();
  }
  std::vector<std::uint8_t> blob;
  blob.reserve(total);
  emit([&](std::span<const std::uint8_t> part) {
    blob.insert(blob.end(), part.begin(), part.end());
  });
  return blob;
}

void SnapshotWriter::write_file(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out{tmp, std::ios::binary | std::ios::trunc};
    if (!out) throw IoError("cannot open snapshot for writing: " + tmp);
    emit([&](std::span<const std::uint8_t> part) {
      out.write(reinterpret_cast<const char*>(part.data()),
                static_cast<std::streamsize>(part.size()));
    });
    out.flush();
    if (!out) throw IoError("failed writing snapshot: " + tmp);
  }
  // POSIX rename atomically replaces `path`: a reader sees either the old
  // complete snapshot or the new complete snapshot, never a torn write.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw IoError("cannot move snapshot into place: " + path);
  }
}

// --- SnapshotReader ---------------------------------------------------------

SnapshotReader::SnapshotReader(std::vector<std::uint8_t> bytes, std::string label)
    : bytes_{std::move(bytes)}, label_{std::move(label)} {
  ByteReader in{bytes_, label_};
  const std::uint32_t magic = in.u32();
  if (magic != kSnapshotMagic) in.fail("not a nextgov snapshot (bad magic)");
  version_ = in.u32();
  if (version_ > kSnapshotVersion) {
    in.fail("snapshot format version " + std::to_string(version_) +
            " is newer than this build supports (" + std::to_string(kSnapshotVersion) +
            "); refusing to guess");
  }
  if (version_ < kSnapshotVersionMin) {
    in.fail("snapshot format version " + std::to_string(version_) +
            " is older than the supported window [" + std::to_string(kSnapshotVersionMin) +
            ", " + std::to_string(kSnapshotVersion) + "]");
  }
  const std::uint32_t count = in.u32();
  sections_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Section s;
    s.name = in.str();
    const std::uint64_t size = in.u64();
    const std::uint32_t expected_crc = in.u32();
    if (in.remaining() < size) {
      in.fail("section '" + s.name + "' truncated (header claims " + std::to_string(size) +
              " bytes, " + std::to_string(in.remaining()) + " left)");
    }
    s.offset = in.pos();
    s.size = static_cast<std::size_t>(size);
    const std::span<const std::uint8_t> payload{bytes_.data() + s.offset, s.size};
    const std::uint32_t actual_crc = section_crc(version_, payload);
    if (actual_crc != expected_crc) {
      in.fail("section '" + s.name + "' failed its CRC32 check (stored " +
              std::to_string(expected_crc) + ", computed " + std::to_string(actual_crc) +
              ") - snapshot is corrupt");
    }
    in.skip(s.size);  // validated payload; next section header follows
    sections_.push_back(std::move(s));
  }
  if (!in.done()) in.fail("trailing garbage after the last section");
}

SnapshotReader SnapshotReader::from_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary | std::ios::ate};
  if (!in) throw IoError("cannot open snapshot: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw IoError("failed reading snapshot: " + path);
  return SnapshotReader{std::move(bytes), path};
}

bool SnapshotReader::has(std::string_view name) const noexcept {
  for (const Section& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

ByteReader SnapshotReader::section(std::string_view name) const {
  for (const Section& s : sections_) {
    if (s.name == name) {
      return ByteReader{std::span<const std::uint8_t>{bytes_.data() + s.offset, s.size},
                        label_ + " section '" + s.name + "'"};
    }
  }
  throw SerializeError(label_ + ": missing required section '" + std::string(name) + "'");
}

}  // namespace nextgov
