#include "rl/qtable.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "common/error.hpp"

namespace nextgov::rl {

namespace {
/// Section name inside the snapshot container used by save()/load().
constexpr const char* kQTableSection = "qtable";
}  // namespace

QTable::QTable(std::size_t action_count, double default_q)
    : actions_{action_count}, default_q_{default_q} {
  require(action_count > 0, "QTable needs at least one action");
}

std::size_t QTable::find_slot(StateKey s) const noexcept {
  if (capacity_ == 0) return kNoSlot;
  const std::size_t mask = capacity_ - 1;
  std::size_t i = StateKeyHash{}(s) & mask;
  // Load stays below 3/4 and nothing is ever erased, so the probe chain is
  // tombstone-free and always terminates at an empty slot.
  while (used_[i]) {
    if (keys_[i] == s) return i;
    i = (i + 1) & mask;
  }
  return kNoSlot;
}

std::size_t QTable::insert_slot(StateKey s) {
  if (4 * (size_ + 1) > 3 * capacity_) reserve(size_ + 1);
  const std::size_t mask = capacity_ - 1;
  std::size_t i = StateKeyHash{}(s) & mask;
  while (used_[i]) {
    if (keys_[i] == s) return i;
    i = (i + 1) & mask;
  }
  used_[i] = 1;
  keys_[i] = s;
  // visits_/tried_ of a never-claimed slot are already zero; only the Q row
  // needs the optimistic default.
  for (std::size_t a = 0; a < actions_; ++a) {
    q_[i * actions_ + a] = static_cast<float>(default_q_);
  }
  ++size_;
  return i;
}

void QTable::reserve(std::size_t states) {
  if (states == 0) return;
  // Smallest power of two with states <= 3/4 capacity, i.e. >= ceil(4n/3).
  const std::size_t cap = std::bit_ceil((4 * states + 2) / 3);
  if (cap > capacity_) rehash(cap);
}

void QTable::rehash(std::size_t new_cap) {
  std::vector<StateKey> keys(new_cap, 0);
  std::vector<std::uint8_t> used(new_cap, 0);
  std::vector<float> q(new_cap * actions_, 0.0f);
  std::vector<std::uint64_t> visits(new_cap, 0);
  std::vector<std::uint32_t> tried(new_cap, 0);
  const std::size_t mask = new_cap - 1;
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (!used_[i]) continue;
    std::size_t j = StateKeyHash{}(keys_[i]) & mask;
    while (used[j]) j = (j + 1) & mask;
    used[j] = 1;
    keys[j] = keys_[i];
    visits[j] = visits_[i];
    tried[j] = tried_[i];
    for (std::size_t a = 0; a < actions_; ++a) {
      q[j * actions_ + a] = q_[i * actions_ + a];
    }
  }
  keys_ = std::move(keys);
  used_ = std::move(used);
  q_ = std::move(q);
  visits_ = std::move(visits);
  tried_ = std::move(tried);
  capacity_ = new_cap;
}

double QTable::q(StateKey s, std::size_t a) const noexcept {
  NEXTGOV_ASSERT(a < actions_);
  const std::size_t slot = find_slot(s);
  return slot == kNoSlot ? default_q_ : static_cast<double>(q_[slot * actions_ + a]);
}

void QTable::set_q(StateKey s, std::size_t a, double value) {
  NEXTGOV_ASSERT(a < actions_);
  const std::size_t slot = insert_slot(s);
  q_[slot * actions_ + a] = static_cast<float>(value);
  if (a < 32) tried_[slot] |= (1u << a);
}

double QTable::max_q(StateKey s) const noexcept {
  const std::size_t slot = find_slot(s);
  if (slot == kNoSlot) return default_q_;
  float best = q_[slot * actions_];
  for (std::size_t a = 1; a < actions_; ++a) {
    const float v = q_[slot * actions_ + a];
    best = v > best ? v : best;
  }
  return static_cast<double>(best);
}

std::size_t QTable::best_action(StateKey s, std::size_t fallback) const noexcept {
  const std::size_t slot = find_slot(s);
  if (slot == kNoSlot) return fallback;
  std::size_t best = 0;
  for (std::size_t a = 1; a < actions_; ++a) {
    if (q_[slot * actions_ + a] > q_[slot * actions_ + best]) best = a;
  }
  return best;
}

std::size_t QTable::best_tried_action(StateKey s, std::size_t fallback) const noexcept {
  const std::size_t slot = find_slot(s);
  if (slot == kNoSlot || tried_[slot] == 0) return fallback;
  std::size_t best = fallback;
  bool found = false;
  for (std::size_t a = 0; a < actions_ && a < 32; ++a) {
    if ((tried_[slot] & (1u << a)) == 0) continue;
    if (!found || q_[slot * actions_ + a] > q_[slot * actions_ + best]) {
      best = a;
      found = true;
    }
  }
  return best;
}

void QTable::record_visit(StateKey s) {
  ++visits_[insert_slot(s)];
  ++total_visits_;
}

void QTable::add_visits(StateKey s, std::uint64_t n) {
  visits_[insert_slot(s)] += n;
  total_visits_ += n;
}

std::uint64_t QTable::visits(StateKey s) const noexcept {
  const std::size_t slot = find_slot(s);
  return slot == kNoSlot ? 0 : visits_[slot];
}

bool QTable::contains(StateKey s) const noexcept { return find_slot(s) != kNoSlot; }

std::uint32_t QTable::tried_mask(StateKey s) const noexcept {
  const std::size_t slot = find_slot(s);
  return slot == kNoSlot ? 0 : tried_[slot];
}

std::optional<QTable::EntryView> QTable::find_entry(StateKey s) const noexcept {
  const std::size_t slot = find_slot(s);
  if (slot == kNoSlot) return std::nullopt;
  return EntryView{keys_[slot], visits_[slot], tried_[slot], q_.data() + slot * actions_, 1};
}

void QTable::install_entry(StateKey s, std::uint64_t visits, std::uint32_t tried,
                           std::span<const float> q) {
  NEXTGOV_ASSERT(q.size() == actions_);
  const std::size_t slot = insert_slot(s);
  total_visits_ += visits - visits_[slot];  // wraps correctly when shrinking
  visits_[slot] = visits;
  tried_[slot] = tried;
  for (std::size_t a = 0; a < actions_; ++a) q_[slot * actions_ + a] = q[a];
}

std::size_t QTable::memory_bytes() const noexcept {
  return sizeof(QTable) +
         capacity_ * (sizeof(StateKey) + sizeof(std::uint8_t) + sizeof(std::uint64_t) +
                      sizeof(std::uint32_t) + actions_ * sizeof(float));
}

void QTable::clear() {
  std::fill(used_.begin(), used_.end(), std::uint8_t{0});
  std::fill(visits_.begin(), visits_.end(), std::uint64_t{0});
  std::fill(tried_.begin(), tried_.end(), std::uint32_t{0});
  size_ = 0;
  total_visits_ = 0;
}

bool QTable::operator==(const QTable& other) const noexcept {
  if (actions_ != other.actions_ || total_visits_ != other.total_visits_ ||
      size_ != other.size_ ||
      std::bit_cast<std::uint64_t>(default_q_) != std::bit_cast<std::uint64_t>(other.default_q_)) {
    return false;
  }
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (!used_[i]) continue;
    const std::size_t j = other.find_slot(keys_[i]);
    if (j == kNoSlot) return false;
    if (visits_[i] != other.visits_[j] || tried_[i] != other.tried_[j]) return false;
    for (std::size_t a = 0; a < actions_; ++a) {
      if (std::bit_cast<std::uint32_t>(q_[i * actions_ + a]) !=
          std::bit_cast<std::uint32_t>(other.q_[j * other.actions_ + a])) {
        return false;
      }
    }
  }
  return true;
}

std::vector<std::uint32_t> QTable::sorted_slots() const {
  // LSD radix sort of (key, slot) pairs, one stable counting pass per key
  // byte. A byte position where every key holds the same value cannot
  // reorder anything and is skipped, so packed state keys need ~4 passes.
  // Keys are unique, so the result is exactly the ascending-key order.
  struct Item {
    StateKey key;
    std::uint32_t slot;
  };
  std::vector<Item> items;
  items.reserve(size_);
  StateKey varying = 0;  // bits in which some key differs from the first
  for (std::size_t i = 0; i < capacity_; ++i) {
    if (!used_[i]) continue;
    if (!items.empty()) varying |= keys_[i] ^ items.front().key;
    items.push_back(Item{keys_[i], static_cast<std::uint32_t>(i)});
  }
  std::vector<Item> scratch(items.size());
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFFu) == 0) continue;
    std::array<std::uint32_t, 256> offset{};
    for (const Item& it : items) ++offset[(it.key >> shift) & 0xFFu];
    std::uint32_t next = 0;
    for (std::uint32_t& o : offset) next += std::exchange(o, next);
    for (const Item& it : items) scratch[offset[(it.key >> shift) & 0xFFu]++] = it;
    items.swap(scratch);
  }
  std::vector<std::uint32_t> slots(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) slots[i] = items[i].slot;
  return slots;
}

void QTable::serialize(ByteWriter& out) const {
  out.u64(static_cast<std::uint64_t>(actions_));
  out.f64(default_q_);
  out.u64(total_visits_);
  out.u64(static_cast<std::uint64_t>(size_));
  // Canonical order: sorted by state key. The probe order depends on
  // insertion history and capacity, which must not leak into the snapshot
  // bytes (resume-equality tests compare serialized fleets byte-for-byte).
  // Row layout: key u64, visits u64, tried u32, actions x f32 - sized once
  // for the whole table, then filled row by row.
  const std::size_t row_bytes = 20 + 4 * actions_;
  std::uint8_t* p = out.extend(size_ * row_bytes);
  for (const std::uint32_t slot : sorted_slots()) {
    store_u64(p, keys_[slot]);
    store_u64(p + 8, visits_[slot]);
    store_u32(p + 16, tried_[slot]);
    const float* row = q_.data() + slot * actions_;
    for (std::size_t a = 0; a < actions_; ++a) {
      store_u32(p + 20 + 4 * a, std::bit_cast<std::uint32_t>(row[a]));
    }
    p += row_bytes;
  }
}

QTable QTable::deserialize(ByteReader& in) {
  const std::uint64_t actions = in.u64();
  if (actions == 0 || actions > 4096) {
    in.fail("corrupt Q-table header: implausible action count " + std::to_string(actions));
  }
  const double default_q = in.f64();
  const std::uint64_t total_visits = in.u64();
  const std::uint64_t states = in.u64();
  QTable t{static_cast<std::size_t>(actions), default_q};
  t.total_visits_ = total_visits;
  const std::size_t row_bytes = 20 + 4 * t.actions_;  // serialize()'s row layout
  // `states` is untrusted header data: size the table for the rows the
  // payload can actually hold, so a corrupt count surfaces as a truncation
  // SerializeError below instead of a giant allocation here.
  t.reserve(in.rows_available(states, row_bytes));
  for (std::uint64_t i = 0; i < states; ++i) {
    const std::uint8_t* p = in.take(row_bytes);
    const StateKey key = load_u64(p);
    if (t.contains(key)) in.fail("corrupt Q-table payload: duplicate state key");
    const std::size_t slot = t.insert_slot(key);
    t.visits_[slot] = load_u64(p + 8);
    t.tried_[slot] = load_u32(p + 16);
    float* row = t.q_.data() + slot * t.actions_;
    for (std::size_t a = 0; a < t.actions_; ++a) {
      row[a] = std::bit_cast<float>(load_u32(p + 20 + 4 * a));
    }
  }
  return t;
}

void QTable::save(const std::string& path) const {
  SnapshotWriter snapshot;
  serialize(snapshot.section(kQTableSection));
  snapshot.write_file(path);
}

QTable QTable::load(const std::string& path) {
  const SnapshotReader snapshot = SnapshotReader::from_file(path);
  ByteReader in = snapshot.section(kQTableSection);
  QTable t = deserialize(in);
  if (!in.done()) in.fail("trailing bytes after the Q-table payload");
  return t;
}

}  // namespace nextgov::rl
