#include "tags/soa.hpp"

#include "common/error.hpp"

namespace rfid::tags {

void TagSoA::reserve(std::size_t n) {
  tag_.reserve(n);
  id_hi_.reserve(n);
  id_lo_.reserve(n);
  slot_.reserve(n);
}

void TagSoA::clear() noexcept {
  tag_.clear();
  id_hi_.clear();
  id_lo_.clear();
  slot_.clear();
}

void TagSoA::push_back(const Tag* tag) {
  const TagId& id = tag->id();
  tag_.push_back(tag);
  id_hi_.push_back((static_cast<std::uint64_t>(id.words[0]) << 32) |
                   id.words[1]);
  id_lo_.push_back(static_cast<std::uint64_t>(id.words[2]));
  slot_.push_back(0);
}

void TagSoA::resize_down(std::size_t n) noexcept {
  tag_.resize(n);
  id_hi_.resize(n);
  id_lo_.resize(n);
  slot_.resize(n);
}

void TagSoA::compact(const std::vector<char>& done) {
  // Branchless stable compaction: always copy element i to the write
  // cursor, advance the cursor only for survivors. Whether a tag survives
  // a round is close to a coin flip, so a conditional copy would eat a
  // branch mispredict per element; the unconditional form is pure
  // store-port throughput. Copying i -> write with write <= i is safe
  // (self-copy at worst), and the relative order of survivors is kept.
  // Slots are scratch (see header) and are not moved.
  std::size_t write = 0;
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t keep = done[i] == 0 ? 1u : 0u;
    tag_[write] = tag_[i];
    id_hi_[write] = id_hi_[i];
    id_lo_[write] = id_lo_[i];
    write += keep;
  }
  resize_down(write);
}

void TagSoA::compact_singletons(const std::vector<std::uint32_t>& counts,
                                simd::Backend backend) {
  // Survival is "my bucket was not a singleton", read straight off the
  // round's histogram. Reading slot_[i] is safe even though slots are not
  // moved: the read index only ever runs ahead of the write cursor, so
  // every slot read is the one this round's hash wrote. The kernel treats
  // the Tag-pointer column as an opaque 64-bit payload it only copies.
  static_assert(sizeof(const Tag*) == sizeof(std::uint64_t));
  const std::size_t write = simd::compact_nonsingletons(
      counts.data(), slot_.data(),
      reinterpret_cast<std::uint64_t*>(tag_.data()), id_hi_.data(),
      id_lo_.data(), size(), backend);
  resize_down(write);
}

void TagSoA::split_circle(std::uint64_t seed, std::uint64_t modulus,
                          std::uint64_t threshold, TagSoA& joined,
                          simd::Backend backend) {
  RFID_EXPECTS(&joined != this);
  // The kernel writes joiners by index and may store whole vectors past
  // the joined cursor, so the joined identity columns are grown to n
  // (room for every element to join; no zero-fill, and no allocation
  // once a reused `joined` has held a subset this large), then truncated
  // to the prefix the kernel kept.
  const std::size_t n = size();
  joined.tag_.resize(n);
  joined.id_hi_.resize(n);
  joined.id_lo_.resize(n);
  static_assert(sizeof(const Tag*) == sizeof(std::uint64_t));
  const std::size_t count = simd::split_circle(
      seed, modulus, threshold, reinterpret_cast<std::uint64_t*>(tag_.data()),
      id_hi_.data(), id_lo_.data(), n,
      reinterpret_cast<std::uint64_t*>(joined.tag_.data()),
      joined.id_hi_.data(), joined.id_lo_.data(), backend);
  joined.tag_.resize(count);
  joined.id_hi_.resize(count);
  joined.id_lo_.resize(count);
  joined.slot_.resize(count);
  resize_down(n - count);
}

}  // namespace rfid::tags
