// Structure-of-arrays view of the active (still-unread) population.
//
// The round engine's hot loop touches three things per tag per round: the
// two 64-bit ID words feeding H(r, id), the picked bucket slot, and the
// done flag. The old array-of-structs device list (Tag pointer + index +
// presence) made every hash a pointer chase into the Tag object; this view
// keeps each field in its own contiguous array so the batched kernels in
// common/simd.hpp stream the ID words at full width and the compaction
// walks plain arrays. Element i of every array describes the same tag —
// all mutators below preserve that alignment and the relative order of
// surviving elements (protocol semantics depend on ascending dispatch
// order).
//
// The Tag pointer column stays: polls, records and presence checks need
// the full object. It is simply no longer on the hashing path. Presence
// itself is NOT mirrored here — the polling loops query
// sim::Session::is_present live so churn schedules are honoured, and a
// cached copy would only invite stale reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/simd.hpp"
#include "tags/tag.hpp"

namespace rfid::tags {

class TagSoA final {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return tag_.size(); }
  [[nodiscard]] bool empty() const noexcept { return tag_.empty(); }

  void reserve(std::size_t n);
  void clear() noexcept;

  /// Appends one tag, splitting its 96-bit ID into the (hi, lo) words
  /// rfid::tag_hash_words consumes. The new element's slot is 0 until a
  /// round writes it.
  void push_back(const Tag* tag);

  [[nodiscard]] const Tag* tag(std::size_t i) const noexcept {
    return tag_[i];
  }
  [[nodiscard]] std::uint64_t id_hi(std::size_t i) const noexcept {
    return id_hi_[i];
  }
  [[nodiscard]] std::uint64_t id_lo(std::size_t i) const noexcept {
    return id_lo_[i];
  }

  /// The bucket index the tag picked this round (written wholesale by the
  /// engine's batched hash; DFSA writes per element). Round-scoped
  /// SCRATCH: every round overwrites slots [0, size()) before reading
  /// any, and no mutator below promises to preserve them — compaction
  /// skips the column entirely so the hot path never pays for moving
  /// values the next round immediately clobbers.
  [[nodiscard]] std::uint32_t slot(std::size_t i) const noexcept {
    return slot_[i];
  }
  void set_slot(std::size_t i, std::uint32_t value) noexcept {
    slot_[i] = value;
  }

  // Flat-array surface for the batched kernels (common/simd.hpp).
  [[nodiscard]] const std::uint64_t* id_hi_data() const noexcept {
    return id_hi_.data();
  }
  [[nodiscard]] const std::uint64_t* id_lo_data() const noexcept {
    return id_lo_.data();
  }
  [[nodiscard]] std::uint32_t* slot_data() noexcept { return slot_.data(); }

  /// Order-preserving erase of every element whose done flag is set.
  /// Slots are left stale (round-scoped scratch, see slot()).
  void compact(const std::vector<char>& done);

  /// Order-preserving erase of every element whose picked slot is a
  /// singleton bucket (counts[slot] == 1) — the clean-round compaction,
  /// where every singleton poll deterministically succeeded and every
  /// collision-bucket tag stays awake. Slots are left stale. Runs through
  /// simd::compact_nonsingletons; any backend keeps exactly the same
  /// elements in the same order.
  void compact_singletons(const std::vector<std::uint32_t>& counts,
                          simd::Backend backend);

  /// EHPP's circle split: moves every element whose H(seed, id) mod
  /// `modulus` is below `threshold` into `joined` (its previous contents
  /// replaced, its capacity kept) and compacts the rest in place, both
  /// sides in their original relative order. Runs through
  /// simd::split_circle; any backend splits identically. Slots on both
  /// sides are left stale. A `joined` reused across circles allocates
  /// only when a circle's input outgrows every earlier one.
  void split_circle(std::uint64_t seed, std::uint64_t modulus,
                    std::uint64_t threshold, TagSoA& joined,
                    simd::Backend backend);

  /// Truncates to the first `n` elements (n <= size()).
  void resize_down(std::size_t n) noexcept;

 private:
  /// std::allocator whose value-less construct() default-initialises, so
  /// growing a column of trivial values with resize() leaves the new
  /// elements unwritten instead of zero-filling them. split_circle grows
  /// its output to the input's size (room for every tag to join) and the
  /// kernel then writes the [0, joined) prefix it keeps, plus at most a
  /// vector's worth of lanes past it; zero-filling the rest would cost as
  /// much memory traffic as the split itself.
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    using std::allocator<T>::allocator;
    template <typename U>
    struct rebind {
      using other = DefaultInitAllocator<U>;
    };
    template <typename U>
    void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };
  template <typename T>
  using Column = std::vector<T, DefaultInitAllocator<T>>;

  // The identity columns are split_circle's output; the slot column is
  // only ever grown by push_back, or zero-filled to a joined subset's size.
  Column<const Tag*> tag_;
  Column<std::uint64_t> id_hi_;
  Column<std::uint64_t> id_lo_;
  std::vector<std::uint32_t> slot_;
};

}  // namespace rfid::tags
