// Tag population generation — the simulator's workload generator.
//
// The paper assumes the reader knows all tag IDs in advance (Section II-A);
// a TagPopulation is exactly that shared knowledge: an immutable set of
// unique tags the reader and the air interface both reference. The tags
// are a flat array of bare IDs; stored sensor payloads, when a population
// has them, sit in a side table indexed like the tags.
//
// Three ID distributions cover the paper's scenarios:
//   * uniform_random  — the paper's general case ("no assumption on the
//                       distribution of tag IDs", Section II-B)
//   * sequential      — worst case for hash-free schemes, common in freshly
//                       commissioned inventory
//   * prefix_clustered — tags sharing category IDs, the case motivating the
//                       enhanced-CPP baseline (Section II-B)
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "tags/tag.hpp"

namespace rfid::tags {

/// Immutable collection of unique tags.
class TagPopulation final {
 public:
  TagPopulation() = default;

  /// Takes ownership of `tags` and of their stored sensor payloads —
  /// none, or one per tag in the same order; throws ContractViolation on
  /// duplicate IDs.
  explicit TagPopulation(std::vector<Tag> tags,
                         std::vector<BitVec> payloads = {});

  [[nodiscard]] std::size_t size() const noexcept { return tags_.size(); }
  [[nodiscard]] bool empty() const noexcept { return tags_.empty(); }

  [[nodiscard]] const Tag& operator[](std::size_t i) const { return tags_[i]; }

  [[nodiscard]] std::span<const Tag> tags() const noexcept { return tags_; }

  [[nodiscard]] auto begin() const noexcept { return tags_.begin(); }
  [[nodiscard]] auto end() const noexcept { return tags_.end(); }

  /// The stored sensor payloads, indexed like the tags; empty unless the
  /// population was built with payloads.
  [[nodiscard]] std::span<const BitVec> payloads() const noexcept {
    return payloads_;
  }

  /// The `bits`-long reply tag `index` transmits when polled. If its stored
  /// payload is at least `bits` long its prefix is used; otherwise the
  /// reply is derived_payload(id, bits).
  [[nodiscard]] BitVec reply_payload(std::size_t index,
                                     std::size_t bits) const;

  /// reply_payload for `tag`, which must be an element of this population.
  [[nodiscard]] BitVec reply_payload(const Tag& tag, std::size_t bits) const;

  /// n tags with uniformly random unique 96-bit IDs.
  [[nodiscard]] static TagPopulation uniform_random(std::size_t n,
                                                    Xoshiro256ss& id_rng);

  /// n tags generated as `shards` independent slices: shard s draws IDs for
  /// indices [s·n/shards, (s+1)·n/shards) from its own stream seeded
  /// derive_seed(seed, s), redrawing repeats within the shard — pure in
  /// (seed, shard), so a slice can be reproduced without replaying the
  /// draws of the shards before it. An ID drawn by two different shards
  /// throws ContractViolation, as the constructor does for any duplicate.
  [[nodiscard]] static TagPopulation uniform_random_sharded(std::size_t n,
                                                            std::uint64_t seed,
                                                            std::size_t shards);

  /// n tags with consecutive IDs starting at `first` (low word increments).
  [[nodiscard]] static TagPopulation sequential(std::size_t n,
                                                std::uint64_t first = 0);

  /// n tags split across `categories` groups; tags in a group share a random
  /// `prefix_bits`-bit ID prefix (category ID), remaining bits random.
  [[nodiscard]] static TagPopulation prefix_clustered(std::size_t n,
                                                      std::size_t categories,
                                                      std::size_t prefix_bits,
                                                      Xoshiro256ss& id_rng);

  /// Returns a copy whose tags store `bits`-long random sensor payloads.
  [[nodiscard]] TagPopulation with_random_payloads(std::size_t bits,
                                                   Xoshiro256ss& id_rng) const;

 private:
  /// Marks a tag vector whose IDs the caller has already proven unique.
  struct UniqueIds final {};

  /// Takes ownership of `tags` without re-checking uniqueness: for the
  /// generators that dedup while drawing, and for copies of a validated
  /// population.
  TagPopulation(std::vector<Tag> tags, UniqueIds,
                std::vector<BitVec> payloads = {}) noexcept
      : tags_(std::move(tags)), payloads_(std::move(payloads)) {}

  std::vector<Tag> tags_;
  std::vector<BitVec> payloads_;  ///< empty, or one per tag
};

}  // namespace rfid::tags
