#include "tags/population.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace rfid::tags {

namespace {

TagId random_id(Xoshiro256ss& id_rng) {
  TagId id;
  const std::uint64_t hi = id_rng();
  const std::uint64_t lo = id_rng();
  id.words[0] = static_cast<std::uint32_t>(hi >> 32);
  id.words[1] = static_cast<std::uint32_t>(hi);
  id.words[2] = static_cast<std::uint32_t>(lo);
  return id;
}

/// Duplicate check for a tag vector as it is built: an open-addressing
/// index of its IDs with linear probing. Each slot is one word — index+1
/// into the vector (0 = empty) under a 32-bit fingerprint of the ID's
/// hash — so a probe reads one 8-byte slot and goes back to the vector for
/// the full ID only on a fingerprint match. The home slot is the other
/// hash half scaled into the table (a 32×32-bit product, so no wide
/// multiply); the load factor stays at or below 0.8.
class IdIndex final {
 public:
  static constexpr std::size_t kAbsent =
      std::numeric_limits<std::size_t>::max();

  /// Sized for up to `n` IDs of `tags`, which must outlive the index.
  IdIndex(const std::vector<Tag>& tags, std::size_t n) : tags_(tags) {
    RFID_EXPECTS(n < (std::uint64_t{1} << 32));
    slots_.assign(std::min<std::uint64_t>(n + n / 4 + 16,
                                          std::uint64_t{1} << 32),
                  0);
  }

  /// Returns the index of the tag whose ID equals `id`; when there is none,
  /// records `id` as the ID of tags[index] (which may not exist yet) and
  /// returns kAbsent.
  std::size_t insert(const TagId& id, std::size_t index) {
    const std::uint64_t h = mix64(id.fold64());
    const std::uint64_t fingerprint = h << 32;
    const std::size_t capacity = slots_.size();
    for (auto slot = static_cast<std::size_t>(((h >> 32) * capacity) >> 32);;
         slot = slot + 1 == capacity ? 0 : slot + 1) {
      const std::uint64_t entry = slots_[slot];
      if (entry == 0) {
        slots_[slot] = fingerprint | (index + 1);
        return kAbsent;
      }
      if ((entry & ~0xFFFFFFFFULL) == fingerprint) {
        const auto other = static_cast<std::size_t>(entry & 0xFFFFFFFFu) - 1;
        if (tags_[other].id() == id) return other;
      }
    }
  }

 private:
  const std::vector<Tag>& tags_;
  std::vector<std::uint64_t> slots_;
};

}  // namespace

TagPopulation::TagPopulation(std::vector<Tag> tags,
                             std::vector<BitVec> payloads)
    : tags_(std::move(tags)), payloads_(std::move(payloads)) {
  RFID_EXPECTS(payloads_.empty() || payloads_.size() == tags_.size());
  IdIndex index(tags_, tags_.size());
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    const bool inserted = index.insert(tags_[i].id(), i) == IdIndex::kAbsent;
    RFID_EXPECTS(inserted && "duplicate tag ID in population");
  }
}

TagPopulation TagPopulation::uniform_random(std::size_t n, Xoshiro256ss& id_rng) {
  std::vector<Tag> tags;
  tags.reserve(n);
  IdIndex index(tags, n);
  while (tags.size() < n) {
    const TagId id = random_id(id_rng);
    if (index.insert(id, tags.size()) == IdIndex::kAbsent)
      tags.emplace_back(id);
  }
  return TagPopulation(std::move(tags), UniqueIds{});
}

TagPopulation TagPopulation::uniform_random_sharded(std::size_t n,
                                                    std::uint64_t seed,
                                                    std::size_t shards) {
  RFID_EXPECTS(shards >= 1);
  std::vector<Tag> tags;
  tags.reserve(n);
  IdIndex index(tags, n);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const std::size_t first = shard * n / shards;
    const std::size_t last = (shard + 1) * n / shards;
    Xoshiro256ss shard_id_rng(derive_seed(seed, shard));
    while (tags.size() < last) {
      const TagId id = random_id(shard_id_rng);
      const std::size_t seen = index.insert(id, tags.size());
      if (seen == IdIndex::kAbsent) {
        tags.emplace_back(id);
        continue;
      }
      // A repeat within this shard is redrawn, so each shard stays pure in
      // (seed, shard); one from an earlier shard is a cross-shard collision
      // (vanishingly rare with 96-bit IDs), rejected as the population
      // constructor rejects any duplicate.
      RFID_EXPECTS(seen >= first && "duplicate tag ID in population");
    }
  }
  return TagPopulation(std::move(tags), UniqueIds{});
}

TagPopulation TagPopulation::sequential(std::size_t n, std::uint64_t first) {
  std::vector<Tag> tags;
  tags.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t value = first + i;
    TagId id;
    id.words[1] = static_cast<std::uint32_t>(value >> 32);
    id.words[2] = static_cast<std::uint32_t>(value);
    tags.emplace_back(id);
  }
  return TagPopulation(std::move(tags));
}

TagPopulation TagPopulation::prefix_clustered(std::size_t n,
                                              std::size_t categories,
                                              std::size_t prefix_bits,
                                              Xoshiro256ss& id_rng) {
  RFID_EXPECTS(categories >= 1);
  RFID_EXPECTS(prefix_bits <= kTagIdBits);
  // One random prefix per category; suffixes random, deduplicated.
  std::vector<TagId> prefixes;
  prefixes.reserve(categories);
  for (std::size_t c = 0; c < categories; ++c)
    prefixes.push_back(random_id(id_rng));

  std::vector<Tag> tags;
  tags.reserve(n);
  IdIndex index(tags, n);
  while (tags.size() < n) {
    const std::size_t category = tags.size() % categories;
    TagId id = random_id(id_rng);
    for (std::size_t b = 0; b < prefix_bits; ++b)
      id.set_bit(b, prefixes[category].bit(b));
    if (index.insert(id, tags.size()) == IdIndex::kAbsent)
      tags.emplace_back(id);
  }
  return TagPopulation(std::move(tags), UniqueIds{});
}

TagPopulation TagPopulation::with_random_payloads(std::size_t bits,
                                                  Xoshiro256ss& id_rng) const {
  std::vector<BitVec> payloads(tags_.size());
  for (BitVec& payload : payloads)
    for (std::size_t i = 0; i < bits; ++i)
      payload.push_back(id_rng.bernoulli(0.5));
  // Same IDs as this already-validated population.
  return TagPopulation(tags_, UniqueIds{}, std::move(payloads));
}

BitVec TagPopulation::reply_payload(std::size_t index, std::size_t bits) const {
  RFID_EXPECTS(index < tags_.size());
  if (!payloads_.empty() && payloads_[index].size() >= bits) {
    const BitVec& stored = payloads_[index];
    BitVec out;
    for (std::size_t i = 0; i < bits; ++i) out.push_back(stored.bit(i));
    return out;
  }
  return derived_payload(tags_[index].id(), bits);
}

BitVec TagPopulation::reply_payload(const Tag& tag, std::size_t bits) const {
  const Tag* first = tags_.data();
  RFID_EXPECTS(std::less_equal<>{}(first, &tag) &&
               std::less<>{}(&tag, first + tags_.size()));
  return reply_payload(static_cast<std::size_t>(&tag - first), bits);
}

}  // namespace rfid::tags
