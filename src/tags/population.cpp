#include "tags/population.hpp"

#include <unordered_set>

#include "common/error.hpp"

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

}  // namespace

TagPopulation::TagPopulation(std::vector<Tag> tags) : tags_(std::move(tags)) {
  std::unordered_set<TagId, TagIdHash> seen;
  seen.reserve(tags_.size());
  for (const Tag& tag : tags_) {
    const bool inserted = seen.insert(tag.id()).second;
    RFID_EXPECTS(inserted && "duplicate tag ID in population");
  }
}

TagPopulation TagPopulation::uniform_random(std::size_t n, Xoshiro256ss& id_rng) {
  std::unordered_set<TagId, TagIdHash> seen;
  seen.reserve(n);
  std::vector<Tag> tags;
  tags.reserve(n);
  while (tags.size() < n) {
    const TagId id = random_id(id_rng);
    if (seen.insert(id).second) tags.emplace_back(id);
  }
  return TagPopulation(std::move(tags), UniqueIds{});
}

TagPopulation TagPopulation::uniform_random_sharded(std::size_t n,
                                                    std::uint64_t seed,
                                                    std::size_t shards) {
  RFID_EXPECTS(shards >= 1);
  std::vector<Tag> tags;
  tags.reserve(n);
  for (std::size_t shard = 0; shard < shards; ++shard)
    uniform_random_shard_into(tags, n, seed, shard, shards);
  // Cross-shard collisions are possible in principle (each shard only
  // dedups locally) and vanishingly rare with 96-bit IDs; the population
  // constructor still catches them loudly.
  return TagPopulation(std::move(tags));
}

void TagPopulation::uniform_random_shard_into(std::vector<Tag>& out,
                                              std::size_t n, std::uint64_t seed,
                                              std::size_t shard,
                                              std::size_t shards) {
  RFID_EXPECTS(shards >= 1 && shard < shards);
  const std::size_t first = shard * n / shards;
  const std::size_t last = (shard + 1) * n / shards;
  Xoshiro256ss shard_id_rng(derive_seed(seed, shard));
  std::unordered_set<TagId, TagIdHash> seen;
  seen.reserve(last - first);
  out.reserve(out.size() + (last - first));
  std::size_t made = 0;
  while (made < last - first) {
    const TagId id = random_id(shard_id_rng);
    if (seen.insert(id).second) {
      out.emplace_back(id);
      ++made;
    }
  }
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

  std::unordered_set<TagId, TagIdHash> seen;
  seen.reserve(n);
  std::vector<Tag> tags;
  tags.reserve(n);
  while (tags.size() < n) {
    const std::size_t category = tags.size() % categories;
    TagId id = random_id(id_rng);
    for (std::size_t b = 0; b < prefix_bits; ++b)
      id.set_bit(b, prefixes[category].bit(b));
    if (seen.insert(id).second) tags.emplace_back(id);
  }
  return TagPopulation(std::move(tags), UniqueIds{});
}

TagPopulation TagPopulation::with_random_payloads(std::size_t bits,
                                                  Xoshiro256ss& id_rng) const {
  std::vector<Tag> tags;
  tags.reserve(tags_.size());
  for (const Tag& tag : tags_) {
    BitVec payload;
    for (std::size_t i = 0; i < bits; ++i)
      payload.push_back(id_rng.bernoulli(0.5));
    tags.emplace_back(tag.id(), std::move(payload));
  }
  // Same IDs as this already-validated population.
  return TagPopulation(std::move(tags), UniqueIds{});
}

}  // namespace rfid::tags
