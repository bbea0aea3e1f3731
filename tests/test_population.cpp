// Unit tests for tag and population generation.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "tags/population.hpp"

namespace rfid::tags {
namespace {

// A tag is its ID: the reader's tag table is a flat, trivially copyable
// array, and stored payloads live in the population's side table.
static_assert(sizeof(Tag) == sizeof(TagId));
static_assert(std::is_trivially_copyable_v<Tag>);

TEST(Population, ReplyPayloadUsesStoredPrefix) {
  const TagPopulation pop({Tag(TagId::from_hex("000000000000000000000001"))},
                          {BitVec("10110")});
  EXPECT_EQ(pop.reply_payload(0, 3).to_string(), "101");
  EXPECT_EQ(pop.reply_payload(0, 5).to_string(), "10110");
  EXPECT_EQ(pop.reply_payload(pop[0], 3).to_string(), "101");
}

TEST(Population, ReplyPayloadDerivedWhenStoredTooShort) {
  const TagId id = TagId::from_hex("000000000000000000000002");
  const TagPopulation pop({Tag(id)}, {BitVec("1")});
  EXPECT_EQ(pop.reply_payload(0, 16), derived_payload(id, 16));
}

TEST(Population, ReplyPayloadDerivedWithoutPayloadTable) {
  const TagPopulation pop = TagPopulation::sequential(4, 7);
  for (std::size_t i = 0; i < pop.size(); ++i) {
    EXPECT_EQ(pop.reply_payload(i, 24), derived_payload(pop[i].id(), 24));
    EXPECT_EQ(pop.reply_payload(pop[i], 24), pop.reply_payload(i, 24));
  }
  // The same IDs in another population reply the same bits.
  const TagPopulation copy(std::vector<Tag>(pop.begin(), pop.end()));
  EXPECT_EQ(copy.reply_payload(3, 24), pop.reply_payload(3, 24));
}

TEST(Population, ReplyPayloadRejectsForeignTag) {
  const TagPopulation pop = TagPopulation::sequential(2);
  const TagPopulation other = TagPopulation::sequential(2);
  EXPECT_THROW((void)pop.reply_payload(other[0], 8), ContractViolation);
  EXPECT_THROW((void)pop.reply_payload(2, 8), ContractViolation);
}

TEST(Population, PayloadTableMustMatchTags) {
  EXPECT_THROW(TagPopulation({Tag(TagId{})}, {BitVec("1"), BitVec("0")}),
               ContractViolation);
}

TEST(Population, GeneratorsHaveNoPayloadTable) {
  Xoshiro256ss rng(8);
  EXPECT_TRUE(TagPopulation::uniform_random(64, rng).payloads().empty());
  EXPECT_TRUE(
      TagPopulation::uniform_random_sharded(64, 8, 4).payloads().empty());
  EXPECT_TRUE(TagPopulation::sequential(64).payloads().empty());
  EXPECT_TRUE(
      TagPopulation::prefix_clustered(64, 4, 16, rng).payloads().empty());
  EXPECT_TRUE(TagPopulation(std::vector<Tag>{Tag(TagId{})}).payloads().empty());
  const auto with =
      TagPopulation::sequential(64).with_random_payloads(8, rng);
  EXPECT_EQ(with.payloads().size(), 64u);
}

TEST(Tag, DerivedPayloadDeterministicAndIdDependent) {
  const TagId a = TagId::from_hex("000000000000000000000003");
  const TagId b = TagId::from_hex("000000000000000000000004");
  EXPECT_EQ(derived_payload(a, 32), derived_payload(a, 32));
  EXPECT_FALSE(derived_payload(a, 32) == derived_payload(b, 32));
}

TEST(Tag, DerivedPayloadPrefixConsistent) {
  // Asking for fewer bits must yield a prefix of the longer derivation.
  const TagId id = TagId::from_hex("00000000000000000000000a");
  const BitVec long_payload = derived_payload(id, 100);
  const BitVec short_payload = derived_payload(id, 40);
  for (std::size_t i = 0; i < 40; ++i)
    EXPECT_EQ(short_payload.bit(i), long_payload.bit(i));
}

TEST(Population, UniformRandomHasRequestedSizeAndUniqueIds) {
  Xoshiro256ss rng(1);
  const auto pop = TagPopulation::uniform_random(5000, rng);
  EXPECT_EQ(pop.size(), 5000u);
  std::unordered_set<TagId, TagIdHash> ids;
  for (const Tag& tag : pop) ids.insert(tag.id());
  EXPECT_EQ(ids.size(), 5000u);
}

TEST(Population, UniformRandomIsSeedDeterministic) {
  Xoshiro256ss rng1(42), rng2(42);
  const auto a = TagPopulation::uniform_random(100, rng1);
  const auto b = TagPopulation::uniform_random(100, rng2);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(a[i].id(), b[i].id());
}

TEST(Population, EmptyPopulationAllowed) {
  Xoshiro256ss rng(1);
  EXPECT_EQ(TagPopulation::uniform_random(0, rng).size(), 0u);
  EXPECT_TRUE(TagPopulation::sequential(0).empty());
}

TEST(Population, SequentialIdsIncrement) {
  const auto pop = TagPopulation::sequential(10, 5);
  EXPECT_EQ(pop[0].id().to_hex(), "000000000000000000000005");
  EXPECT_EQ(pop[9].id().to_hex(), "00000000000000000000000e");
}

TEST(Population, SequentialCrossesWordBoundary) {
  const auto pop = TagPopulation::sequential(2, 0xFFFFFFFFULL);
  EXPECT_EQ(pop[0].id().to_hex(), "0000000000000000ffffffff");
  EXPECT_EQ(pop[1].id().to_hex(), "000000000000000100000000");
}

TEST(Population, DuplicateIdsRejected) {
  std::vector<Tag> tags;
  tags.emplace_back(TagId::from_hex("000000000000000000000001"));
  tags.emplace_back(TagId::from_hex("000000000000000000000001"));
  EXPECT_THROW(TagPopulation{std::move(tags)}, ContractViolation);
}

TEST(Population, DuplicatesAtBothEndsRejected) {
  const TagPopulation seq = TagPopulation::sequential(1000, 77);
  std::vector<Tag> tags(seq.begin(), seq.end());
  tags.back() = tags.front();
  EXPECT_THROW(TagPopulation{std::move(tags)}, ContractViolation);
}

TEST(Population, IdsDifferingOnlyInTheLowWordAreDistinct) {
  TagId a;
  a.words = {0xDEADBEEFu, 0x01234567u, 5u};
  TagId b = a;
  b.words[2] = 6u;
  std::vector<Tag> distinct{Tag(a), Tag(b)};
  EXPECT_EQ(TagPopulation{std::move(distinct)}.size(), 2u);
  std::vector<Tag> repeated{Tag(a), Tag(b), Tag(a)};
  EXPECT_THROW(TagPopulation{std::move(repeated)}, ContractViolation);
}

TEST(Population, AllZeroIdAcceptedOnce) {
  const TagId zero;
  const TagId one = TagId::from_hex("000000000000000000000001");
  std::vector<Tag> once{Tag(one), Tag(zero)};
  EXPECT_EQ(TagPopulation{std::move(once)}.size(), 2u);
  std::vector<Tag> twice{Tag(zero), Tag(one), Tag(zero)};
  EXPECT_THROW(TagPopulation{std::move(twice)}, ContractViolation);
}

TEST(Population, LargeSequentialPopulationAccepted) {
  const TagPopulation pop = TagPopulation::sequential(200000);
  ASSERT_EQ(pop.size(), 200000u);
  EXPECT_EQ(pop[199999].id().to_hex(), "000000000000000000030d3f");
}

/// FNV-1a over every ID word, in population order.
std::uint64_t id_digest(const TagPopulation& pop) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Tag& tag : pop)
    for (const std::uint32_t word : tag.id().words) {
      h ^= word;
      h *= 0x100000001b3ULL;
    }
  return h;
}

// Digests recorded at commit 206ceae, where every generator deduplicated
// through std::unordered_set: however the duplicate check is implemented,
// the generators must draw exactly these IDs in this order. prefix_clustered
// leaves 12 random bits per category, so its redraw path fires often.
TEST(Population, GeneratorsDrawTheRecordedIds) {
  Xoshiro256ss uniform_rng(7);
  EXPECT_EQ(id_digest(TagPopulation::uniform_random(100000, uniform_rng)),
            0xdb08f781d9f12a69ULL);
  EXPECT_EQ(id_digest(TagPopulation::uniform_random_sharded(1000000, 11, 8)),
            0x261574461fe87fc5ULL);
  Xoshiro256ss prefix_rng(9);
  EXPECT_EQ(id_digest(TagPopulation::prefix_clustered(20000, 16, 84,
                                                      prefix_rng)),
            0xe544116a42fa31edULL);
}

TEST(Population, PrefixClusteredSharesCategoryPrefix) {
  Xoshiro256ss rng(3);
  constexpr std::size_t kPrefixBits = 32;
  const auto pop = TagPopulation::prefix_clustered(400, 4, kPrefixBits, rng);
  ASSERT_EQ(pop.size(), 400u);
  // Collect distinct prefixes; must be exactly the category count.
  std::unordered_set<std::uint32_t> prefixes;
  for (const Tag& tag : pop) prefixes.insert(tag.id().words[0]);
  EXPECT_EQ(prefixes.size(), 4u);
}

TEST(Population, PrefixClusteredIdsStillUnique) {
  Xoshiro256ss rng(4);
  const auto pop = TagPopulation::prefix_clustered(1000, 2, 48, rng);
  std::unordered_set<TagId, TagIdHash> ids;
  for (const Tag& tag : pop) ids.insert(tag.id());
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(Population, WithRandomPayloadsAttachesCorrectLength) {
  Xoshiro256ss rng(5);
  const auto base = TagPopulation::uniform_random(50, rng);
  const auto with = base.with_random_payloads(16, rng);
  ASSERT_EQ(with.size(), 50u);
  ASSERT_EQ(with.payloads().size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(with[i].id(), base[i].id());
    EXPECT_EQ(with.payloads()[i].size(), 16u);
    EXPECT_EQ(with.reply_payload(i, 16), with.payloads()[i]);
    // One bit past the stored payload falls back to the derived reply.
    EXPECT_EQ(with.reply_payload(i, 17), derived_payload(with[i].id(), 17));
  }
}

TEST(Population, WithRandomPayloadsDrawsTagByTag) {
  // Each tag's payload bits are drawn consecutively, tags in order.
  Xoshiro256ss rng(9), replay(9);
  const auto base = TagPopulation::sequential(3);
  const auto with = base.with_random_payloads(5, rng);
  for (std::size_t i = 0; i < base.size(); ++i)
    for (std::size_t b = 0; b < 5; ++b)
      EXPECT_EQ(with.payloads()[i].bit(b), replay.bernoulli(0.5));
}

TEST(Population, PayloadBitsAreBalanced) {
  Xoshiro256ss rng(6);
  const auto pop =
      TagPopulation::uniform_random(500, rng).with_random_payloads(32, rng);
  std::size_t ones = 0;
  for (const BitVec& payload : pop.payloads())
    for (std::size_t b = 0; b < 32; ++b) ones += payload.bit(b);
  EXPECT_NEAR(double(ones) / (500.0 * 32.0), 0.5, 0.03);
}

}  // namespace
}  // namespace rfid::tags
