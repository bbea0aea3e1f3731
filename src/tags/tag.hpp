// A simulated sensor-augmented RFID tag.
//
// Tags carry a 96-bit EPC identifier plus an m-bit information payload
// (battery level, temperature, product data — the paper's Section I use
// cases). A Tag is the identifier alone: the paper's protocols address a
// tag only through H(r, id), so the reader-side tag table is a flat array
// of IDs. Stored sensor payloads live in the population's side table
// (TagPopulation::reply_payload), and protocol-specific runtime state
// (picked index, TPP bit array, sleep flag) in per-protocol device
// structs, because a physical tag's identity outlives any one inventory
// session.
#pragma once

#include "common/bitvec.hpp"
#include "common/hash.hpp"
#include "common/tag_id.hpp"

namespace rfid::tags {

class Tag final {
 public:
  Tag() = default;
  explicit Tag(TagId id) : id_(id) {}

  [[nodiscard]] const TagId& id() const noexcept { return id_; }

 private:
  TagId id_{};
};

/// The `bits`-long reply of a tag with no stored sensor data, derived
/// deterministically from its ID so reader-side verification can recompute
/// the expected value without a side channel.
[[nodiscard]] BitVec derived_payload(const TagId& id, std::size_t bits);

}  // namespace rfid::tags
