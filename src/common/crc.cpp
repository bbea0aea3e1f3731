#include "common/crc.hpp"

#include <array>

namespace rfid {

namespace {

using Crc16Table = std::array<std::uint16_t, 256>;

/// Slicing-by-8 tables: kCrc16Tables[0] is the classic byte table, and
/// kCrc16Tables[k][b] is the register after byte b followed by k zero
/// bytes, so one lookup per byte covers a whole 8-byte block.
constexpr std::array<Crc16Table, 8> make_crc16_tables() {
  std::array<Crc16Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint16_t crc = static_cast<std::uint16_t>(i << 8);
    for (int bit = 0; bit < 8; ++bit) {
      crc = static_cast<std::uint16_t>((crc & 0x8000u) ? (crc << 1) ^ 0x1021u
                                                       : (crc << 1));
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint16_t prev = tables[k - 1][i];
      tables[k][i] =
          static_cast<std::uint16_t>((prev << 8) ^ tables[0][prev >> 8]);
    }
  }
  return tables;
}
// Thread-safety audit (RFID_THREADS > 1): kCrc16Tables is constexpr, so it
// is materialized at compile time into read-only storage — there is no
// runtime first-use initialization for concurrent first callers to race on.
// (A lazily-initialized `static` local or a runtime-filled table would need
// a guard here; this one must stay constexpr.) The static_assert pins the
// compile-time evaluation so a refactor that silently demotes it to runtime
// init fails to build.
constexpr auto kCrc16Tables = make_crc16_tables();
static_assert(kCrc16Tables[0][1] == 0x1021 && kCrc16Tables[0][255] == 0x1EF0 &&
                  kCrc16Tables[1][1] == 0x3331 &&
                  kCrc16Tables[7][255] == 0x944F,
              "CRC-16 tables must be compile-time constants");
}  // namespace

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> bytes) noexcept {
  const auto& t = kCrc16Tables;
  std::uint16_t crc = 0xFFFF;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  // MSB-first CRC: the 16-bit register lines up with the block's first two
  // bytes; each byte j of the block then contributes t[7 - j][byte].
  for (; n >= 8; n -= 8, p += 8) {
    crc = static_cast<std::uint16_t>(
        t[7][p[0] ^ (crc >> 8)] ^ t[6][p[1] ^ (crc & 0xFF)] ^ t[5][p[2]] ^
        t[4][p[3]] ^ t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]]);
  }
  for (; n > 0; --n, ++p) {
    crc = static_cast<std::uint16_t>((crc << 8) ^
                                     t[0][((crc >> 8) ^ *p) & 0xFF]);
  }
  return crc;
}

std::uint16_t crc16_of_id(const TagId& id) noexcept {
  std::array<std::uint8_t, 12> bytes{};
  for (std::size_t w = 0; w < 3; ++w) {
    for (std::size_t b = 0; b < 4; ++b) {
      bytes[w * 4 + b] =
          static_cast<std::uint8_t>(id.words[w] >> (8 * (3 - b)));
    }
  }
  return crc16_ccitt(bytes);
}

std::uint8_t crc5_c1g2(std::uint32_t value, unsigned nbits) noexcept {
  std::uint8_t crc = 0b01001;
  for (unsigned i = 0; i < nbits; ++i) {
    const bool bit = (value >> (nbits - 1 - i)) & 1u;
    const bool msb = (crc >> 4) & 1u;
    crc = static_cast<std::uint8_t>((crc << 1) & 0x1F);
    if (bit != msb) crc ^= 0x09;
  }
  return crc;
}

}  // namespace rfid
