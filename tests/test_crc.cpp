// Unit tests for the CRC substrate, including the linearity property that
// rules CRCs out as coded-polling role validators (see coded_polling.hpp).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/crc.hpp"
#include "common/rng.hpp"

namespace rfid {
namespace {

std::uint16_t crc_of_string(const std::string& s) {
  return crc16_ccitt({reinterpret_cast<const std::uint8_t*>(s.data()),
                      s.size()});
}

TEST(Crc16, CheckValue123456789) {
  // CRC-16/CCITT-FALSE check value from the Rocksoft catalogue.
  EXPECT_EQ(crc_of_string("123456789"), 0x29B1);
}

TEST(Crc16, EmptyInputIsInitValue) {
  EXPECT_EQ(crc16_ccitt({}), 0xFFFF);
}

/// Bit-serial CRC-16/CCITT-FALSE, independent of the table-driven code.
std::uint16_t crc16_bitwise(std::span<const std::uint8_t> bytes) {
  std::uint16_t crc = 0xFFFF;
  for (const std::uint8_t b : bytes) {
    crc = static_cast<std::uint16_t>(crc ^ (b << 8));
    for (int bit = 0; bit < 8; ++bit) {
      crc = static_cast<std::uint16_t>((crc & 0x8000u) ? (crc << 1) ^ 0x1021u
                                                       : (crc << 1));
    }
  }
  return crc;
}

TEST(Crc16, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Slicing-by-8 eats 8-byte blocks and finishes the tail bytewise: every
  // length 0..64 at every start offset 0..7 covers each block/tail split
  // and every alignment of the first block.
  Xoshiro256ss rng(4);
  std::vector<std::uint8_t> buffer(8 + 64);
  for (std::uint8_t& b : buffer) b = static_cast<std::uint8_t>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::span<const std::uint8_t> bytes{buffer.data() + offset,
                                                length};
      EXPECT_EQ(crc16_ccitt(bytes), crc16_bitwise(bytes))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc16, MatchesBitwiseReferenceOnRandomBuffersUpTo17KiB) {
  // 17 KiB is the size of a 64-reader fleet checkpoint.
  Xoshiro256ss rng(5);
  std::vector<std::uint8_t> buffer(17 * 1024);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t length = rng() % (buffer.size() + 1);
    for (std::size_t i = 0; i < length; ++i)
      buffer[i] = static_cast<std::uint8_t>(rng());
    const std::span<const std::uint8_t> bytes{buffer.data(), length};
    EXPECT_EQ(crc16_ccitt(bytes), crc16_bitwise(bytes)) << "length " << length;
  }
}

TEST(Crc16, SingleByteDiffersFromInit) {
  const std::array<std::uint8_t, 1> byte{0x00};
  EXPECT_NE(crc16_ccitt(byte), 0xFFFF);
}

TEST(Crc16, SensitiveToByteOrder) {
  EXPECT_NE(crc_of_string("ab"), crc_of_string("ba"));
}

TEST(Crc16, ConcurrentFirstUseIsRaceFree) {
  // RFID_THREADS > 1 means worker threads can hit the CRC concurrently,
  // including as the process's very first CRC calls (each discovered test
  // runs in its own process, so no earlier test has touched the table
  // here). The table is constexpr — compile-time, read-only storage, no
  // lazy first-use initialization to race on; the static_assert in crc.cpp
  // pins that. This test releases all threads at once so a regression to
  // runtime init surfaces under TSan/ASan or as a wrong check value.
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load()) {
      }
      for (int i = 0; i < kIters; ++i) {
        if (crc_of_string("123456789") != 0x29B1) mismatches.fetch_add(1);
        // Walk every table entry: two passes over all 256 byte values.
        const std::array<std::uint8_t, 2> bytes{
            static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(255 - i)};
        if (crc16_ccitt(bytes) != crc16_ccitt(bytes)) mismatches.fetch_add(1);
      }
    });
  }
  while (ready.load() != kThreads) {
  }
  go.store(true);
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Crc16OfId, MatchesByteSerialization) {
  TagId id;
  id.words = {0x01020304, 0x05060708, 0x090a0b0c};
  const std::array<std::uint8_t, 12> bytes{1, 2, 3, 4,  5,  6,
                                           7, 8, 9, 10, 11, 12};
  EXPECT_EQ(crc16_of_id(id), crc16_ccitt(bytes));
}

TEST(Crc16OfId, IsLinearOverXor) {
  // crc(a ^ b) == crc(a) ^ crc(b) ^ crc(0): GF(2) linearity. This is the
  // property that makes a CRC useless for disambiguating XOR-coded polling
  // frames — the second CRC check is implied by the first.
  Xoshiro256ss rng(1);
  TagId zero{};
  const std::uint16_t c0 = crc16_of_id(zero);
  for (int trial = 0; trial < 200; ++trial) {
    TagId a, b;
    for (auto& w : a.words) w = static_cast<std::uint32_t>(rng());
    for (auto& w : b.words) w = static_cast<std::uint32_t>(rng());
    EXPECT_EQ(crc16_of_id(a ^ b),
              crc16_of_id(a) ^ crc16_of_id(b) ^ c0);
  }
}

TEST(Crc5, MatchesBitwiseReference) {
  // Independent bit-serial reference implementation.
  const auto reference = [](std::uint32_t value, unsigned nbits) {
    std::uint8_t crc = 0b01001;
    for (unsigned i = 0; i < nbits; ++i) {
      const bool bit = (value >> (nbits - 1 - i)) & 1u;
      const bool msb = (crc >> 4) & 1u;
      crc = static_cast<std::uint8_t>((crc << 1) & 0x1F);
      if (bit != msb) crc ^= 0x09;
    }
    return crc;
  };
  Xoshiro256ss rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    const auto value = static_cast<std::uint32_t>(rng() & 0x3FFFFF);
    EXPECT_EQ(crc5_c1g2(value, 22), reference(value, 22));
  }
}

TEST(Crc5, StaysWithinFiveBits) {
  Xoshiro256ss rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    EXPECT_LT(crc5_c1g2(static_cast<std::uint32_t>(rng()), 17), 32u);
  }
}

TEST(Crc5, DetectsSingleBitErrors) {
  const std::uint32_t value = 0x155555;
  const std::uint8_t good = crc5_c1g2(value, 22);
  for (unsigned bit = 0; bit < 22; ++bit) {
    EXPECT_NE(crc5_c1g2(value ^ (1u << bit), 22), good) << "bit " << bit;
  }
}

}  // namespace
}  // namespace rfid
