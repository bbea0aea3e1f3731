#include "calibration.hpp"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

constexpr std::uint64_t kLcgMul = 6364136223846793005ULL;
constexpr std::uint64_t kLcgAdd = 1442695040888963407ULL;

// Sizes and repeat counts: each part takes about 1 ms on the reference host.
constexpr int kRegisterRounds = 187'000;
constexpr std::size_t kScanWords = std::size_t{1} << 15;  // 256 KiB
constexpr int kScanPasses = 45;
constexpr std::size_t kChaseSlots = std::size_t{8} << 20;  // 32 MiB
constexpr int kChaseLoads = 8'000;

struct Arrays final {
  std::vector<std::uint64_t> scan;
  std::vector<std::uint32_t> chase;  ///< one random cycle over all slots
  std::uint32_t chase_at = 0;

  Arrays() : scan(kScanWords), chase(kChaseSlots) {
    for (std::size_t i = 0; i < scan.size(); ++i)
      scan[i] = i * 0x9E3779B97F4A7C15ULL;
    // Sattolo's shuffle: a single cycle, so the chase never settles into a
    // short loop that would fit in cache.
    for (std::size_t i = 0; i < chase.size(); ++i)
      chase[i] = static_cast<std::uint32_t>(i);
    std::uint64_t state = 1;
    for (std::size_t i = chase.size() - 1; i > 0; --i) {
      state = state * kLcgMul + kLcgAdd;
      std::swap(chase[i], chase[(state >> 33) % i]);
    }
  }
};

volatile std::uint64_t g_sink = 0;

}  // namespace

double probe_s() {
  static Arrays arrays;
  const auto begin = std::chrono::steady_clock::now();

  // Registers: eight independent mixing chains.
  std::uint64_t lanes[8];
  for (std::uint64_t k = 0; k < 8; ++k) lanes[k] = g_sink + k;
  for (int i = 0; i < kRegisterRounds; ++i)
    for (std::uint64_t k = 0; k < 8; ++k) {
      lanes[k] ^= lanes[k] >> 29;
      lanes[k] *= 0xBF58476D1CE4E5B9ULL;
      lanes[k] += k;
    }
  std::uint64_t sink = 0;
  for (const std::uint64_t lane : lanes) sink += lane;

  // L2: hash every word of a 256 KiB array, several times over.
  for (int pass = 0; pass < kScanPasses; ++pass)
    for (const std::uint64_t word : arrays.scan) {
      std::uint64_t v = word ^ (word >> 31);
      v *= 0x94D049BB133111EBULL;
      sink += v >> (pass & 15);
    }

  // DRAM: dependent random loads; each run continues where the last ended.
  std::uint32_t at = arrays.chase_at;
  for (int i = 0; i < kChaseLoads; ++i) at = arrays.chase[at];
  arrays.chase_at = at;

  g_sink = sink + at;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

}  // namespace perfbench
