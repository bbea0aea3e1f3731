// Output checks every timed drain must pass.
//
//   * exactly-once accounting: delivered + missing + undelivered equals the
//     population (and a fleet report's own `verified` flag is set);
//   * the per-phase airtime split sums to time_us within 1e-9 relative;
//   * a digest of the simulated report — every count, every bit of every
//     simulated double, the missing/undelivered ID lists — equals the one
//     committed in digests.txt for the default seed, and repeats exactly in
//     every sample of a run for any other seed.
//
// Host time never enters a digest, so a faster program must reproduce it
// bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/deployment.hpp"
#include "sim/session_types.hpp"

namespace perfbench {

/// The seed whose drain digests are committed in digests.txt.
inline constexpr std::uint64_t kDefaultSeed = 1;

[[nodiscard]] std::uint64_t digest(const rfid::sim::RunResult& result);
[[nodiscard]] std::uint64_t digest(const rfid::core::DeploymentReport& report);

/// Appends a problem when delivered + missing + undelivered != population.
void check_identity(std::size_t population, std::size_t delivered,
                    std::size_t missing, std::size_t undelivered,
                    std::vector<std::string>& problems);

/// Appends a problem when metrics.phases does not sum to metrics.time_us.
void check_phases(const rfid::obs::Metrics& metrics, const std::string& what,
                  std::vector<std::string>& problems);

[[nodiscard]] std::string hex(std::uint64_t value);

/// The committed digests: lines of `<workload> <scale> <drain> <hex>`;
/// blank lines and lines starting with '#' are ignored.
class DigestBook final {
 public:
  /// Throws std::runtime_error when the file cannot be read or a line is
  /// malformed.
  static DigestBook load(const std::string& path);

  [[nodiscard]] std::optional<std::uint64_t> expected(
      const std::string& workload, const std::string& scale,
      const std::string& drain) const;

 private:
  std::map<std::string, std::uint64_t> entries_;
};

}  // namespace perfbench
