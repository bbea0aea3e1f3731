#include "checks.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/checkpoint.hpp"

namespace perfbench {

namespace {

using rfid::sim::fingerprint_mix;

std::uint64_t mix(std::uint64_t h, double value) {
  return fingerprint_mix(h, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t mix(std::uint64_t h, const rfid::obs::Metrics& m) {
  for (const std::uint64_t v :
       {m.polls, m.missing, m.corrupted, m.retries, m.undelivered, m.rounds,
        m.circles, m.slots_total, m.slots_useful, m.slots_wasted,
        m.vector_bits, m.command_bits, m.tag_bits, m.segments_sent,
        m.segments_corrupted, m.segments_retransmitted, m.downlink_corrupted,
        m.degradations, m.reader_crashes, m.reader_stalls, m.reader_restarts,
        m.handoffs, m.framing_overhead_bits})
    h = fingerprint_mix(h, v);
  h = mix(h, m.time_us);
  for (const double phase_us : m.phases.us) h = mix(h, phase_us);
  return h;
}

std::uint64_t mix(std::uint64_t h, const std::vector<rfid::TagId>& ids) {
  h = fingerprint_mix(h, ids.size());
  for (const rfid::TagId& id : ids)
    for (const std::uint32_t word : id.words) h = fingerprint_mix(h, word);
  return h;
}

}  // namespace

std::uint64_t digest(const rfid::sim::RunResult& result) {
  std::uint64_t h = fingerprint_mix(0, result.population);
  for (const char c : result.protocol)
    h = fingerprint_mix(h, static_cast<unsigned char>(c));
  h = mix(h, result.metrics);
  h = fingerprint_mix(h, result.channel.empty_slots);
  h = fingerprint_mix(h, result.channel.singleton_slots);
  h = fingerprint_mix(h, result.channel.collision_slots);
  h = mix(h, result.missing_ids);
  return mix(h, result.undelivered_ids);
}

std::uint64_t digest(const rfid::core::DeploymentReport& report) {
  std::uint64_t h = fingerprint_mix(0, report.delivered);
  for (const std::uint64_t v :
       {report.ticks, report.handoffs, report.churn_moves,
        report.churn_departures, std::uint64_t{report.verified}})
    h = fingerprint_mix(h, v);
  h = mix(h, report.makespan_s);
  h = mix(h, report.total_busy_s);
  h = mix(h, report.totals);
  for (std::size_t r = 0; r < report.per_reader_metrics.size(); ++r) {
    h = mix(h, report.per_reader_metrics[r]);
    h = fingerprint_mix(h, report.per_reader_delivered[r]);
    h = fingerprint_mix(h, report.per_reader_incarnations[r]);
    const auto health = static_cast<std::uint64_t>(report.per_reader_health[r]);
    h = fingerprint_mix(h, health);
  }
  for (const rfid::core::ChannelReport& channel : report.per_channel) {
    h = fingerprint_mix(h, channel.readers);
    h = fingerprint_mix(h, channel.rounds);
    h = mix(h, channel.busy_us);
  }
  h = fingerprint_mix(h, report.transitions.size());
  for (const rfid::fault::HealthTransition& t : report.transitions) {
    h = fingerprint_mix(h, t.reader);
    h = fingerprint_mix(h, t.tick);
    h = fingerprint_mix(h, (static_cast<std::uint64_t>(t.from) << 8) |
                               static_cast<std::uint64_t>(t.to));
  }
  h = mix(h, report.missing_ids);
  return mix(h, report.undelivered_ids);
}

void check_identity(std::size_t population, std::size_t delivered,
                    std::size_t missing, std::size_t undelivered,
                    std::vector<std::string>& problems) {
  if (delivered + missing + undelivered == population) return;
  problems.push_back("exactly-once accounting broken: delivered " +
                     std::to_string(delivered) + " + missing " +
                     std::to_string(missing) + " + undelivered " +
                     std::to_string(undelivered) + " != population " +
                     std::to_string(population));
}

void check_phases(const rfid::obs::Metrics& metrics, const std::string& what,
                  std::vector<std::string>& problems) {
  const double total = metrics.phases.total_us();
  const double scale = std::max(std::abs(metrics.time_us), 1.0);
  if (std::abs(total - metrics.time_us) <= 1e-9 * scale) return;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s: phase sum %.17g us != time_us %.17g us", what.c_str(),
                total, metrics.time_us);
  problems.emplace_back(buf);
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

DigestBook DigestBook::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digest file " + path);
  DigestBook book;
  std::string line;
  for (std::size_t number = 1; std::getline(in, line); ++number) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, scale, drain, value, extra;
    if (!(fields >> workload >> scale >> drain >> value) ||
        (fields >> extra) || value.size() != 16 ||
        value.find_first_not_of("0123456789abcdef") != std::string::npos)
      throw std::runtime_error(path + ":" + std::to_string(number) +
                               ": expected '<workload> <scale> <drain> "
                               "<16 hex digits>'");
    book.entries_[workload + ' ' + scale + ' ' + drain] =
        std::stoull(value, nullptr, 16);
  }
  return book;
}

std::optional<std::uint64_t> DigestBook::expected(
    const std::string& workload, const std::string& scale,
    const std::string& drain) const {
  const auto it = entries_.find(workload + ' ' + scale + ' ' + drain);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

}  // namespace perfbench
