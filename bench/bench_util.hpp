// Shared plumbing for the reproduction bench binaries.
//
// Every bench regenerates one table or figure of the paper. Conventions:
//   * RFID_RUNS   — Monte-Carlo repetitions per data point (paper used 100;
//                   defaults here are small enough for a laptop run).
//   * RFID_MAX_N  — cap on the largest population, for quick CI passes.
//   * RFID_CSV_DIR — when set, each bench additionally writes its series to
//                   <dir>/<bench>.csv for external plotting, plus a
//                   <dir>/<bench>.manifest.json run manifest (provenance:
//                   seeds, workloads, build info) so a CSV can always be
//                   traced back to the exact run that produced it.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/env.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "parallel/trial_runner.hpp"
#include "protocols/protocol.hpp"

namespace rfid::bench {

inline std::size_t runs(std::size_t fallback) {
  return env_u64("RFID_RUNS", fallback);
}

inline std::size_t max_n(std::size_t fallback) {
  return env_u64("RFID_MAX_N", fallback);
}

/// Run provenance. Each bench process accumulates one manifest — the bench
/// name, build info, the RFID_* environment knobs, and one entry per
/// measured (protocol, population, seed) workload — and writes it to
/// <RFID_CSV_DIR>/<bench>.manifest.json when the process exits, next to the
/// CSV it describes. The CSV schema itself is untouched; provenance rides
/// in the sidecar. Collection is automatic: CsvSink registers the bench
/// name and measure() records every workload it runs.
class RunManifest final {
 public:
  static RunManifest& instance() {
    static RunManifest manifest;
    return manifest;
  }

  void set_bench(const std::string& name) { bench_ = name; }

  void record(std::string_view protocol, std::size_t population,
              std::size_t info_bits, std::size_t trials,
              std::uint64_t master_seed) {
    entries_.push_back(Entry{std::string(protocol), population, info_bits,
                             trials, master_seed});
  }

  ~RunManifest() { write(); }

  RunManifest(const RunManifest&) = delete;
  RunManifest& operator=(const RunManifest&) = delete;

 private:
  RunManifest() = default;

  static std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  void write() const {
    const char* dir = std::getenv("RFID_CSV_DIR");
    if (dir == nullptr || *dir == '\0' || bench_.empty()) return;
    std::ofstream os(std::string(dir) + "/" + bench_ + ".manifest.json");
    if (!os.is_open()) return;  // provenance must never fail the bench
    os << "{\n  \"bench\": \"" << json_escape(bench_) << "\",\n";
    os << "  \"build\": {\"compiler\": \"" << json_escape(__VERSION__)
       << "\", \"cxx_standard\": " << __cplusplus << "},\n";
    os << "  \"env\": {";
    bool first = true;
    for (const char* name :
         {"RFID_RUNS", "RFID_MAX_N", "RFID_BENCH_MAX_N", "RFID_CSV_DIR"}) {
      const char* value = std::getenv(name);
      if (value == nullptr) continue;
      os << (first ? "" : ", ") << '"' << name << "\": \""
         << json_escape(value) << '"';
      first = false;
    }
    os << "},\n  \"measurements\": [";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      os << (i == 0 ? "" : ",") << "\n    {\"protocol\": \""
         << json_escape(e.protocol) << "\", \"population\": " << e.population
         << ", \"info_bits\": " << e.info_bits
         << ", \"trials\": " << e.trials
         << ", \"master_seed\": " << e.master_seed << '}';
    }
    os << (entries_.empty() ? "" : "\n  ") << "]\n}\n";
  }

  struct Entry final {
    std::string protocol;
    std::size_t population = 0;
    std::size_t info_bits = 0;
    std::size_t trials = 0;
    std::uint64_t master_seed = 0;
  };

  std::string bench_;
  std::vector<Entry> entries_;
};

/// Optional CSV sink keyed by bench name. An RFID_CSV_DIR the bench cannot
/// write into (missing, not a directory, no permission) is a usage error:
/// one `error:` line on stderr and exit status 2, before any measuring.
class CsvSink final {
 public:
  explicit CsvSink(const std::string& bench_name) {
    RunManifest::instance().set_bench(bench_name);
    const char* dir = std::getenv("RFID_CSV_DIR");
    if (dir == nullptr || *dir == '\0') return;
    const std::string path = std::string(dir) + "/" + bench_name + ".csv";
    try {
      writer_.emplace(path);
    } catch (const std::runtime_error&) {
      std::cerr << "error: RFID_CSV_DIR=" << dir << ": cannot open " << path
                << " for writing\n";
      std::exit(2);
    }
  }

  void row(const std::vector<std::string>& cells) {
    if (writer_) writer_->write_row(cells);
  }

 private:
  std::optional<CsvWriter> writer_;
};

/// Averaged outcome of `trials` runs of one protocol at one population size.
struct SeriesPoint final {
  RunningStats w;
  RunningStats time_s;
  RunningStats waste;
};

inline SeriesPoint measure(const protocols::PollingProtocol& protocol,
                           std::size_t n, std::size_t info_bits,
                           std::size_t trials, std::uint64_t master_seed) {
  RunManifest::instance().record(protocol.name(), n, info_bits, trials,
                                 master_seed);
  parallel::TrialPlan plan;
  plan.trials = trials;
  plan.master_seed = master_seed;
  plan.session.info_bits = info_bits;
  const auto series =
      parallel::run_trials(protocol, parallel::uniform_population(n), plan);
  SeriesPoint point;
  point.w = series.vector_bits();
  point.time_s = series.time_s();
  point.waste = series.waste();
  return point;
}

/// "12.34 ±0.05" formatting for a measured statistic.
inline std::string with_ci(const RunningStats& stats, int digits = 2) {
  std::string out = TablePrinter::num(stats.mean(), digits);
  if (stats.count() > 1)
    out += " \xC2\xB1" + TablePrinter::num(stats.ci95_half_width(), digits);
  return out;
}

inline void preamble(const std::string& what, std::size_t trial_count) {
  std::cout << "=== " << what << " ===\n"
            << "(averages over " << trial_count
            << " runs; set RFID_RUNS to change; paper used 100)\n\n";
}

}  // namespace rfid::bench
