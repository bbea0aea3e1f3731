// The benchmark workloads. See perfbench/README.md for why each exists
// and which per-layer figure should move which end-to-end metric.
//
// A sample is one fixed unit of work derived only from (workload, scale,
// seed): every sample of a run repeats the same drains, so the amount of
// work never depends on a timing window. All work is serial (no thread
// pool).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "timeline.hpp"

namespace perfbench {

enum class WorkloadKind { kPaperFigures, kFaultyFleet };

/// "full" is the benchmark; "smoke" is the same code path at a size that
/// finishes in seconds (self-tests).
enum class Scale { kFull, kSmoke };

struct Workload final {
  WorkloadKind kind = WorkloadKind::kPaperFigures;
  std::string name;
  Scale scale = Scale::kFull;
  std::uint64_t seed = 1;
  /// Test hook: drops one delivered tag from the first drain's accounting
  /// before the exactly-once check, which must then fail.
  bool tamper_identity = false;
};

/// Simulated counts of one sample. They depend only on the seed, so every
/// sample of a run must report them identically.
struct Counts final {
  double ticks = 0, rounds = 0, handoffs = 0, churn_moves = 0,
         churn_departures = 0, channel_slots = 0;  ///< ticks · channels
  double polls = 0, retries = 0, corrupted = 0, missing = 0, undelivered = 0;
  double crashes = 0, stalls = 0, restarts = 0;
  double airtime_us = 0, recovery_us = 0;
  /// Per paper protocol (HPP, EHPP, TPP).
  std::array<double, 3> proto_rounds{}, proto_vector_bits{}, proto_polls{};
  double ehpp_circles = 0;
};

/// Host time spent in each layer call during one sample.
struct LayerTimes final {
  double build_s = 0, build_tags = 0;    ///< tags::TagPopulation generators
  double place_s = 0, place_tags = 0;    ///< core::Deployment constructor
  double tick_s = 0;                     ///< core::Deployment::tick
  double finish_s = 0;                   ///< core::Deployment::finish
  std::array<double, 3> run_s{}, run_tags{};  ///< PollingProtocol::run
  double fold_s = 0, publish_s = 0, json_s = 0, snapshot_bytes = 0;
  double publishes = 0;
  double encode_s = 0, decode_s = 0, checkpoint_bytes = 0, checkpoints = 0;
  double hash_s = 0, hash_tags = 0;        ///< replayed simd::hash_indices
  double compact_s = 0, compact_tags = 0;  ///< replayed compaction
  double tree_s = 0, tree_indices = 0;     ///< replayed tree encoding
  double replay_s = 0;  ///< all replay work (outside the wall)
};

struct DrainDigest final {
  std::string drain;
  std::uint64_t value = 0;
};

struct DrainFailure final {
  std::string drain;
  std::string problem;
};

struct Sample final {
  /// Host slowdown while the sample ran: its mean probe time over
  /// kReferenceProbeS (calibration.hpp). Every host time of the sample is
  /// divided by it before it is reported.
  double slowdown = 1.0;
  double probe_total_s = 0;  ///< summed probe times
  std::size_t probes = 0;
  double probe_wall_s = 0;   ///< host time spent probing (outside wall_s)
  std::int64_t next_probe_ns = 0;
  double wall_s = 0;      ///< whole sample, replays and probes excluded
  double setup_s = 0;     ///< population generation + placement
  double drive_s = 0;     ///< host time in tick() / run()
  double resolved = 0;    ///< delivered + missing + undelivered tags
  double sim_polls = 0;   ///< simulated polls + missing + retries
  std::vector<double> step_ms;  ///< per tick (faulty_fleet) / per drain
  /// Per published result: the per-tick telemetry fold and checkpoint
  /// (faulty_fleet) / one figure point's trial fold and CSV row
  /// (paper_figures).
  std::vector<double> publish_us;
  LayerTimes layers;
  Counts counts;
  std::size_t drains = 0;
  std::vector<DrainFailure> failures;  ///< one entry per failed check
  std::vector<DrainDigest> digests;
};

/// Runs one sample. `replay` additionally re-runs the hash, compaction and
/// tree kernels on each drain's tags (traced samples only); that work is
/// timed into layers.replay_s and excluded from wall_s. paper_figures
/// writes its figure rows to `rows`, as the bench programs' CSV sink does.
[[nodiscard]] Sample run_sample(const Workload& workload, Timeline& timeline,
                                bool replay, rfid::CsvWriter& rows);

}  // namespace perfbench
