#include "workloads.hpp"

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/tpp_model.hpp"
#include "calibration.hpp"
#include "checks.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/deployment.hpp"
#include "obs/stream.hpp"
#include "protocols/polling_tree.hpp"
#include "protocols/registry.hpp"
#include "sim/checkpoint.hpp"
#include "tags/population.hpp"
#include "tags/soa.hpp"

namespace perfbench {

namespace {

using rfid::derive_seed;
namespace core = rfid::core;
namespace obs = rfid::obs;
namespace protocols = rfid::protocols;
namespace sim = rfid::sim;
namespace simd = rfid::simd;
namespace tags = rfid::tags;

// --- Replays: the hot kernels re-run on a drain's own tags ------------------

struct ReplayScratch final {
  tags::TagSoA soa;
  std::vector<std::uint32_t> slots, counts, singletons, sort_scratch;
  std::vector<std::uint64_t> col_a, col_b, col_c;
  std::vector<protocols::TreeSegment> segments;
};

/// Replays one clean first round over `tag_span` the way the round engine
/// runs it: batched H(r, id) pick, bucket histogram, compaction of the
/// non-singletons, and (for TPP) the polling-tree encoding of the singleton
/// indices. Only the three kernel calls count as their layers; the column
/// copies and the histogram are replay bookkeeping, the self time of the
/// enclosing "bench.replay" span. Replays are outside the sample's wall.
void replay_round(std::span<const tags::Tag> tag_span, unsigned h,
                  std::uint64_t seed, bool tree, Timeline& timeline,
                  LayerTimes& layers, ReplayScratch& scratch) {
  const std::size_t n = tag_span.size();
  const simd::Backend backend = simd::best_backend();
  Scope replay(timeline, "bench.replay");
  {
    scratch.soa.clear();
    scratch.soa.reserve(n);
    for (const tags::Tag& tag : tag_span) scratch.soa.push_back(&tag);
    scratch.slots.resize(n);
  }
  {
    Scope scope(timeline, "common.simd.hash");
    simd::hash_indices(seed, scratch.soa.id_hi_data(),
                       scratch.soa.id_lo_data(), scratch.slots.data(), n, h,
                       backend);
    const double dt = scope.stop();
    layers.hash_s += dt;
    layers.hash_tags += static_cast<double>(n);
  }
  {
    scratch.counts.assign(static_cast<std::size_t>(rfid::pow2(h)), 0);
    for (const std::uint32_t slot : scratch.slots) ++scratch.counts[slot];
    scratch.singletons.clear();
    for (std::size_t idx = 0; idx < scratch.counts.size(); ++idx)
      if (scratch.counts[idx] == 1)
        scratch.singletons.push_back(static_cast<std::uint32_t>(idx));
    scratch.col_a.assign(scratch.soa.id_hi_data(),
                         scratch.soa.id_hi_data() + n);
    scratch.col_b.assign(scratch.soa.id_lo_data(),
                         scratch.soa.id_lo_data() + n);
    scratch.col_c.resize(n);
    for (std::size_t i = 0; i < n; ++i) scratch.col_c[i] = i;
  }
  {
    Scope scope(timeline, "common.simd.compact");
    (void)simd::compact_nonsingletons(
        scratch.counts.data(), scratch.slots.data(), scratch.col_a.data(),
        scratch.col_b.data(), scratch.col_c.data(), n, backend);
    const double dt = scope.stop();
    layers.compact_s += dt;
    layers.compact_tags += static_cast<double>(n);
  }
  if (tree && !scratch.singletons.empty()) {
    Scope scope(timeline, "protocols.tree_encode");
    protocols::PollingTree::segments_from_indices_into(
        scratch.singletons, h, scratch.sort_scratch, scratch.segments);
    const double dt = scope.stop();
    layers.tree_s += dt;
    layers.tree_indices += static_cast<double>(scratch.singletons.size());
  }
  layers.replay_s += replay.stop();
}

/// Runs the host-speed probe if it is due (or `force`), outside the wall.
/// Called only between steps, never inside a layer call.
void probe(Timeline& timeline, Sample& sample, bool force = false) {
  if (!force && timeline.now_ns() < sample.next_probe_ns) return;
  Scope scope(timeline, "bench.probe");
  sample.probe_total_s += probe_s();
  ++sample.probes;
  sample.probe_wall_s += scope.stop();
  sample.next_probe_ns =
      timeline.now_ns() + static_cast<std::int64_t>(kProbeEveryS * 1e9);
}

void add_sim_counts(Counts& counts, const obs::Metrics& m) {
  counts.polls += static_cast<double>(m.polls);
  counts.retries += static_cast<double>(m.retries);
  counts.corrupted += static_cast<double>(m.corrupted);
  counts.missing += static_cast<double>(m.missing);
  counts.undelivered += static_cast<double>(m.undelivered);
  counts.crashes += static_cast<double>(m.reader_crashes);
  counts.stalls += static_cast<double>(m.reader_stalls);
  counts.restarts += static_cast<double>(m.reader_restarts);
  counts.airtime_us += m.time_us;
  counts.recovery_us += m.phases.get(obs::Phase::kRecovery);
}

void record_problems(Sample& sample, const std::string& drain,
                     const std::vector<std::string>& problems) {
  for (const std::string& problem : problems)
    sample.failures.push_back({drain, problem});
}

// --- paper_figures ----------------------------------------------------------

constexpr std::array<protocols::ProtocolKind, 3> kPaperProtocols = {
    protocols::ProtocolKind::kHpp, protocols::ProtocolKind::kEhpp,
    protocols::ProtocolKind::kTpp};
constexpr std::array<const char*, 3> kRunSpans = {
    "protocols.hpp.run", "protocols.ehpp.run", "protocols.tpp.run"};

void paper_figures(const Workload& workload, Timeline& timeline, bool replay,
                   rfid::CsvWriter& rows, Sample& sample) {
  // Fig. 10 / Tables 1-3 endpoints; smoke keeps the shape at 1/10 size.
  const bool full = workload.scale == Scale::kFull;
  const std::array<std::size_t, 2> sizes =
      full ? std::array<std::size_t, 2>{10'000, 100'000}
           : std::array<std::size_t, 2>{1'000, 10'000};
  const std::size_t trials = full ? 2 : 1;
  ReplayScratch scratch;
  std::vector<obs::Metrics> point_metrics;

  for (std::size_t p = 0; p < kPaperProtocols.size(); ++p) {
    const std::unique_ptr<protocols::PollingProtocol> protocol =
        protocols::make_protocol(kPaperProtocols[p]);
    for (const std::size_t n : sizes) {
      // One trial series per population size, seeded as parallel::run_trials
      // seeds trial t of master seed `master`.
      const std::uint64_t master = derive_seed(workload.seed, n);
      point_metrics.clear();
      for (std::size_t t = 0; t < trials; ++t) {
        const std::string drain = std::string(protocol->name()) + "/n" +
                                  std::to_string(n) + "/t" +
                                  std::to_string(t);
        tags::TagPopulation population;
        {
          Scope scope(timeline, "tags.build");
          rfid::Xoshiro256ss id_rng(derive_seed(master, 2 * t));
          population = tags::TagPopulation::uniform_random(n, id_rng);
          const double dt = scope.stop();
          sample.layers.build_s += dt;
          sample.layers.build_tags += static_cast<double>(n);
          sample.setup_s += dt;
        }
        sim::SessionConfig config;
        config.info_bits = 1;
        config.seed = derive_seed(master, 2 * t + 1);
        config.keep_records = false;  // as run_trials sets it
        sim::RunResult result;
        {
          Scope scope(timeline, kRunSpans[p]);
          result = protocol->run(population, config);
          const double dt = scope.stop();
          sample.layers.run_s[p] += dt;
          sample.layers.run_tags[p] += static_cast<double>(n);
          sample.drive_s += dt;
          sample.step_ms.push_back(dt * 1e3);
        }
        {
          Scope scope(timeline, "bench.check");
          std::vector<std::string> problems;
          const bool tamper = workload.tamper_identity && sample.drains == 0;
          check_identity(n, result.metrics.polls - (tamper ? 1 : 0),
                         result.missing_ids.size(),
                         result.undelivered_ids.size(), problems);
          check_phases(result.metrics, "totals", problems);
          record_problems(sample, drain, problems);
          sample.digests.push_back({drain, digest(result)});
          ++sample.drains;
          point_metrics.push_back(result.metrics);

          const obs::Metrics& m = result.metrics;
          sample.resolved += static_cast<double>(
              m.polls + result.missing_ids.size() +
              result.undelivered_ids.size());
          sample.sim_polls += static_cast<double>(m.polls + m.missing +
                                                  m.retries);
          add_sim_counts(sample.counts, m);
          sample.counts.proto_rounds[p] += static_cast<double>(m.rounds);
          sample.counts.proto_vector_bits[p] +=
              static_cast<double>(m.vector_bits);
          sample.counts.proto_polls[p] += static_cast<double>(m.polls);
          if (p == 1)
            sample.counts.ehpp_circles += static_cast<double>(m.circles);
        }
        probe(timeline, sample);
        if (replay) {
          const bool tpp = kPaperProtocols[p] == protocols::ProtocolKind::kTpp;
          const unsigned h = tpp ? rfid::analysis::tpp_optimal_index_length(n)
                                 : rfid::ceil_log2(n);
          replay_round(population.tags(), h, config.seed, tpp, timeline,
                       sample.layers, scratch);
        }
        {
          Scope scope(timeline, "bench.release");
          population = tags::TagPopulation{};
        }
      }
      {
        // What run_trials and bench::measure do with one figure point:
        // fold the trials' metrics in trial order, summarise their
        // outcomes, and write the point's CSV row.
        Scope scope(timeline, "sim.series_row");
        obs::Metrics totals;
        rfid::RunningStats w, time_s, waste;
        for (const obs::Metrics& m : point_metrics) {
          totals.merge(m);
          w.add(m.avg_vector_bits());
          time_s.add(m.exec_time_s());
          waste.add(m.waste_fraction());
        }
        rows.write_row({std::string(protocol->name()), std::to_string(n),
                        rfid::TablePrinter::num(w.mean(), 3),
                        rfid::TablePrinter::num(w.ci95_half_width(), 3),
                        rfid::TablePrinter::num(time_s.mean(), 4),
                        rfid::TablePrinter::num(waste.mean(), 4),
                        std::to_string(totals.rounds)});
        sample.publish_us.push_back(scope.stop() * 1e6);
      }
      probe(timeline, sample);
    }
  }
}

// --- faulty_fleet -----------------------------------------------------------

struct FleetShape final {
  std::size_t tags = 0, readers = 0, channels = 0;
};

FleetShape fleet_shape(const Workload& workload) {
  return workload.scale == Scale::kFull ? FleetShape{1'000'000, 64, 8}
                                        : FleetShape{50'000, 16, 8};
}

core::DeploymentConfig fleet_config(const FleetShape& shape) {
  core::DeploymentConfig config;
  config.readers = shape.readers;
  config.channels = shape.channels;
  config.kind = protocols::ProtocolKind::kTpp;
  // One fixed site scenario: the per-reader session and fault streams come
  // from a constant, and the workload seed draws only the tag population
  // (IDs, hence ownership, churn times and hash picks). With the fault
  // timeline drawn per seed, a few more reader stalls left tags unread
  // longer, piled up churn moves and handoffs, and moved host work by up
  // to 30% between seeds; repetition within a run cannot average that out.
  config.session.seed = 1;
  config.session.keep_records = false;
  config.zone_overlap = 0.1;
  config.churn_move_per_tick = 0.0008;
  config.churn_depart_per_tick = 0.0002;
  config.session.fault.link = rfid::fault::LinkModel::kGilbertElliott;
  config.session.fault.downlink_ber = 1e-4;
  config.session.framing.enabled = true;
  config.session.recovery.enabled = true;
  config.reader_faults.crash_per_tick = 0.002;
  config.reader_faults.stall_per_tick = 0.005;
  config.reader_faults.restart_per_tick = 0.002;
  return config;
}

/// simserved's Deployment-mode telemetry fold plus a checkpoint round trip,
/// run after every tick of faulty_fleet.
class TickPublisher final {
 public:
  TickPublisher(const FleetShape& shape, std::uint64_t seed,
                Timeline& timeline)
      : shape_(shape),
        aggregator_(shape.readers),
        live_(shape.readers),
        health_(shape.readers),
        timeline_(timeline),
        last_publish_ns_(timeline.now_ns()) {
    aggregator_.configure_channels(shape.channels);
    checkpoint_.master_seed = seed;
    checkpoint_.epoch_target = 1;
    checkpoint_.config_fingerprint = rfid::sim::fingerprint_mix(
        rfid::sim::fingerprint_mix(
            rfid::sim::fingerprint_mix(seed, shape.tags), shape.readers),
        shape.channels);
    checkpoint_.readers.resize(shape.readers);
  }

  void publish(const core::Deployment& deployment, Sample& sample,
               std::vector<std::string>& problems) {
    LayerTimes& layers = sample.layers;
    double total_s = 0;
    {
      Scope scope(timeline_, "obs.fold");
      for (std::size_t r = 0; r < shape_.readers; ++r) {
        live_[r] = deployment.reader_metrics(r);
        health_[r] = deployment.reader_health(r);
        aggregator_.update_reader(r, live_[r], 0.0);
        aggregator_.set_reader_health(r, health_[r]);
      }
      for (std::size_t c = 0; c < deployment.channel_count(); ++c)
        aggregator_.update_channel(
            c, core::channel_population(c, shape_.readers,
                                        deployment.channel_count()),
            deployment.channel_rounds(c), deployment.channel_busy_us(c));
      aggregator_.set_fleet_counters(deployment.handoffs(),
                                     deployment.churn_departures());
      const double dt = scope.stop();
      layers.fold_s += dt;
      total_s += dt;
    }
    std::shared_ptr<const obs::MetricsSnapshot> snapshot;
    {
      // The wall interval since the previous publish, as simserved passes it.
      const std::int64_t now = timeline_.now_ns();
      Scope scope(timeline_, "obs.publish");
      snapshot = aggregator_.publish(
          static_cast<double>(now - last_publish_ns_) * 1e-9);
      last_publish_ns_ = now;
      const double dt = scope.stop();
      layers.publish_s += dt;
      total_s += dt;
    }
    {
      Scope scope(timeline_, "obs.json");
      const std::string json = obs::to_json(*snapshot);
      const double dt = scope.stop();
      layers.json_s += dt;
      layers.snapshot_bytes += static_cast<double>(json.size());
      total_s += dt;
    }
    {
      Scope scope(timeline_, "sim.checkpoint_encode");
      for (std::size_t r = 0; r < shape_.readers; ++r) {
        sim::ReaderCheckpoint& reader = checkpoint_.readers[r];
        reader.crashes = live_[r].reader_crashes;
        reader.restarts = live_[r].reader_restarts;
        reader.health = health_[r];
        reader.completed = live_[r];
      }
      sim::encode_into(checkpoint_, bytes_);
      const double dt = scope.stop();
      layers.encode_s += dt;
      layers.checkpoint_bytes += static_cast<double>(bytes_.size());
      total_s += dt;
    }
    sim::Checkpoint decoded;
    {
      Scope scope(timeline_, "sim.checkpoint_decode");
      decoded = sim::decode(bytes_);
      const double dt = scope.stop();
      layers.decode_s += dt;
      total_s += dt;
    }
    {
      Scope scope(timeline_, "bench.check");
      sim::encode_into(decoded, reencoded_);
      if (reencoded_ != bytes_)
        problems.push_back("checkpoint round trip changed tick " +
                           std::to_string(deployment.ticks_run()));
    }
    layers.publishes += 1;
    layers.checkpoints += 1;
    sample.publish_us.push_back(total_s * 1e6);
  }

 private:
  FleetShape shape_;
  obs::StreamingAggregator aggregator_;
  std::vector<obs::Metrics> live_;
  std::vector<obs::ReaderHealth> health_;
  sim::Checkpoint checkpoint_;
  std::vector<std::uint8_t> bytes_, reencoded_;
  Timeline& timeline_;
  std::int64_t last_publish_ns_;
};

void faulty_fleet(const Workload& workload, Timeline& timeline, bool replay,
                  Sample& sample) {
  const FleetShape shape = fleet_shape(workload);
  const core::DeploymentConfig config = fleet_config(shape);
  const std::string drain = "deployment";
  std::vector<std::string> problems;

  tags::TagPopulation population;
  {
    Scope scope(timeline, "tags.build");
    population = tags::TagPopulation::uniform_random_sharded(
        shape.tags, derive_seed(workload.seed, 0), 8);
    const double dt = scope.stop();
    sample.layers.build_s += dt;
    sample.layers.build_tags += static_cast<double>(shape.tags);
    sample.setup_s += dt;
  }
  probe(timeline, sample);
  std::unique_ptr<core::Deployment> deployment;
  {
    Scope scope(timeline, "core.place");
    deployment = std::make_unique<core::Deployment>(population, config);
    const double dt = scope.stop();
    sample.layers.place_s += dt;
    sample.layers.place_tags += static_cast<double>(shape.tags);
    sample.setup_s += dt;
  }

  std::optional<TickPublisher> publisher;
  {
    Scope scope(timeline, "bench.publisher_init");
    publisher.emplace(shape, workload.seed, timeline);
  }
  for (bool more = true; more;) {
    {
      Scope scope(timeline, "core.tick");
      more = deployment->tick();
      const double dt = scope.stop();
      sample.layers.tick_s += dt;
      sample.drive_s += dt;
      sample.step_ms.push_back(dt * 1e3);
    }
    publisher->publish(*deployment, sample, problems);
    probe(timeline, sample);
  }
  core::DeploymentReport report;
  {
    Scope scope(timeline, "core.finish");
    report = deployment->finish();
    sample.layers.finish_s += scope.stop();
  }
  {
    Scope scope(timeline, "bench.check");
    const bool tamper = workload.tamper_identity;
    check_identity(population.size(), report.delivered - (tamper ? 1 : 0),
                   report.missing_ids.size(), report.undelivered_ids.size(),
                   problems);
    if (!report.verified)
      problems.emplace_back("report.verified is false");
    check_phases(report.totals, "totals", problems);
    for (std::size_t r = 0; r < report.per_reader_metrics.size(); ++r)
      check_phases(report.per_reader_metrics[r],
                   "reader " + std::to_string(r), problems);
    record_problems(sample, drain, problems);
    sample.digests.push_back({drain, digest(report)});
    ++sample.drains;

    const obs::Metrics& m = report.totals;
    sample.resolved += static_cast<double>(report.delivered +
                                           report.missing_ids.size() +
                                           report.undelivered_ids.size());
    sample.sim_polls += static_cast<double>(m.polls + m.missing + m.retries);
    add_sim_counts(sample.counts, m);
    Counts& counts = sample.counts;
    counts.ticks += static_cast<double>(report.ticks);
    counts.rounds += static_cast<double>(m.rounds);
    counts.handoffs += static_cast<double>(report.handoffs);
    counts.churn_moves += static_cast<double>(report.churn_moves);
    counts.churn_departures += static_cast<double>(report.churn_departures);
    counts.channel_slots +=
        static_cast<double>(report.ticks * report.per_channel.size());
  }
  {
    Scope scope(timeline, "bench.release");
    deployment.reset();
  }
  if (replay) {
    // Reader-sized slices of the population, one first round each: the
    // shape of the fleet's per-reader TPP rounds.
    ReplayScratch scratch;
    const std::size_t slice = shape.tags / shape.readers;
    const std::span<const tags::Tag> all = population.tags();
    for (std::size_t r = 0; r < shape.readers; ++r)
      replay_round(all.subspan(r * slice, slice),
                   rfid::analysis::tpp_optimal_index_length(slice),
                   derive_seed(workload.seed, 2 + r), true, timeline,
                   sample.layers, scratch);
  }
  {
    Scope scope(timeline, "bench.release");
    population = tags::TagPopulation{};
  }
}

}  // namespace

Sample run_sample(const Workload& workload, Timeline& timeline, bool replay,
                  rfid::CsvWriter& rows) {
  Sample sample;
  Scope root(timeline, "sample");
  probe(timeline, sample, true);
  if (workload.kind == WorkloadKind::kPaperFigures)
    paper_figures(workload, timeline, replay, rows, sample);
  else
    faulty_fleet(workload, timeline, replay, sample);
  probe(timeline, sample, true);
  sample.wall_s =
      root.stop() - sample.layers.replay_s - sample.probe_wall_s;
  sample.slowdown = sample.probe_total_s /
                    static_cast<double>(sample.probes) / kReferenceProbeS;
  return sample;
}

}  // namespace perfbench
