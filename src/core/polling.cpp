#include "core/polling.hpp"

#include <algorithm>
#include <ostream>

#include "analysis/timing_model.hpp"
#include "common/error.hpp"
#include "common/format.hpp"

namespace rfid::core {

CollectionReport collect_info(ProtocolKind kind,
                              const tags::TagPopulation& population,
                              sim::SessionConfig config) {
  config.keep_records = true;
  const auto protocol = protocols::make_protocol(kind);
  CollectionReport report;
  report.result = protocol->run(population, config);
  report.verification =
      sim::verify_complete_collection(population, report.result);
  return report;
}

MissingTagReport find_missing_tags(
    ProtocolKind kind, const tags::TagPopulation& expected,
    const std::unordered_set<TagId, TagIdHash>& present,
    sim::SessionConfig config) {
  RFID_EXPECTS(kind != ProtocolKind::kDfsa);
  config.keep_records = true;
  config.info_bits = std::max<std::size_t>(config.info_bits, 1);
  config.present = &present;

  const auto protocol = protocols::make_protocol(kind);
  MissingTagReport report;
  report.result = protocol->run(expected, config);
  report.missing = report.result.missing_ids;
  std::sort(report.missing.begin(), report.missing.end());

  // Ground truth: exactly the expected tags absent from `present`.
  std::vector<TagId> truth;
  for (const tags::Tag& tag : expected)
    if (!present.contains(tag.id())) truth.push_back(tag.id());
  std::sort(truth.begin(), truth.end());
  report.exact = truth == report.missing;
  return report;
}

sim::SessionConfig fault_comparison_session() {
  sim::SessionConfig session;
  session.fault.link = fault::LinkModel::kGilbertElliott;
  session.fault.downlink_ber = 0.005;
  session.framing.enabled = true;
  session.framing.segment_payload_bits = 32;
  session.recovery.enabled = true;
  session.recovery.retry_budget = 12;
  return session;
}

std::vector<ComparisonRow> compare_protocols(
    std::span<const ProtocolKind> kinds, std::size_t n, std::size_t info_bits,
    std::size_t trials, std::uint64_t master_seed, parallel::ThreadPool* pool,
    const sim::SessionConfig& base_session) {
  std::vector<ComparisonRow> rows;
  rows.reserve(kinds.size() + 1);

  parallel::TrialPlan plan;
  plan.trials = trials;
  plan.master_seed = master_seed;
  plan.session = base_session;
  plan.session.info_bits = info_bits;
  const auto factory = parallel::uniform_population(n);

  for (const ProtocolKind kind : kinds) {
    const auto protocol = protocols::make_protocol(kind);
    const parallel::TrialSeries series =
        parallel::run_trials(*protocol, factory, plan, pool);
    ComparisonRow row;
    row.protocol = std::string(protocols::to_string(kind));
    row.avg_vector_bits = series.vector_bits().mean();
    row.avg_time_s = series.time_s().mean();
    row.ci95_time_s = series.time_s().ci95_half_width();
    row.totals = series.totals;
    row.trials = trials;
    rows.push_back(std::move(row));
  }

  ComparisonRow bound;
  bound.protocol = "LowerBound";
  bound.avg_vector_bits = 0.0;
  bound.avg_time_s = analysis::lower_bound_time_s(n, info_bits);
  rows.push_back(std::move(bound));
  return rows;
}

void write_comparison_json(std::ostream& os,
                           std::span<const ComparisonRow> rows,
                           const ComparisonMeta& meta) {
  // Fixed key order and formatting: identical inputs must serialise to
  // identical bytes regardless of thread count (CI diffs this output).
  os << "{\n";
  os << "  \"n\": " << meta.n << ",\n";
  os << "  \"info_bits\": " << meta.info_bits << ",\n";
  os << "  \"trials\": " << meta.trials << ",\n";
  os << "  \"master_seed\": " << meta.master_seed << ",\n";
  os << "  \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ComparisonRow& row = rows[i];
    const sim::Metrics& t = row.totals;
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\n";
    os << "      \"protocol\": \"" << row.protocol << "\",\n";
    os << "      \"avg_vector_bits\": "
       << format_double(row.avg_vector_bits, 12) << ",\n";
    os << "      \"avg_time_s\": " << format_double(row.avg_time_s, 12)
       << ",\n";
    os << "      \"ci95_time_s\": " << format_double(row.ci95_time_s, 12)
       << ",\n";
    os << "      \"trials\": " << row.trials << ",\n";
    os << "      \"totals\": {\n";
    os << "        \"polls\": " << t.polls << ",\n";
    os << "        \"missing\": " << t.missing << ",\n";
    os << "        \"corrupted\": " << t.corrupted << ",\n";
    os << "        \"retries\": " << t.retries << ",\n";
    os << "        \"undelivered\": " << t.undelivered << ",\n";
    os << "        \"rounds\": " << t.rounds << ",\n";
    os << "        \"circles\": " << t.circles << ",\n";
    os << "        \"slots_total\": " << t.slots_total << ",\n";
    os << "        \"slots_useful\": " << t.slots_useful << ",\n";
    os << "        \"slots_wasted\": " << t.slots_wasted << ",\n";
    os << "        \"vector_bits\": " << t.vector_bits << ",\n";
    os << "        \"command_bits\": " << t.command_bits << ",\n";
    os << "        \"tag_bits\": " << t.tag_bits << ",\n";
    os << "        \"time_us\": " << format_double(t.time_us, 12) << "\n";
    os << "      }\n";
    os << "    }";
  }
  os << "\n  ]\n}\n";
}

}  // namespace rfid::core
