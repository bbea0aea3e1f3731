// perfbench: the repository's host-time benchmark.
//
//   perfbench --workload paper_figures|faulty_fleet --seed N
//             --seconds S --trace 0|1 [--scale full|smoke]
//             [--digests PATH] [--trace-out PATH] [--result-out PATH]
//             [--commit ID] [--source-digest HEX] [--tamper identity]
//
// One warm-up sample, then fixed-work samples until S seconds have passed
// (at least three). Every host time is calibrated by the host's slowdown
// during its sample (calibration.hpp). --trace 0 reports the end-to-end
// metrics; --trace 1 alternates untraced and traced samples, writes the
// traced samples' spans as a Chrome trace, and reports the per-layer
// metrics. The last line of
// stdout is the result object; earlier lines carry the host fingerprint
// and the drain digests. Exit 0 when every drain passed its checks, 1 when
// one failed (named on stderr with workload and seed), 2 on a usage error.
// perfbench/run.py builds the binary and is the normal entry point.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "calibration.hpp"
#include "checks.hpp"
#include "common/simd.hpp"
#include "timeline.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Bad command-line input: reported in one line, exit code 2.
class UsageError final : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Options final {
  Workload workload;
  unsigned seconds = 10;
  bool trace = false;
  std::string digests = "perfbench/digests.txt";
  std::string trace_out, result_out;
  std::string commit = "unknown", source_digest = "unknown";
};

constexpr std::size_t kMinSamples = 3;

std::uint64_t parse_u64(std::string_view flag, std::string_view text) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc{} || end != text.data() + text.size())
    throw UsageError("malformed " + std::string(flag) + " '" +
                     std::string(text) + "' (expected a whole number)");
  return value;
}

Options parse_args(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc)
      throw UsageError("missing value after " + std::string(flag));
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const std::map<std::string, WorkloadKind> kinds = {
          {"paper_figures", WorkloadKind::kPaperFigures},
          {"faulty_fleet", WorkloadKind::kFaultyFleet}};
      const auto it = kinds.find(value);
      if (it == kinds.end())
        throw UsageError("unknown workload '" + value +
                         "' (expected paper_figures or faulty_fleet)");
      options.workload.kind = it->second;
      options.workload.name = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.workload.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      const std::uint64_t seconds = parse_u64(flag, value);
      if (seconds < 1 || seconds > 600)
        throw UsageError("--seconds must be within 1..600");
      options.seconds = static_cast<unsigned>(seconds);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw UsageError("--trace must be 0 or 1, not '" + value + "'");
      options.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "smoke")
        throw UsageError("--scale must be full or smoke, not '" + value + "'");
      options.workload.scale = value == "full" ? Scale::kFull : Scale::kSmoke;
    } else if (flag == "--digests") {
      options.digests = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--result-out") {
      options.result_out = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--source-digest") {
      options.source_digest = value;
    } else if (flag == "--tamper") {
      if (value != "identity")
        throw UsageError("--tamper supports only 'identity'");
      options.workload.tamper_identity = true;
    } else {
      throw UsageError("unknown option " + std::string(flag));
    }
  }
  if (!have_workload) throw UsageError("--workload is required");
  return options;
}

/// Opens `path` for writing now, so an unwritable path fails before any
/// work is done.
std::ofstream open_output(const std::string& path, const char* what) {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw UsageError(std::string("cannot write ") + what + " " + path);
  return out;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        if (start != std::string::npos) return line.substr(start);
      }
    }
  return "unknown";
}

/// Host fingerprint: results with different fingerprints are not comparable.
std::string fingerprint_json(const Options& options) {
  std::ostringstream os;
  os << "{\"cpu\":" << json_string(cpu_model())
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"simd\":"
     << json_string(rfid::simd::backend_name(rfid::simd::best_backend()))
     << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
     << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
     << ",\"cxx_flags\":" << json_string(PERFBENCH_CXX_FLAGS)
     << ",\"commit\":" << json_string(options.commit)
     << ",\"source_digest\":" << json_string(options.source_digest) << "}";
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Resident memory now, from /proc/self/statm (0 where it is missing).
double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0, resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return 0.0;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median_of(const std::vector<Sample>& samples,
                 const std::function<double(const Sample&)>& field) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Sample& sample : samples) values.push_back(field(sample));
  return quantile(std::move(values), 0.5);
}

struct Metric final {
  std::string name, unit;
  double value = 0.0;
};

/// Median over the samples of a host time, each calibrated by its sample's
/// slowdown.
double calibrated_median(const std::vector<Sample>& samples,
                         const std::function<double(const Sample&)>& time) {
  return median_of(samples,
                   [&](const Sample& s) { return time(s) / s.slowdown; });
}

/// `probe_mb` is the calibration probe's resident memory, held for the
/// whole run and so taken off the process's peak.
std::vector<Metric> end_to_end(const std::vector<Sample>& samples,
                               std::size_t attempted, std::size_t failed,
                               double probe_mb) {
  std::vector<double> steps, publishes;
  for (const Sample& s : samples) {
    for (const double step : s.step_ms) steps.push_back(step / s.slowdown);
    for (const double publish : s.publish_us)
      publishes.push_back(publish / s.slowdown);
  }
  return {
      {"tags_per_s", "tags/s",
       median_of(samples,
                 [](const Sample& s) {
                   return ratio(s.resolved, s.wall_s / s.slowdown);
                 })},
      {"setup_s", "s",
       calibrated_median(samples, [](const Sample& s) { return s.setup_s; })},
      {"ns_per_tag_poll", "ns",
       calibrated_median(samples,
                         [](const Sample& s) {
                           return ratio(s.drive_s * 1e9, s.sim_polls);
                         })},
      {"tick_p95_ms", "ms", quantile(steps, 0.95)},
      {"publish_p50_us", "us", quantile(publishes, 0.5)},
      {"peak_rss_mb", "MB", peak_rss_mb() - probe_mb},
      {"verified_frac", "ratio",
       ratio(static_cast<double>(attempted - failed),
             static_cast<double>(attempted))},
  };
}

std::vector<Metric> per_layer(const std::vector<Sample>& traced,
                              const std::vector<Sample>& untraced,
                              const Timeline& timeline) {
  // Every per-layer median below is of a host time.
  const auto med = [&](const std::function<double(const Sample&)>& f) {
    return calibrated_median(traced, f);
  };
  const Sample& any = traced.front();  // counts repeat in every sample
  const Counts& c = any.counts;
  std::vector<Metric> m = {
      {"tags.build_ns_per_tag", "ns",
       med([](const Sample& s) {
         return ratio(s.layers.build_s * 1e9, s.layers.build_tags);
       })},
      {"core.place_ns_per_tag", "ns",
       med([](const Sample& s) {
         return ratio(s.layers.place_s * 1e9, s.layers.place_tags);
       })},
      {"core.tick_ns_per_tag_poll", "ns",
       med([](const Sample& s) {
         return ratio(s.layers.tick_s * 1e9, s.sim_polls);
       })},
      {"core.finish_ms", "ms",
       med([](const Sample& s) { return s.layers.finish_s * 1e3; })},
      {"core.ticks", "count", c.ticks},
      {"core.rounds", "count", c.rounds},
      {"core.handoffs", "count", c.handoffs},
      {"core.churn_moves", "count", c.churn_moves},
      {"core.churn_departures", "count", c.churn_departures},
      {"core.slot_utilisation", "ratio", ratio(c.rounds, c.channel_slots)},
  };
  constexpr std::array<const char*, 3> kProtocols = {"hpp", "ehpp", "tpp"};
  for (std::size_t p = 0; p < kProtocols.size(); ++p) {
    const std::string prefix = std::string("protocols.") + kProtocols[p];
    m.push_back({prefix + ".run_ns_per_tag", "ns", med([p](const Sample& s) {
                   return ratio(s.layers.run_s[p] * 1e9, s.layers.run_tags[p]);
                 })});
    m.push_back({prefix + ".rounds", "count", c.proto_rounds[p]});
    m.push_back({prefix + ".w_bits_per_tag", "bits",
                 ratio(c.proto_vector_bits[p], c.proto_polls[p])});
  }
  const double useful = ratio(c.polls, c.polls + c.retries + c.corrupted);
  const std::vector<Metric> rest = {
      {"protocols.ehpp.circles", "count", c.ehpp_circles},
      {"protocols.tree_encode_ns_per_index", "ns",
       med([](const Sample& s) {
         return ratio(s.layers.tree_s * 1e9, s.layers.tree_indices);
       })},
      {"common.simd.hash_ns_per_tag", "ns",
       med([](const Sample& s) {
         return ratio(s.layers.hash_s * 1e9, s.layers.hash_tags);
       })},
      {"common.simd.compact_ns_per_tag", "ns",
       med([](const Sample& s) {
         return ratio(s.layers.compact_s * 1e9, s.layers.compact_tags);
       })},
      {"sim.polls", "count", c.polls},
      {"sim.retries", "count", c.retries},
      {"sim.corrupted", "count", c.corrupted},
      {"sim.missing", "count", c.missing},
      {"sim.undelivered", "count", c.undelivered},
      {"fault.crashes", "count", c.crashes},
      {"fault.stalls", "count", c.stalls},
      {"fault.restarts", "count", c.restarts},
      {"fault.useful_poll_ratio", "ratio", useful},
      {"sim.airtime_s", "s", c.airtime_us * 1e-6},
      {"sim.recovery_share", "ratio", ratio(c.recovery_us, c.airtime_us)},
      {"sim.checkpoint_encode_us", "us",
       med([](const Sample& s) {
         return ratio(s.layers.encode_s * 1e6, s.layers.checkpoints);
       })},
      {"sim.checkpoint_decode_us", "us",
       med([](const Sample& s) {
         return ratio(s.layers.decode_s * 1e6, s.layers.checkpoints);
       })},
      {"sim.checkpoint_bytes", "B",
       ratio(any.layers.checkpoint_bytes, any.layers.checkpoints)},
      {"obs.fold_us", "us",
       med([](const Sample& s) {
         return ratio(s.layers.fold_s * 1e6, s.layers.publishes);
       })},
      {"obs.publish_us", "us",
       med([](const Sample& s) {
         return ratio(s.layers.publish_s * 1e6, s.layers.publishes);
       })},
      {"obs.json_us", "us",
       med([](const Sample& s) {
         return ratio(s.layers.json_s * 1e6, s.layers.publishes);
       })},
      {"obs.snapshot_bytes", "B",
       ratio(any.layers.snapshot_bytes, any.layers.publishes)},
  };
  m.insert(m.end(), rest.begin(), rest.end());

  std::vector<Sample> all = traced;
  all.insert(all.end(), untraced.begin(), untraced.end());
  m.push_back({"host.slowdown", "ratio",
               median_of(all, [](const Sample& s) { return s.slowdown; })});
  // Overhead: traced vs untraced sample wall (replays and probes excluded
  // from both).
  const auto wall = [](const Sample& s) { return s.wall_s; };
  m.push_back({"trace.overhead", "ratio",
               calibrated_median(traced, wall) /
                       calibrated_median(untraced, wall) -
                   1.0});
  // Coverage: summed self time of the layer-call spans over the traced
  // samples' wall. Bookkeeping ("bench.") spans and the roots' own gaps
  // count as uncovered; replays and probes are outside the wall, so
  // neither side counts them.
  const std::vector<std::int64_t> self = timeline.self_times_ns();
  const std::vector<Span>& spans = timeline.spans();
  std::vector<bool> outside(spans.size(), false);
  double covered = 0, wall_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const double duration = static_cast<double>(span.end_ns - span.begin_ns);
    if (span.parent < 0) {
      wall_ns += duration;
      continue;
    }
    // A parent is opened before its children, so its flag is already set.
    const bool outside_root = is_outside_wall(span.name);
    outside[i] = outside_root || outside[static_cast<std::size_t>(span.parent)];
    if (outside_root)
      wall_ns -= duration;
    else if (!outside[i] && !is_bookkeeping(span.name))
      covered += static_cast<double>(self[i]);
  }
  m.push_back({"trace.coverage", "ratio", ratio(covered, wall_ns)});
  return m;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

int run(const Options& options) {
  const Workload& workload = options.workload;
  const std::string scale =
      workload.scale == Scale::kFull ? "full" : "smoke";
  const std::string run_name =
      workload.name + "-seed" + std::to_string(workload.seed);
  std::string trace_path = options.trace_out;
  if (options.trace && trace_path.empty())
    trace_path = ".bench_build/traces/" + run_name + ".json";
  std::ofstream trace_file, result_file;
  if (options.trace) trace_file = open_output(trace_path, "trace file");
  // The figure rows paper_figures writes (faulty_fleet leaves it empty).
  std::filesystem::create_directories(".bench_build/rows");
  rfid::CsvWriter rows(".bench_build/rows/" + run_name + ".csv");
  if (!options.result_out.empty())
    result_file = open_output(options.result_out, "result file");
  std::optional<DigestBook> book;
  if (workload.seed == kDefaultSeed) book = DigestBook::load(options.digests);

  const std::string fingerprint = fingerprint_json(options);
  std::cout << "fingerprint " << fingerprint << '\n';

  Timeline timeline;
  std::map<std::string, std::uint64_t> first_digest;
  std::size_t attempted = 0, failed = 0;
  std::set<std::string> failure_lines;  // distinct, for the stderr report
  // Digest checks against the committed book and the run's first sample;
  // a drain with any failed check counts once.
  const auto check_sample = [&](Sample& sample) {
    for (const DrainDigest& d : sample.digests) {
      if (book) {
        const std::optional<std::uint64_t> want =
            book->expected(workload.name, scale, d.drain);
        if (!want)
          sample.failures.push_back({d.drain, "no committed digest"});
        else if (*want != d.value)
          sample.failures.push_back(
              {d.drain, "digest " + hex(d.value) + " != committed " +
                            hex(*want)});
      }
      const auto [it, fresh] = first_digest.emplace(d.drain, d.value);
      if (!fresh && it->second != d.value)
        sample.failures.push_back(
            {d.drain, "digest " + hex(d.value) +
                          " differs from the run's first sample " +
                          hex(it->second)});
    }
    std::set<std::string> bad;
    for (const DrainFailure& f : sample.failures) {
      bad.insert(f.drain);
      failure_lines.insert(f.drain + ": " + f.problem);
    }
    attempted += sample.drains;
    failed += bad.size();
  };

  const double resident_before_probe_mb = resident_mb();
  (void)probe_s();  // builds the probe's arrays
  const double probe_mb = resident_mb() - resident_before_probe_mb;
  Sample warmup = run_sample(workload, timeline, false, rows);
  check_sample(warmup);
  for (const DrainDigest& d : warmup.digests)
    std::cout << "digest " << workload.name << ' ' << scale << ' ' << d.drain
              << ' ' << hex(d.value) << '\n';

  std::vector<Sample> untraced, traced;
  const std::int64_t deadline =
      timeline.now_ns() + static_cast<std::int64_t>(options.seconds) *
                              1'000'000'000;
  for (std::uint32_t index = 1;; ++index) {
    const bool tracing = options.trace && index % 2 == 0;
    const std::int64_t begin_ns = timeline.now_ns();
    timeline.set_recording(tracing, index);
    Sample sample = run_sample(workload, timeline, tracing, rows);
    timeline.set_recording(false, 0);
    check_sample(sample);
    (tracing ? traced : untraced).push_back(std::move(sample));
    const bool enough =
        untraced.size() >= kMinSamples &&
        (!options.trace || traced.size() >= kMinSamples);
    // Stop at the sample boundary nearest the deadline, so a run lasts
    // --seconds give or take half a sample.
    const std::int64_t now_ns = timeline.now_ns();
    if (enough && now_ns + (now_ns - begin_ns) / 2 >= deadline) break;
  }

  const std::vector<Metric> metrics =
      options.trace ? per_layer(traced, untraced, timeline)
                    : end_to_end(untraced, attempted, failed, probe_mb);
  const bool correct = failed == 0;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + metrics_json(metrics) + "}";

  const std::string metadata =
      "{\"workload\":" + json_string(workload.name) +
      ",\"scale\":" + json_string(scale) +
      ",\"seed\":" + std::to_string(workload.seed) +
      ",\"fingerprint\":" + fingerprint + "}";
  if (options.trace) {
    timeline.write_chrome_trace(trace_file, metadata);
    trace_file.close();
    if (!trace_file)
      throw std::runtime_error("writing " + trace_path + " failed");
    std::cout << "trace " << trace_path << " (" << timeline.spans().size()
              << " spans)\n";
  }
  if (result_file.is_open()) {
    result_file << "{\"run\":" << metadata << ",\"result\":" << result
                << "}\n";
    result_file.close();
    if (!result_file)
      throw std::runtime_error("writing " + options.result_out + " failed");
  }
  std::cout << "samples untraced=" << untraced.size()
            << " traced=" << traced.size() << " wall_s";
  for (const Sample& sample : untraced) std::cout << ' ' << sample.wall_s;
  std::cout << " setup_s";
  for (const Sample& sample : untraced) std::cout << ' ' << sample.setup_s;
  std::cout << " slowdown";
  for (const Sample& sample : untraced) std::cout << ' ' << sample.slowdown;
  std::cout << '\n';
  std::cout << result << std::endl;

  if (!correct) {
    std::cerr << "perfbench: " << failed << " of " << attempted
              << " drains failed their checks (workload " << workload.name
              << ", scale " << scale << ", seed " << workload.seed << ")\n";
    std::size_t shown = 0;
    for (const std::string& line : failure_lines)
      if (shown++ < 10) std::cerr << "  " << line << '\n';
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const perfbench::UsageError& error) {
    std::cerr << "perfbench: error: " << error.what() << '\n';
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: error: " << error.what() << '\n';
    return 1;
  }
}
