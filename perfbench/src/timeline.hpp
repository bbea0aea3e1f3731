// Host-time spans recorded around the benchmark's calls into the simulator.
//
// Every layer call the benchmark makes is wrapped in a Scope. A Scope always
// measures its elapsed host time (the end-to-end metrics need it on untraced
// runs too); when the Timeline is recording it also keeps a span — name,
// start, end, and the enclosing span that caused it — in memory. The spans
// are written out as one Chrome trace-event file when the run ends, so the
// recording itself costs a vector push per call and no I/O.
//
// Span names are "<layer>.<call>" for calls into the simulator, and
// "bench.<what>" for the benchmark's own bookkeeping (checks, releases,
// replay set-up), which counts as uncovered time. Replays and host-speed
// probes ("bench.replay", "bench.probe") are outside the sample's wall.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span final {
  const char* name = "";  ///< a string literal: spans outlive no Scope names
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into Timeline::spans(); -1 = root
  std::uint32_t sample = 0;  ///< the traced sample the span belongs to
};

/// True for the benchmark's own bookkeeping spans ("bench." names).
[[nodiscard]] inline bool is_bookkeeping(std::string_view name) noexcept {
  return name.starts_with("bench.");
}

/// True for the spans whose time is taken out of the sample's wall.
[[nodiscard]] inline bool is_outside_wall(std::string_view name) noexcept {
  return name == "bench.replay" || name == "bench.probe";
}

class Timeline final {
 public:
  /// Spans opened from now on are kept (recording) or only timed (not).
  void set_recording(bool on, std::uint32_t sample) noexcept {
    recording_ = on;
    sample_ = sample;
  }
  [[nodiscard]] bool recording() const noexcept { return recording_; }

  /// Host nanoseconds since the Timeline was created.
  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  [[nodiscard]] std::int32_t open(const char* name, std::int64_t begin_ns);
  void close(std::int32_t id, std::int64_t end_ns);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time of every span: its duration minus the part its direct
  /// children cover (children never overlap: the benchmark is serial).
  [[nodiscard]] std::vector<std::int64_t> self_times_ns() const;

  /// Chrome trace-event JSON ("X" complete events, microsecond timestamps);
  /// `metadata_json` is an object placed under "otherData".
  void write_chrome_trace(std::ostream& os,
                          const std::string& metadata_json) const;

 private:
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
  bool recording_ = false;
  std::uint32_t sample_ = 0;
};

/// Times one call into a layer, and records it as a span when the timeline
/// is recording. stop() ends the span early and returns the elapsed seconds.
class Scope final {
 public:
  Scope(Timeline& timeline, const char* name)
      : timeline_(timeline), begin_ns_(timeline.now_ns()) {
    if (timeline.recording()) id_ = timeline.open(name, begin_ns_);
  }
  ~Scope() { (void)stop(); }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  double stop() noexcept {
    if (end_ns_ < 0) {
      end_ns_ = timeline_.now_ns();
      if (id_ >= 0) timeline_.close(id_, end_ns_);
    }
    return static_cast<double>(end_ns_ - begin_ns_) * 1e-9;
  }

 private:
  Timeline& timeline_;
  std::int64_t begin_ns_;
  std::int64_t end_ns_ = -1;
  std::int32_t id_ = -1;
};

}  // namespace perfbench
