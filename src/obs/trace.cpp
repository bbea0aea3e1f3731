#include "obs/trace.hpp"

#include <array>
#include <ostream>
#include <stdexcept>

#include "common/format.hpp"

namespace rfid::obs {

namespace {

constexpr std::array<std::string_view, kEventKindCount> kKindNames{
    "reader_broadcast", "poll",        "reply",
    "timeout",          "corrupted",   "slot_empty",
    "slot_collision",   "round_begin", "circle_begin",
    "segment_corrupted", "degrade",
};

}  // namespace

std::string_view to_string(EventKind kind) noexcept {
  return kKindNames[static_cast<std::size_t>(kind)];
}

bool parse_event_kind(std::string_view name, EventKind& out) noexcept {
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (kKindNames[i] == name) {
      out = static_cast<EventKind>(i);
      return true;
    }
  }
  return false;
}

// --- RingBufferSink ---------------------------------------------------------

RingBufferSink::RingBufferSink(std::size_t capacity)
    : buffer_(capacity == 0 ? 1 : capacity) {}

void RingBufferSink::on_event(const Event& event) {
  buffer_[head_] = event;
  head_ = (head_ + 1) % buffer_.size();
  if (size_ < buffer_.size()) ++size_;
  ++seen_;
  sum_vector_bits_ += event.vector_bits;
  sum_command_bits_ += event.command_bits;
  sum_tag_bits_ += event.tag_bits;
  sum_us_ += event.duration_us;
}

std::vector<Event> RingBufferSink::snapshot() const {
  std::vector<Event> out;
  out.reserve(size_);
  // Oldest element sits at head_ once the buffer has wrapped, at 0 before.
  const std::size_t start = size_ == buffer_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i)
    out.push_back(buffer_[(start + i) % buffer_.size()]);
  return out;
}

// --- JsonlSink --------------------------------------------------------------

JsonlSink::JsonlSink(std::ostream& os) : os_(&os) { write_meta(); }

JsonlSink::JsonlSink(const std::string& path) : file_(path), os_(&file_) {
  if (!file_.is_open())
    throw std::runtime_error("JsonlSink: cannot open " + path);
  write_meta();
}

void JsonlSink::write_meta() {
  *os_ << R"({"type":"meta","schema":"rfid-trace","version":2})" << '\n';
}

void JsonlSink::on_event(const Event& event) {
  // Precision-17 doubles round-trip, so a replay sums to the same clock.
  constexpr int kDigits = 17;
  *os_ << R"({"type":"event","event":")" << to_string(event.kind)
       << R"(","round":)" << event.round << R"(,"circle":)" << event.circle
       << R"(,"vector_bits":)" << event.vector_bits << R"(,"command_bits":)"
       << event.command_bits << R"(,"tag_bits":)" << event.tag_bits
       << R"(,"time_us":)" << format_double(event.time_us, kDigits)
       << R"(,"duration_us":)" << format_double(event.duration_us, kDigits)
       << R"(,"reader_us":)" << format_double(event.reader_us, kDigits)
       << R"(,"tag_us":)" << format_double(event.tag_us, kDigits)
       << R"(,"detail":)" << event.detail << "}\n";
}

void JsonlSink::on_finish() { os_->flush(); }

}  // namespace rfid::obs
