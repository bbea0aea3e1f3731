#include "sim/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <system_error>

#include "common/crc.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/phase_timer.hpp"

namespace rfid::sim {

namespace {

constexpr std::array<std::uint8_t, 8> kMagic = {'R', 'F', 'I', 'D',
                                                'C', 'K', 'P', 'T'};

constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8;  // magic, version, CRC, size

// Wire sizes of the fixed-shape records: 23 counters, the clock and the
// phase split per Metrics; epochs, crashes, restarts and health per reader.
constexpr std::size_t kMetricsSize = 8 * (23 + 1 + obs::kPhaseCount);
constexpr std::size_t kReaderSize = 3 * 8 + 1 + kMetricsSize;

/// Bytes encode_into() writes for `checkpoint`, header included.
std::size_t encoded_size(const Checkpoint& checkpoint) {
  std::size_t size = kHeaderSize + 4 * 8 + 4 +
                     checkpoint.readers.size() * kReaderSize + 4;
  for (const NamedRngState& stream : checkpoint.rng_streams) {
    if (stream.name.size() > 255)
      throw std::runtime_error("checkpoint: RNG stream name too long");
    size += 1 + stream.name.size() + 8 * stream.state.size();
  }
  return size;
}

/// Little-endian writer into a buffer sized up front. Each word is stored
/// byte by byte from its value (the compiler merges the stores), so the
/// format is host-endianness-independent.
class Writer final {
 public:
  explicit Writer(std::uint8_t* at) : at_(at) {}

  void u8(std::uint8_t v) { *at_++ = v; }
  void u32(std::uint32_t v) { little_endian(v, 4); }
  void u64(std::uint64_t v) { little_endian(v, 8); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void bytes(const void* data, std::size_t n) {
    std::memcpy(at_, data, n);
    at_ += n;
  }

  void metrics(const Metrics& m) {
    u64(m.polls);
    u64(m.missing);
    u64(m.corrupted);
    u64(m.retries);
    u64(m.undelivered);
    u64(m.rounds);
    u64(m.circles);
    u64(m.slots_total);
    u64(m.slots_useful);
    u64(m.slots_wasted);
    u64(m.vector_bits);
    u64(m.command_bits);
    u64(m.tag_bits);
    u64(m.segments_sent);
    u64(m.segments_corrupted);
    u64(m.segments_retransmitted);
    u64(m.downlink_corrupted);
    u64(m.degradations);
    u64(m.reader_crashes);
    u64(m.reader_stalls);
    u64(m.reader_restarts);
    u64(m.handoffs);
    u64(m.framing_overhead_bits);
    f64(m.time_us);
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) f64(m.phases.us[p]);
  }

  [[nodiscard]] const std::uint8_t* position() const noexcept { return at_; }

 private:
  void little_endian(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i)
      at_[i] = static_cast<std::uint8_t>(v >> (8 * i));
    at_ += n;
  }

  std::uint8_t* at_;
};

/// Bounds-checked little-endian reader over the payload span.
class Cursor final {
 public:
  explicit Cursor(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }

  [[nodiscard]] std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    pos_ += 8;
    return v;
  }

  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }

  [[nodiscard]] std::string str(std::size_t n) {
    need(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] bool exhausted() const noexcept {
    return pos_ == bytes_.size();
  }

 private:
  void need(std::size_t n) const {
    if (bytes_.size() - pos_ < n)
      throw std::runtime_error("checkpoint: truncated payload");
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

Metrics read_metrics(Cursor& in) {
  Metrics m;
  m.polls = in.u64();
  m.missing = in.u64();
  m.corrupted = in.u64();
  m.retries = in.u64();
  m.undelivered = in.u64();
  m.rounds = in.u64();
  m.circles = in.u64();
  m.slots_total = in.u64();
  m.slots_useful = in.u64();
  m.slots_wasted = in.u64();
  m.vector_bits = in.u64();
  m.command_bits = in.u64();
  m.tag_bits = in.u64();
  m.segments_sent = in.u64();
  m.segments_corrupted = in.u64();
  m.segments_retransmitted = in.u64();
  m.downlink_corrupted = in.u64();
  m.degradations = in.u64();
  m.reader_crashes = in.u64();
  m.reader_stalls = in.u64();
  m.reader_restarts = in.u64();
  m.handoffs = in.u64();
  m.framing_overhead_bits = in.u64();
  m.time_us = in.f64();
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) m.phases.us[p] = in.f64();
  return m;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what + ": " +
                           std::generic_category().message(errno));
}

}  // namespace

std::uint64_t fingerprint_mix(std::uint64_t h, std::uint64_t value) noexcept {
  std::uint64_t state = h ^ value;
  return splitmix64_next(state);
}

// rfidlint: hotpath(checkpoint-warm-encode)
void encode_into(const Checkpoint& checkpoint, std::vector<std::uint8_t>& out) {
  // Sized once; a warm buffer already holds this many bytes, so every byte
  // below is overwritten in place.
  // rfidlint: allow(hotpath-alloc) — warm encodes reuse `out` capacity; AllocGuard.CheckpointEncodeIntoWarmBufferAllocationFree pins the zero-alloc warm path
  out.resize(encoded_size(checkpoint));

  Writer payload{out.data() + kHeaderSize};
  payload.u64(checkpoint.config_fingerprint);
  payload.u64(checkpoint.master_seed);
  payload.u64(checkpoint.wall_unix_ms);
  payload.u64(checkpoint.epoch_target);
  payload.u32(static_cast<std::uint32_t>(checkpoint.readers.size()));
  for (const ReaderCheckpoint& reader : checkpoint.readers) {
    payload.u64(reader.epochs);
    payload.u64(reader.crashes);
    payload.u64(reader.restarts);
    payload.u8(static_cast<std::uint8_t>(reader.health));
    payload.metrics(reader.completed);
  }
  payload.u32(static_cast<std::uint32_t>(checkpoint.rng_streams.size()));
  for (const NamedRngState& stream : checkpoint.rng_streams) {
    payload.u8(static_cast<std::uint8_t>(stream.name.size()));
    payload.bytes(stream.name.data(), stream.name.size());
    for (const std::uint64_t word : stream.state) payload.u64(word);
  }
  RFID_ENSURES(payload.position() == out.data() + out.size());

  // Header last: magic, version, then the CRC and size of the payload.
  const std::span<const std::uint8_t> body{out.data() + kHeaderSize,
                                           out.size() - kHeaderSize};
  Writer header{out.data()};
  header.bytes(kMagic.data(), kMagic.size());
  header.u32(kCheckpointVersion);
  header.u32(crc16_ccitt(body));
  header.u64(body.size());
}

std::vector<std::uint8_t> encode(const Checkpoint& checkpoint) {
  std::vector<std::uint8_t> out;
  encode_into(checkpoint, out);
  return out;
}

Checkpoint decode(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderSize)
    throw std::runtime_error("checkpoint: file shorter than header");
  if (!std::equal(kMagic.begin(), kMagic.end(), bytes.begin()))
    throw std::runtime_error("checkpoint: bad magic");
  Cursor header{bytes.subspan(8, 16)};
  const std::uint32_t version = header.u32();
  if (version != kCheckpointVersion)
    throw std::runtime_error("checkpoint: unsupported version " +
                             std::to_string(version));
  const std::uint32_t stored_crc = header.u32();
  const std::uint64_t payload_size = header.u64();
  if (bytes.size() - kHeaderSize != payload_size)
    throw std::runtime_error("checkpoint: payload size mismatch");
  const std::span<const std::uint8_t> payload = bytes.subspan(kHeaderSize);
  if (crc16_ccitt(payload) != stored_crc)
    throw std::runtime_error("checkpoint: CRC mismatch (corrupt file)");

  Cursor in{payload};
  Checkpoint checkpoint;
  checkpoint.config_fingerprint = in.u64();
  checkpoint.master_seed = in.u64();
  checkpoint.wall_unix_ms = in.u64();
  checkpoint.epoch_target = in.u64();
  const std::uint32_t reader_count = in.u32();
  checkpoint.readers.reserve(reader_count);
  for (std::uint32_t r = 0; r < reader_count; ++r) {
    ReaderCheckpoint reader;
    reader.epochs = in.u64();
    reader.crashes = in.u64();
    reader.restarts = in.u64();
    const std::uint8_t health = in.u8();
    if (health >= obs::kReaderHealthCount)
      throw std::runtime_error("checkpoint: invalid reader health state");
    reader.health = static_cast<obs::ReaderHealth>(health);
    reader.completed = read_metrics(in);
    checkpoint.readers.push_back(std::move(reader));
  }
  const std::uint32_t stream_count = in.u32();
  checkpoint.rng_streams.reserve(stream_count);
  for (std::uint32_t s = 0; s < stream_count; ++s) {
    NamedRngState stream;
    stream.name = in.str(in.u8());
    for (std::uint64_t& word : stream.state) word = in.u64();
    checkpoint.rng_streams.push_back(std::move(stream));
  }
  if (!in.exhausted())
    throw std::runtime_error("checkpoint: trailing bytes after payload");
  return checkpoint;
}

void write_checkpoint_atomic(const std::string& path,
                             std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("open " + tmp);
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_errno("write " + tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  // fsync before rename: the rename must never expose a file whose bytes
  // are still in flight, or a crash between them leaves a torn checkpoint
  // under the final name — the exact failure this dance exists to prevent.
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_errno("fsync " + tmp);
  }
  if (::close(fd) != 0) throw_errno("close " + tmp);
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    throw_errno("rename " + tmp + " -> " + path);
}

std::optional<Checkpoint> load_checkpoint(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) return std::nullopt;  // fresh start
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(file),
                                  std::istreambuf_iterator<char>()};
  if (file.bad()) throw std::runtime_error("checkpoint: read failed: " + path);
  return decode(bytes);
}

}  // namespace rfid::sim
