// Crash-consistent checkpoint/resume: the binary codec (roundtrip, CRC
// rejection, truncation, atomic write), and the end-to-end warehouse
// invariant — killing a run at an arbitrary point and resuming from the
// last epoch-boundary checkpoint converges on byte-identical final
// metrics, with and without injected reader crashes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/warehouse.hpp"
#include "obs/stream.hpp"
#include "sim/checkpoint.hpp"

namespace rfid {
namespace {

/// A unique temp path per test; removed on destruction.
struct TempPath final {
  std::string path;
  explicit TempPath(const std::string& stem)
      : path("/tmp/rfid_ckpt_test_" + std::to_string(::getpid()) + "_" +
             stem) {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  ~TempPath() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
};

sim::Checkpoint sample_checkpoint() {
  sim::Checkpoint checkpoint;
  checkpoint.config_fingerprint = 0xFEEDFACEull;
  checkpoint.master_seed = 42;
  checkpoint.wall_unix_ms = 1754700000000ull;
  checkpoint.epoch_target = 9;
  checkpoint.readers.resize(2);
  checkpoint.readers[0].epochs = 3;
  checkpoint.readers[0].crashes = 1;
  checkpoint.readers[0].restarts = 1;
  checkpoint.readers[0].health = obs::ReaderHealth::kRecovering;
  checkpoint.readers[0].completed.rounds = 77;
  checkpoint.readers[0].completed.time_us = 123.456;
  checkpoint.readers[0].completed.phases.add(obs::Phase::kRecovery, 9.5);
  checkpoint.readers[1].epochs = 4;
  checkpoint.readers[1].completed.polls = 1234;
  checkpoint.rng_streams.push_back(
      {"churn_rng", {0x1111, 0x2222, 0x3333, 0x4444}});
  return checkpoint;
}

TEST(CheckpointCodec, EncodeDecodeRoundtrip) {
  const sim::Checkpoint original = sample_checkpoint();
  const std::vector<std::uint8_t> bytes = sim::encode(original);
  const sim::Checkpoint decoded = sim::decode(bytes);

  EXPECT_EQ(decoded.config_fingerprint, original.config_fingerprint);
  EXPECT_EQ(decoded.master_seed, original.master_seed);
  EXPECT_EQ(decoded.wall_unix_ms, original.wall_unix_ms);
  EXPECT_EQ(decoded.epoch_target, original.epoch_target);
  ASSERT_EQ(decoded.readers.size(), 2u);
  EXPECT_EQ(decoded.readers[0].epochs, 3u);
  EXPECT_EQ(decoded.readers[0].crashes, 1u);
  EXPECT_EQ(decoded.readers[0].restarts, 1u);
  EXPECT_EQ(decoded.readers[0].health, obs::ReaderHealth::kRecovering);
  EXPECT_EQ(decoded.readers[0].completed.rounds, 77u);
  EXPECT_EQ(decoded.readers[0].completed.time_us, 123.456);
  EXPECT_EQ(decoded.readers[0].completed.phases.get(obs::Phase::kRecovery),
            9.5);
  EXPECT_EQ(decoded.readers[1].completed.polls, 1234u);
  ASSERT_EQ(decoded.rng_streams.size(), 1u);
  EXPECT_EQ(decoded.rng_streams[0].name, "churn_rng");
  EXPECT_EQ(decoded.rng_streams[0].state[3], 0x4444u);

  // Re-encoding the decoded struct reproduces the exact bytes: the codec
  // loses nothing and has one canonical form.
  EXPECT_EQ(sim::encode(decoded), bytes);
}

TEST(CheckpointCodec, EncodeIntoReusesBufferAndMatchesEncode) {
  const sim::Checkpoint checkpoint = sample_checkpoint();
  std::vector<std::uint8_t> buffer;
  sim::encode_into(checkpoint, buffer);
  EXPECT_EQ(buffer, sim::encode(checkpoint));
  // Second fill into the warm buffer: same bytes, no stale suffix.
  sim::encode_into(checkpoint, buffer);
  EXPECT_EQ(buffer, sim::encode(checkpoint));
}

TEST(CheckpointCodec, WireBytesArePinned) {
  // The on-disk layout is a compatibility contract (kCheckpointVersion
  // names it): the FNV-1a digest below was taken from the byte-at-a-time
  // encoder, so any layout, endianness or CRC change fails here.
  const std::vector<std::uint8_t> bytes = sim::encode(sample_checkpoint());
  std::uint64_t fnv = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    fnv ^= b;
    fnv *= 0x100000001b3ull;
  }
  EXPECT_EQ(bytes.size(), 636u);
  EXPECT_EQ(fnv, 0xd573daaa7494bc49ull);

  // A warm buffer that last held a larger checkpoint shrinks to the same
  // bytes.
  sim::Checkpoint larger = sample_checkpoint();
  larger.readers.resize(9);
  std::vector<std::uint8_t> buffer;
  sim::encode_into(larger, buffer);
  sim::encode_into(sample_checkpoint(), buffer);
  EXPECT_EQ(buffer, bytes);
}

TEST(CheckpointCodec, CorruptionIsRefusedLoudly) {
  std::vector<std::uint8_t> bytes = sim::encode(sample_checkpoint());

  {  // Payload bit flip: CRC catches it.
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt.back() ^= 0x01;
    EXPECT_THROW((void)sim::decode(corrupt), std::runtime_error);
  }
  {  // Bad magic.
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[0] ^= 0xFF;
    EXPECT_THROW((void)sim::decode(corrupt), std::runtime_error);
  }
  {  // Unsupported version.
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[8] = 0xEE;
    EXPECT_THROW((void)sim::decode(corrupt), std::runtime_error);
  }
  // Truncation at every boundary: never a crash, never a half-restore.
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    const std::vector<std::uint8_t> truncated(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)sim::decode(truncated), std::runtime_error)
        << "truncated to " << len;
  }
}

TEST(CheckpointCodec, AtomicWriteThenLoadRoundtrips) {
  const TempPath temp("atomic");
  const sim::Checkpoint checkpoint = sample_checkpoint();
  sim::write_checkpoint_atomic(temp.path, sim::encode(checkpoint));

  const auto loaded = sim::load_checkpoint(temp.path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->config_fingerprint, checkpoint.config_fingerprint);
  EXPECT_EQ(loaded->readers.size(), 2u);
  // No .tmp file left behind after the rename.
  std::ifstream tmp(temp.path + ".tmp");
  EXPECT_FALSE(tmp.is_open());
}

TEST(CheckpointCodec, MissingFileIsAFreshStartCorruptFileIsNot) {
  const TempPath temp("missing");
  EXPECT_FALSE(sim::load_checkpoint(temp.path).has_value());

  std::ofstream out(temp.path, std::ios::binary);
  out << "definitely not a checkpoint";
  out.close();
  EXPECT_THROW((void)sim::load_checkpoint(temp.path), std::runtime_error);
}

// --- Warehouse kill/resume byte-identity ------------------------------------

/// Runs a warehouse to its per-reader epoch target and returns the final
/// metrics JSON. With `kill_after_epochs` nonzero, the run is abandoned
/// once that many total epochs completed (its state captured in
/// `checkpoint` exactly as simserved's periodic snapshot would), and the
/// caller resumes a fresh instance from it.
std::string run_to_target(const core::WarehouseConfig& config,
                          std::uint64_t kill_after_epochs,
                          sim::Checkpoint* checkpoint_out,
                          const sim::Checkpoint* resume_from) {
  obs::StreamingAggregator aggregator(config.readers);
  core::WarehouseSim warehouse(config, aggregator);
  if (resume_from != nullptr) warehouse.restore(*resume_from);
  while (!warehouse.target_reached()) {
    (void)warehouse.step();
    if (kill_after_epochs != 0 &&
        warehouse.total_epochs() >= kill_after_epochs) {
      // "SIGKILL": capture the durable state and walk away mid-run.
      if (checkpoint_out != nullptr)
        warehouse.fill_checkpoint(*checkpoint_out, /*wall_unix_ms=*/0);
      return {};
    }
  }
  std::ostringstream os;
  warehouse.write_final_metrics(os);
  return os.str();
}

TEST(CheckpointResume, KillAndResumeIsByteIdentical) {
  core::WarehouseConfig config;
  config.readers = 2;
  config.tags = 48;
  config.seed = 20260809;
  config.epoch_target = 3;

  const std::string uninterrupted = run_to_target(config, 0, nullptr, nullptr);
  ASSERT_FALSE(uninterrupted.empty());

  // Kill after 2 total epochs (mid-run: neither reader is at its target),
  // then resume a fresh process-equivalent from the checkpoint.
  sim::Checkpoint checkpoint;
  ASSERT_TRUE(run_to_target(config, 2, &checkpoint, nullptr).empty());
  EXPECT_LT(checkpoint.readers[0].epochs + checkpoint.readers[1].epochs,
            2u * config.epoch_target);
  const std::string resumed = run_to_target(config, 0, nullptr, &checkpoint);

  EXPECT_EQ(resumed, uninterrupted);
}

TEST(CheckpointResume, CrashInjectionDoesNotPerturbCompletedFolds) {
  // The whole design hinges on this: epoch session seeds exclude the
  // attempt counter, so a run whose readers crash and replay epochs folds
  // the exact same completed metrics as a crash-free run.
  core::WarehouseConfig clean;
  clean.readers = 2;
  clean.tags = 48;
  clean.seed = 7;
  clean.epoch_target = 4;

  core::WarehouseConfig crashy = clean;
  crashy.crash_every_epochs = 2;  // crashes are frequent, not rare

  const std::string clean_run = run_to_target(clean, 0, nullptr, nullptr);
  const std::string crashy_run = run_to_target(crashy, 0, nullptr, nullptr);
  EXPECT_EQ(crashy_run, clean_run);
}

TEST(CheckpointResume, KillAndResumeWithCrashesIsByteIdentical) {
  core::WarehouseConfig config;
  config.readers = 3;
  config.tags = 32;
  config.seed = 99;
  config.epoch_target = 3;
  config.crash_every_epochs = 2;

  const std::string uninterrupted = run_to_target(config, 0, nullptr, nullptr);
  sim::Checkpoint checkpoint;
  ASSERT_TRUE(run_to_target(config, 4, &checkpoint, nullptr).empty());
  const std::string resumed = run_to_target(config, 0, nullptr, &checkpoint);
  EXPECT_EQ(resumed, uninterrupted);
}

TEST(CheckpointResume, MismatchedConfigIsRefused) {
  core::WarehouseConfig config;
  config.readers = 2;
  config.tags = 32;
  config.seed = 5;
  config.epoch_target = 1;

  sim::Checkpoint checkpoint;
  {
    obs::StreamingAggregator aggregator(config.readers);
    core::WarehouseSim warehouse(config, aggregator);
    warehouse.fill_checkpoint(checkpoint, 0);
  }

  // Different seed -> different fingerprint -> refused.
  core::WarehouseConfig other = config;
  other.seed = 6;
  obs::StreamingAggregator aggregator(other.readers);
  core::WarehouseSim warehouse(other, aggregator);
  EXPECT_THROW(warehouse.restore(checkpoint), std::runtime_error);

  // Same config but a different epoch target is fine: the fingerprint
  // covers what shapes the folds, not the stopping condition.
  core::WarehouseConfig extended = config;
  extended.epoch_target = 3;
  obs::StreamingAggregator aggregator2(extended.readers);
  core::WarehouseSim warehouse2(extended, aggregator2);
  EXPECT_NO_THROW(warehouse2.restore(checkpoint));
}

TEST(CheckpointResume, RestorePushesStateIntoTheAggregator) {
  core::WarehouseConfig config;
  config.readers = 2;
  config.tags = 32;
  config.seed = 3;
  config.epoch_target = 2;

  sim::Checkpoint checkpoint;
  {
    obs::StreamingAggregator aggregator(config.readers);
    core::WarehouseSim warehouse(config, aggregator);
    while (!warehouse.target_reached()) (void)warehouse.step();
    warehouse.fill_checkpoint(checkpoint, 0);
  }

  obs::StreamingAggregator aggregator(config.readers);
  core::WarehouseSim warehouse(config, aggregator);
  warehouse.restore(checkpoint);
  const auto snapshot = aggregator.publish(0.1);
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->readers[0].epochs, 2u);
  EXPECT_EQ(snapshot->readers[1].epochs, 2u);
  EXPECT_EQ(snapshot->totals.rounds,
            checkpoint.readers[0].completed.rounds +
                checkpoint.readers[1].completed.rounds);
}

}  // namespace
}  // namespace rfid
