// Microbenchmarks of the hot substrate paths (google-benchmark). These are
// engineering benchmarks, not paper reproductions: they bound how fast the
// simulator itself can turn over rounds.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "common/crc.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "obs/stream.hpp"
#include "protocols/enhanced_hash_polling.hpp"
#include "protocols/polling_tree.hpp"
#include "protocols/tree_polling.hpp"
#include "sim/checkpoint.hpp"
#include "tags/population.hpp"

namespace {

using namespace rfid;

void BM_Xoshiro(benchmark::State& state) {
  Xoshiro256ss rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng());
}
BENCHMARK(BM_Xoshiro);

void BM_TagHash(benchmark::State& state) {
  Xoshiro256ss rng(2);
  const auto pop = tags::TagPopulation::uniform_random(1024, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tag_hash(42, pop[i & 1023].id()));
    ++i;
  }
}
BENCHMARK(BM_TagHash);

void BM_Crc16OfId(benchmark::State& state) {
  Xoshiro256ss rng(3);
  const auto pop = tags::TagPopulation::uniform_random(1024, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc16_of_id(pop[i & 1023].id()));
    ++i;
  }
}
BENCHMARK(BM_Crc16OfId);

void BM_Crc16(benchmark::State& state) {
  // 17 KiB: one 64-reader fleet checkpoint's payload.
  Xoshiro256ss rng(7);
  std::vector<std::uint8_t> bytes(17 * 1024);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) benchmark::DoNotOptimize(crc16_ccitt(bytes));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc16);

void BM_BitVecAppend(benchmark::State& state) {
  for (auto _ : state) {
    BitVec v;
    for (int i = 0; i < 1024; ++i) v.append_bits(0x5A, 8);
    benchmark::DoNotOptimize(v.size());
  }
}
BENCHMARK(BM_BitVecAppend);

void BM_PollingTreeBuild(benchmark::State& state) {
  const auto h = static_cast<unsigned>(state.range(0));
  Xoshiro256ss rng(4);
  std::vector<std::uint32_t> indices;
  const std::size_t space = std::size_t{1} << h;
  std::vector<bool> used(space, false);
  while (indices.size() < space / 3) {
    const auto idx = static_cast<std::uint32_t>(rng.below(space));
    if (!used[idx]) {
      used[idx] = true;
      indices.push_back(idx);
    }
  }
  for (auto _ : state) {
    protocols::PollingTree tree(indices, h);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(indices.size()));
}
BENCHMARK(BM_PollingTreeBuild)->Arg(8)->Arg(12)->Arg(16);

void BM_SegmentsFromIndices(benchmark::State& state) {
  const auto h = static_cast<unsigned>(state.range(0));
  Xoshiro256ss rng(5);
  std::vector<std::uint32_t> indices;
  const std::size_t space = std::size_t{1} << h;
  std::vector<bool> used(space, false);
  while (indices.size() < space / 3) {
    const auto idx = static_cast<std::uint32_t>(rng.below(space));
    if (!used[idx]) {
      used[idx] = true;
      indices.push_back(idx);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        protocols::PollingTree::segments_from_indices(indices, h));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(indices.size()));
}
BENCHMARK(BM_SegmentsFromIndices)->Arg(8)->Arg(12)->Arg(16);

void BM_TppFullSession(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256ss rng(6);
  const auto pop = tags::TagPopulation::uniform_random(n, rng);
  sim::SessionConfig config;
  config.keep_records = false;
  const protocols::Tpp tpp;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    config.seed = ++seed;
    benchmark::DoNotOptimize(tpp.run(pop, config).metrics.polls);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TppFullSession)->Arg(1000)->Arg(10000);

/// The circle sequence of a 100k EHPP drain (F = 2^20, n* from Ehpp):
/// every circle splits all n_rem unread tags' ID columns and the joiners
/// leave, as if read. Both rows report `per_visit` (seconds per tag
/// visit; the "n" suffix reads as ns). Arg 0 is the split itself
/// (simd::split_circle); arg 1 is the hash alone (simd::hash_indices)
/// over the same n_rem sequence, the floor a split can approach.
void BM_SplitCircle(benchmark::State& state) {
  constexpr std::size_t kTags = 100000;
  constexpr std::uint64_t kModulus = std::uint64_t{1} << 20;
  const bool hash_only = state.range(0) != 0;
  const std::size_t subset = protocols::Ehpp().effective_subset_size();
  const simd::Backend backend = simd::best_backend();
  Xoshiro256ss rng(9);
  std::vector<std::uint64_t> tag(kTags);
  std::vector<std::uint64_t> hi(kTags);
  std::vector<std::uint64_t> lo(kTags);
  for (std::size_t i = 0; i < kTags; ++i) {
    tag[i] = i;
    hi[i] = rng();
    lo[i] = rng() & 0xFFFFFFFFu;
  }
  std::vector<std::uint64_t> t(kTags);
  std::vector<std::uint64_t> h(kTags);
  std::vector<std::uint64_t> l(kTags);
  std::vector<std::uint64_t> out(3 * kTags);
  std::vector<std::uint32_t> index(kTags);
  // One untimed split pass fixes the n_rem sequence both rows walk.
  std::vector<std::size_t> sizes;
  {
    t = tag;
    h = hi;
    l = lo;
    std::size_t n = kTags;
    for (std::uint64_t seed = 1; n > subset; ++seed) {
      sizes.push_back(n);
      n -= simd::split_circle(seed, kModulus, kModulus * subset / n, t.data(),
                              h.data(), l.data(), n, out.data(),
                              out.data() + kTags, out.data() + 2 * kTags,
                              backend);
    }
  }
  std::size_t visits = 0;
  for (const std::size_t n : sizes) visits += n;
  for (auto _ : state) {
    state.PauseTiming();
    t = tag;
    h = hi;
    l = lo;
    state.ResumeTiming();
    std::uint64_t seed = 1;
    for (const std::size_t n : sizes) {
      if (hash_only) {
        simd::hash_indices(seed, h.data(), l.data(), index.data(), n, 20,
                           backend);
        benchmark::DoNotOptimize(index.data());
      } else {
        benchmark::DoNotOptimize(simd::split_circle(
            seed, kModulus, kModulus * subset / n, t.data(), h.data(),
            l.data(), n, out.data(), out.data() + kTags,
            out.data() + 2 * kTags, backend));
      }
      ++seed;
    }
  }
  state.counters["per_visit"] = benchmark::Counter(
      static_cast<double>(visits),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.counters["circles"] = static_cast<double>(sizes.size());
  state.SetLabel(hash_only ? "hash only" : "split");
}
BENCHMARK(BM_SplitCircle)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// A 64-reader, 8-channel fleet's telemetry, as the per-tick publish
/// folds it: every reader with live counters and phase times.
std::shared_ptr<const obs::MetricsSnapshot> fleet_snapshot() {
  constexpr std::size_t kReaders = 64;
  obs::StreamingAggregator aggregator(kReaders);
  aggregator.configure_channels(8);
  Xoshiro256ss rng(8);
  for (std::size_t r = 0; r < kReaders; ++r) {
    obs::Metrics metrics;
    metrics.polls = rng.below(20000);
    metrics.rounds = rng.below(400);
    metrics.vector_bits = rng.below(1u << 20);
    metrics.time_us = rng.uniform01() * 1e6;
    for (double& us : metrics.phases.us) us = rng.uniform01() * 1e5;
    aggregator.update_reader(r, metrics, rng.uniform01() * 1e-3);
  }
  for (std::size_t c = 0; c < 8; ++c)
    aggregator.update_channel(c, kReaders / 8, rng.below(3000),
                              rng.uniform01() * 1e6);
  return aggregator.publish(0.05);
}

void BM_CheckpointEncodeInto(benchmark::State& state) {
  sim::Checkpoint checkpoint;
  const auto snapshot = fleet_snapshot();
  for (const obs::ReaderTelemetry& reader : snapshot->readers) {
    sim::ReaderCheckpoint entry;
    entry.epochs = reader.epochs;
    entry.completed = reader.metrics;
    checkpoint.readers.push_back(entry);
  }
  std::vector<std::uint8_t> bytes;
  sim::encode_into(checkpoint, bytes);  // warm the buffer
  for (auto _ : state) {
    sim::encode_into(checkpoint, bytes);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_CheckpointEncodeInto);

void BM_SnapshotAppendJson(benchmark::State& state) {
  const auto snapshot = fleet_snapshot();
  std::string json;
  obs::append_json(json, *snapshot);  // warm the buffer
  for (auto _ : state) {
    json.clear();
    obs::append_json(json, *snapshot);
    benchmark::DoNotOptimize(json.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(json.size()));
}
BENCHMARK(BM_SnapshotAppendJson);

}  // namespace
