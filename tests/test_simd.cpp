// The SIMD wrapper's determinism contract (common/simd.hpp), gated in the
// main suite (ctest label `static`).
//
// The lane→tag rule says every kernel output depends only on the per-tag
// inputs, never on the backend or its vector width — so the scalar
// reference and the best compiled-in backend must agree bit-for-bit, and
// the clean-round fast path built on the kernels must be invisible in the
// simulation metrics. The population sizes pin the lane-tail edge cases:
// 0, 1, width-1 (pure tail), width (pure vector), width+1 (vector + tail).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "fault/recovery.hpp"
#include "protocols/hash_polling.hpp"
#include "protocols/round_engine.hpp"
#include "sim/session.hpp"
#include "tags/population.hpp"

namespace rfid {
namespace {

std::vector<std::size_t> lane_tail_sizes() {
  const std::size_t w = simd::lanes();
  std::vector<std::size_t> sizes{0, 1};
  if (w > 1) {
    sizes.push_back(w - 1);
    sizes.push_back(w);
    sizes.push_back(w + 1);
  }
  sizes.push_back(4 * w + 3);  // several full vectors plus a ragged tail
  sizes.push_back(1000);
  return sizes;
}

TEST(SimdKernels, BestBackendIsCompiledInAndNamed) {
  const simd::Backend best = simd::best_backend();
  EXPECT_GE(simd::lanes(), 1u);
  EXPECT_STRNE(simd::backend_name(best), "");
}

TEST(SimdKernels, HashIndicesMatchScalarAtLaneTails) {
  Xoshiro256ss rng(20260809);
  for (const std::size_t n : lane_tail_sizes()) {
    std::vector<std::uint64_t> id_hi(n);
    std::vector<std::uint64_t> id_lo(n);
    for (std::size_t i = 0; i < n; ++i) {
      id_hi[i] = rng();
      id_lo[i] = rng();
    }
    for (const unsigned h : {0u, 1u, 5u, 12u, 30u}) {
      const std::uint64_t seed = rng();
      std::vector<std::uint32_t> scalar(n, 0xDEADBEEF);
      std::vector<std::uint32_t> vec(n, 0xFEEDFACE);
      simd::hash_indices(seed, id_hi.data(), id_lo.data(), scalar.data(), n,
                         h, simd::Backend::kScalar);
      simd::hash_indices(seed, id_hi.data(), id_lo.data(), vec.data(), n, h,
                         simd::best_backend());
      EXPECT_EQ(scalar, vec) << "n=" << n << " h=" << h;
      for (const std::uint32_t idx : scalar)
        EXPECT_LT(idx, 1ull << h) << "n=" << n << " h=" << h;
    }
  }
}

TEST(SimdKernels, CountSingletonsMatchesScalar) {
  Xoshiro256ss rng(424242);
  for (const std::size_t f :
       {std::size_t{0}, std::size_t{1}, std::size_t{15}, std::size_t{16},
        std::size_t{17}, std::size_t{1024}}) {
    std::vector<std::uint32_t> counts(f);
    for (auto& c : counts) c = static_cast<std::uint32_t>(rng() % 4);
    EXPECT_EQ(simd::count_singletons(counts.data(), f, simd::Backend::kScalar),
              simd::count_singletons(counts.data(), f, simd::best_backend()))
        << "f=" << f;
  }
}

TEST(SimdKernels, CompactNonsingletonsMatchesScalarAndKeepsOrder) {
  Xoshiro256ss rng(777);
  for (const std::size_t n : lane_tail_sizes()) {
    const std::size_t f = 16;
    std::vector<std::uint32_t> slot(n);
    std::vector<std::uint32_t> counts(f, 0);
    std::vector<std::uint64_t> a(n);
    std::vector<std::uint64_t> b(n);
    std::vector<std::uint64_t> c(n);
    for (std::size_t i = 0; i < n; ++i) {
      slot[i] = static_cast<std::uint32_t>(rng() % f);
      ++counts[slot[i]];
      a[i] = i;  // ascending payloads make order violations visible
      b[i] = rng();
      c[i] = rng();
    }
    auto a2 = a;
    auto b2 = b;
    auto c2 = c;
    const std::size_t kept_scalar =
        simd::compact_nonsingletons(counts.data(), slot.data(), a.data(),
                                    b.data(), c.data(), n,
                                    simd::Backend::kScalar);
    const std::size_t kept_vec =
        simd::compact_nonsingletons(counts.data(), slot.data(), a2.data(),
                                    b2.data(), c2.data(), n,
                                    simd::best_backend());
    ASSERT_EQ(kept_scalar, kept_vec) << "n=" << n;
    for (std::size_t i = 0; i < kept_scalar; ++i) {
      EXPECT_EQ(a[i], a2[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(b[i], b2[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(c[i], c2[i]) << "n=" << n << " i=" << i;
    }
    for (std::size_t i = 1; i < kept_scalar; ++i)
      EXPECT_LT(a[i - 1], a[i]) << "order not preserved at n=" << n;
  }
}

TEST(SimdKernels, SplitCircleMatchesScalarAndKeepsOrder) {
  // EHPP's circle split, scalar reference vs best backend, for
  // power-of-two F (shift-compare residue) and prime F (exact `%`), with
  // empty (f = 0), full (f >= F) and fractional thresholds. The tiny
  // moduli make residue == f common, pinning the strict `<`; F = 1 and
  // f >= F take the constant join mask, F = 2 and 2^30 the widest and
  // narrowest shifts, f = F - 1 the largest shifted bound. f = F/40 is
  // the sparse case: at n = 1000 join-free blocks follow the first join,
  // so the whole-block move runs with the kept cursor behind the read
  // cursor. Both sides must also match the membership rule evaluated
  // straight off tag_hash_words.
  Xoshiro256ss rng(13579);
  const std::size_t w = simd::lanes();
  for (const std::size_t n : lane_tail_sizes()) {
    for (const std::uint64_t modulus :
         {std::uint64_t{1} << 20, std::uint64_t{1000003}, std::uint64_t{8},
          std::uint64_t{7}, std::uint64_t{1}, std::uint64_t{2},
          std::uint64_t{1} << 30}) {
      for (const std::uint64_t threshold :
           {std::uint64_t{0}, modulus / 3, modulus / 40, modulus - 1,
            modulus, modulus + 1, UINT64_MAX}) {
        const std::uint64_t seed = rng() & 0xFFFFFFFFFFFFull;
        std::vector<std::uint64_t> tag(n);
        std::vector<std::uint64_t> hi(n);
        std::vector<std::uint64_t> lo(n);
        std::vector<std::uint64_t> want_joined;
        std::vector<std::uint64_t> want_kept;
        for (std::size_t i = 0; i < n; ++i) {
          tag[i] = i;  // ascending payloads make order violations visible
          hi[i] = rng();
          lo[i] = rng() & 0xFFFFFFFFu;
          const bool joins =
              tag_hash_words(seed, hi[i], lo[i]) % modulus < threshold;
          (joins ? want_joined : want_kept).push_back(i);
        }
        const auto split = [&](simd::Backend backend) {
          std::vector<std::uint64_t> t = tag;
          std::vector<std::uint64_t> h = hi;
          std::vector<std::uint64_t> l = lo;
          std::vector<std::uint64_t> ot(n);
          std::vector<std::uint64_t> oh(n);
          std::vector<std::uint64_t> ol(n);
          const std::size_t joined =
              simd::split_circle(seed, modulus, threshold, t.data(), h.data(),
                                 l.data(), n, ot.data(), oh.data(), ol.data(),
                                 backend);
          for (auto* column : {&t, &h, &l}) column->resize(n - joined);
          for (auto* column : {&ot, &oh, &ol}) column->resize(joined);
          return std::vector<std::vector<std::uint64_t>>{t, h, l, ot, oh, ol};
        };
        const auto scalar = split(simd::Backend::kScalar);
        const auto vec = split(simd::best_backend());
        const std::string where = "n=" + std::to_string(n) +
                                  " F=" + std::to_string(modulus) +
                                  " f=" + std::to_string(threshold);
        EXPECT_EQ(scalar, vec) << where;
        EXPECT_EQ(scalar[0], want_kept) << where;
        EXPECT_EQ(scalar[3], want_joined) << where;
        for (std::size_t i = 0; i < want_joined.size(); ++i) {
          EXPECT_EQ(scalar[4][i], hi[want_joined[i]]) << where;
          EXPECT_EQ(scalar[5][i], lo[want_joined[i]]) << where;
        }
        for (std::size_t i = 0; i < want_kept.size(); ++i) {
          EXPECT_EQ(scalar[1][i], hi[want_kept[i]]) << where;
          EXPECT_EQ(scalar[2][i], lo[want_kept[i]]) << where;
        }
        if (threshold == 0) {
          EXPECT_TRUE(want_joined.empty()) << where;
        }
        if (threshold >= modulus) {
          EXPECT_TRUE(want_kept.empty()) << where;
        }
        if (n == 1000 && modulus == std::uint64_t{1} << 20 &&
            threshold == modulus / 40) {
          // The sparse case really has a join-free block after the
          // first join.
          ASSERT_FALSE(want_joined.empty()) << where;
          std::vector<bool> block_joins(n / w, false);
          for (const std::uint64_t i : want_joined)
            if (i / w < block_joins.size()) block_joins[i / w] = true;
          const std::size_t first = want_joined.front() / w;
          bool free_after_first = false;
          for (std::size_t b = first + 1; b < block_joins.size(); ++b)
            free_after_first = free_after_first || !block_joins[b];
          EXPECT_TRUE(free_after_first) << where;
        }
      }
    }
  }
}

TEST(SimdKernels, SplitCircleZeroModulusReducesToZero) {
  // F = 0 maps every hash to residue 0, as tag_index_mod does: everyone
  // joins iff f > 0.
  for (const simd::Backend backend :
       {simd::Backend::kScalar, simd::best_backend()}) {
    std::vector<std::uint64_t> tag{1, 2, 3};
    std::vector<std::uint64_t> hi{4, 5, 6};
    std::vector<std::uint64_t> lo{7, 8, 9};
    std::vector<std::uint64_t> out(9);
    EXPECT_EQ(simd::split_circle(1, 0, 0, tag.data(), hi.data(), lo.data(), 3,
                                 out.data(), out.data() + 3, out.data() + 6,
                                 backend),
              0u);
    EXPECT_EQ(simd::split_circle(1, 0, 1, tag.data(), hi.data(), lo.data(), 3,
                                 out.data(), out.data() + 3, out.data() + 6,
                                 backend),
              3u);
    EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
  }
}

/// Drains a fresh HPP session and returns its metrics, pinning the kernel
/// backend the engine uses.
sim::Metrics drain_hpp(std::size_t n, std::uint64_t seed,
                       simd::Backend backend, bool keep_records) {
  Xoshiro256ss rng(seed);
  const auto pop = tags::TagPopulation::uniform_random(n, rng);
  sim::SessionConfig config;
  config.seed = seed ^ 0x9E3779B97F4A7C15ull;
  config.keep_records = keep_records;
  sim::Session session(pop, config);
  tags::TagSoA active = protocols::make_devices(session);
  fault::RecoveryCoordinator recovery(config.recovery);
  protocols::RoundEngine engine(session, recovery);
  engine.set_hash_backend(backend);
  protocols::HppRoundPolicy policy{protocols::HppRoundConfig{}};
  engine.run_rounds(active, policy);
  return session.metrics();
}

void expect_identical(const sim::Metrics& x, const sim::Metrics& y) {
  EXPECT_EQ(x.polls, y.polls);
  EXPECT_EQ(x.rounds, y.rounds);
  EXPECT_EQ(x.vector_bits, y.vector_bits);
  EXPECT_EQ(x.command_bits, y.command_bits);
  EXPECT_EQ(x.tag_bits, y.tag_bits);
  EXPECT_EQ(x.slots_wasted, y.slots_wasted);
  // Bit-exact, not approximately equal: the batched fast path must replay
  // the per-poll floating-point accumulation in the same order.
  EXPECT_EQ(x.time_us, y.time_us);
}

TEST(SimdEngine, BackendIsInvisibleInMetricsAtLaneTails) {
  for (const std::size_t n : lane_tail_sizes()) {
    const auto scalar =
        drain_hpp(n, 31337 + n, simd::Backend::kScalar, false);
    const auto vec = drain_hpp(n, 31337 + n, simd::best_backend(), false);
    expect_identical(scalar, vec);
  }
}

TEST(SimdEngine, CleanFastPathIsInvisibleInMetrics) {
  // keep_records=true forces the per-poll dispatch (records need per-poll
  // output); keep_records=false takes the batched clean-round fast path.
  // Everything the two paths account — polls, bits, wall-clock — must be
  // bit-identical.
  for (const std::size_t n : lane_tail_sizes()) {
    const auto slow = drain_hpp(n, 90210 + n, simd::best_backend(), true);
    const auto fast = drain_hpp(n, 90210 + n, simd::best_backend(), false);
    expect_identical(slow, fast);
  }
}

}  // namespace
}  // namespace rfid
