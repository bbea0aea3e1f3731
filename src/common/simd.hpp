// Portable batched kernels for the hash-polling hot path.
//
// The per-round work every protocol in the family shares — computing
// H(r, id) for all awake tags and sifting the bucket histogram for
// singletons — is data-parallel over the structure-of-arrays population
// view (tags::TagSoA). This wrapper exposes that work as flat-array
// kernels with four backends: a scalar reference, AVX-512 (8 × 64-bit
// lanes), AVX2 (4 × 64-bit lanes), and NEON (2 × 64-bit lanes). Vector
// backends are compiled in at configure time via the RFID_SIMD CMake
// option; among the compiled-in backends the widest one the *running* CPU
// supports is picked at startup (best_backend), so one binary is safe on
// any machine of its architecture. The implementation lives in simd.cpp —
// the only translation unit containing vector intrinsics (each kernel
// carries its own `target` attribute) — so the rest of the build is
// bit-for-bit independent of the option.
//
// Lane→tag determinism rule: out[i] depends ONLY on (seed, id_hi[i],
// id_lo[i], h) — or, for the circle split, whether element i joins
// depends only on (seed, id_hi[i], id_lo[i], F, f) — never on the lane
// position, the vector width, or a neighbouring element. Every backend
// evaluates the exact scalar chain rfid::tag_hash_words lane-by-lane, so
// scalar and SIMD builds (and any future wider backend) produce
// byte-identical simulation results. The scalar/SIMD cross-check in CI and
// tests/test_simd.cpp enforce this.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rfid::simd {

enum class Backend : std::uint8_t { kScalar, kAvx2, kAvx512, kNeon };

[[nodiscard]] constexpr const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kAvx512:
      return "avx512";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kNeon:
      return "neon";
    case Backend::kScalar:
      return "scalar";
  }
  return "scalar";
}

/// The widest backend this build compiled in AND the running CPU supports
/// (kScalar when RFID_SIMD is OFF or neither holds). Constant for the
/// process lifetime, so callers may cache it.
[[nodiscard]] Backend best_backend() noexcept;

/// 64-bit lanes of best_backend(): 8 (AVX-512), 4 (AVX2), 2 (NEON),
/// 1 (scalar). Tests use this to pin the lane-tail edge cases
/// (n = width ± 1).
[[nodiscard]] std::size_t lanes() noexcept;

/// Batched H(r, id) index pick: out[i] = tag_hash_words(seed, id_hi[i],
/// id_lo[i]) >> (64 - h) for all i < n (h == 0 yields index 0), exactly
/// the scalar tag_index_pow2 per element. Requesting a backend that is
/// not compiled in (or not supported by the running CPU) falls back to
/// the scalar reference — same results by the lane→tag rule above, only
/// slower.
void hash_indices(std::uint64_t seed, const std::uint64_t* id_hi,
                  const std::uint64_t* id_lo, std::uint32_t* out,
                  std::size_t n, unsigned h, Backend backend);

/// Number of buckets with exactly one occupant in counts[0..f): the
/// singleton polls a clean round will issue.
[[nodiscard]] std::size_t count_singletons(const std::uint32_t* counts,
                                           std::size_t f, Backend backend);

/// In-place stable compaction of three parallel 64-bit columns: element i
/// survives iff counts[slot[i]] != 1 (its bucket was not a singleton).
/// Survivors keep their relative order; returns the surviving count. The
/// keep decision depends only on counts[slot[i]], so every backend keeps
/// exactly the same elements in the same order (AVX-512 uses masked
/// compress stores; backends without compress fall back to the scalar
/// reference). The columns are opaque 64-bit payloads — TagSoA passes its
/// Tag-pointer column reinterpreted as u64, which the kernels only ever
/// copy, never interpret.
std::size_t compact_nonsingletons(const std::uint32_t* counts,
                                  const std::uint32_t* slot,
                                  std::uint64_t* col_a, std::uint64_t* col_b,
                                  std::uint64_t* col_c, std::size_t n,
                                  Backend backend);

/// EHPP's circle split (paper §III-D): element i joins the circle iff
/// tag_hash_words(seed, col_hi[i], col_lo[i]) mod `modulus` < `threshold`
/// (a zero modulus reduces to 0, as rfid::tag_index_mod does). Joiners are
/// copied, in order, to out_tag/out_hi/out_lo[0..joined); non-joiners are
/// compacted in place, in order, to col_*[0..n - joined). Returns the
/// joined count. The out columns need room for n elements and must not
/// overlap the inputs; elements of either side past its count are
/// unspecified. For a power-of-two modulus 2^k the AVX-512 kernel tests
/// the residue exactly by shift-compare, (hash << (64 - k)) <
/// (f << (64 - k)), without leaving the vector unit; a modulus of 0 or 1,
/// or f >= F, makes membership constant and skips the hash. Any other
/// modulus is reduced with `%` per element. Membership of element i
/// depends only on (seed, col_hi[i], col_lo[i], modulus, threshold), so
/// every backend splits identically (AVX-512 hashes eight lanes,
/// compresses each side in registers and stores whole vectors; the others
/// run the scalar reference). The tag column is an opaque 64-bit payload,
/// as in compact_nonsingletons.
std::size_t split_circle(std::uint64_t seed, std::uint64_t modulus,
                         std::uint64_t threshold, std::uint64_t* col_tag,
                         std::uint64_t* col_hi, std::uint64_t* col_lo,
                         std::size_t n, std::uint64_t* out_tag,
                         std::uint64_t* out_hi, std::uint64_t* out_lo,
                         Backend backend);

}  // namespace rfid::simd
