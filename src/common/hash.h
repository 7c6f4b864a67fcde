// Hash combination helpers (header-only).

#ifndef TREX_COMMON_HASH_H_
#define TREX_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

namespace trex {

/// Mixes `value` into `seed` (boost::hash_combine-style with a 64-bit
/// golden-ratio constant).
inline std::size_t HashCombine(std::size_t seed, std::size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Hashes any std::hash-able value into `seed`.
template <typename T>
std::size_t HashMix(std::size_t seed, const T& value) {
  return HashCombine(seed, std::hash<T>{}(value));
}

/// FNV-1a over raw bytes; stable across runs (unlike some std::hash
/// implementations in principle), used for table fingerprints. Named
/// distinctly from the string_view overload so that `Fnv1a("x", seed)`
/// can never resolve the seed into the length parameter.
inline std::uint64_t Fnv1aBytes(const void* data, std::size_t len,
                                std::uint64_t seed = 0xcbf29ce484222325ULL) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline std::uint64_t Fnv1a(std::string_view s,
                           std::uint64_t seed = 0xcbf29ce484222325ULL) {
  return Fnv1aBytes(s.data(), s.size(), seed);
}

}  // namespace trex

#endif  // TREX_COMMON_HASH_H_
