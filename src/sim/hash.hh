/**
 * @file
 * Deterministic non-cryptographic hashing (FNV-1a).
 *
 * One shared primitive for every subsystem that needs a stable,
 * platform-independent 64-bit digest: the sweep journal's grid/point
 * hashes, the seed of nn::Graph signatures (Graph::add folds each op
 * in whole words, nn/graph.cc) and the sim::MemoCache keys. All of
 * them must produce the same value across runs, jobs counts and
 * machines, which rules out std::hash.
 */

#ifndef HPIM_SIM_HASH_HH
#define HPIM_SIM_HASH_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace hpim::sim {

constexpr std::uint64_t fnvOffsetBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t fnvPrime = 0x100000001b3ULL;

/** FNV-1a over raw bytes, continuing from @p seed. */
inline std::uint64_t
hashBytes(const void *data, std::size_t size,
          std::uint64_t seed = fnvOffsetBasis)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= fnvPrime;
    }
    return hash;
}

/** hashBytes over a string's characters. */
inline std::uint64_t
hashString(std::string_view text, std::uint64_t seed = fnvOffsetBasis)
{
    return hashBytes(text.data(), text.size(), seed);
}

/** hashBytes over one little-endian 64-bit word. */
inline std::uint64_t
hashU64(std::uint64_t value, std::uint64_t seed = fnvOffsetBasis)
{
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<unsigned char>(value >> (8 * i));
    return hashBytes(bytes, sizeof bytes, seed);
}

/** hashU64 over a double's bit pattern (distinguishes -0.0 / 0.0). */
inline std::uint64_t
hashDouble(double value, std::uint64_t seed = fnvOffsetBasis)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    return hashU64(bits, seed);
}

} // namespace hpim::sim

#endif // HPIM_SIM_HASH_HH
