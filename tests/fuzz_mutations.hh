/**
 * @file
 * The byte mutations the input fuzzers apply (tests/test_graph_fuzz.cpp,
 * tests/test_input_fuzz.cpp): flip a bit, insert a JSON-significant
 * byte, delete a range, truncate, turn a digit into an exponent marker,
 * duplicate a field, wrap a value in nesting. Each draw comes from the
 * caller's sim::Rng stream, so a failure reproduces from its iteration
 * alone.
 */

#ifndef HPIM_TESTS_FUZZ_MUTATIONS_HH
#define HPIM_TESTS_FUZZ_MUTATIONS_HH

#include <algorithm>
#include <iterator>
#include <string>

#include "sim/rng.hh"

namespace hpim::fuzz {

/** @return a draw in [0, @p bound), or 0 when @p bound is 0. */
inline std::size_t
pick(sim::Rng &rng, std::size_t bound)
{
    return static_cast<std::size_t>(
        rng.below(std::max<std::size_t>(bound, 1)));
}

/** Apply one random mutation to @p doc; @return its name. */
inline const char *
mutate(std::string &doc, sim::Rng &rng)
{
    static const std::string kAlphabet =
        "{}[]\":,-+.eE0123456789 \n\\tfnu";
    const std::size_t at = pick(rng, doc.size() + 1);
    switch (rng.below(7)) {
      case 0:
        if (!doc.empty())
            doc[pick(rng, doc.size())] ^= char(1u << rng.below(8));
        return "flip";
      case 1:
        doc.insert(at, 1, kAlphabet[pick(rng, kAlphabet.size())]);
        return "insert";
      case 2:
        doc.erase(std::min(at, doc.size()), 1 + pick(rng, 16));
        return "delete";
      case 3:
        doc.resize(std::min(at, doc.size()));
        return "truncate";
      case 4: {
        const std::size_t digit = doc.find_first_of("0123456789", at);
        if (digit != std::string::npos)
            doc[digit] = rng.chance(0.5) ? 'e' : 'E';
        return "digit->e";
      }
      case 5: {
        // Repeat the field after the next comma inside an object.
        const std::size_t comma = doc.find(",\"", at);
        if (comma == std::string::npos)
            return "duplicate";
        const std::size_t end = doc.find_first_of(",}", comma + 1);
        if (end == std::string::npos)
            return "duplicate";
        doc.insert(end, doc.substr(comma, end - comma));
        return "duplicate";
      }
      default: {
        // Wrap the value after the next colon in brackets; the deepest
        // choices pass the reader's nesting limit.
        static const std::size_t kDepths[] = {1,  2,  8,      63,
                                              64, 70, 100'000};
        const std::size_t colon = doc.find(':', at);
        if (colon == std::string::npos)
            return "nest";
        const std::size_t end = doc.find_first_of(",}", colon + 1);
        const std::size_t depth = kDepths[pick(rng, std::size(kDepths))];
        if (end != std::string::npos)
            doc.insert(end, depth, ']');
        doc.insert(colon + 1, depth, '[');
        return "nest";
      }
    }
}

/** Apply one to three mutations to @p doc; @return their names,
 *  joined by '+'. */
inline std::string
mutateSome(std::string &doc, sim::Rng &rng)
{
    std::string trail;
    for (std::uint64_t m = 0, n = 1 + rng.below(3); m < n; ++m)
        trail += std::string(m ? "+" : "") + mutate(doc, rng);
    return trail;
}

} // namespace hpim::fuzz

#endif // HPIM_TESTS_FUZZ_MUTATIONS_HH
