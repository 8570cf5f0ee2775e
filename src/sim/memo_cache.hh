/**
 * @file
 * Deterministic cross-point memo cache (docs/PERFORMANCE.md).
 *
 * Sweeps re-run identical sub-simulations thousands of times: every
 * point of a fig8 or fault sweep trains one of the same five model
 * graphs (nn::buildModel), and every RC/OP variant of a fig13 point
 * re-profiles the same graph against the same CPU (rt::HeteroRuntime).
 * The cache keys such results on a canonical FNV-1a
 * hash of *all* inputs (sim/hash.hh) and reuses them on exact match
 * only, so cached and uncached runs are bit-identical by
 * construction -- a hit returns the very object an identical
 * computation produced. Entries hold whole results (a built graph, a
 * prepared profile and selection), never per-op pieces: one op's
 * analytic cost takes a few divisions, less than a lookup.
 *
 * Two rules keep that guarantee honest:
 *  - exact-match keys: every input that can influence the result is
 *    hashed (graph signature, config slice field by field); nothing
 *    is rounded or canonicalized beyond its bit pattern;
 *  - observability wins over reuse: while a TraceSession or
 *    MetricsRegistry is attached the cache is suspended, because a
 *    cache hit would skip the simulation whose trace events and
 *    counters the observer expects (obs attach()/detach() call
 *    suspend()/resume()).
 *
 * `--no-sim-cache` (harness sweeps) maps to setEnabled(false).
 */

#ifndef HPIM_SIM_MEMO_CACHE_HH
#define HPIM_SIM_MEMO_CACHE_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "sim/hash.hh"

namespace hpim::sim {

/** Process-wide memo cache for deterministic sub-simulation results. */
class MemoCache
{
  public:
    static MemoCache &instance();

    /** Master switch (the `--no-sim-cache` sweep flag clears it). */
    static void setEnabled(bool on);
    static bool enabled();

    /**
     * Suspend/resume reuse (counted; nestable). Held by obs trace
     * sessions and metrics registries for their attachment lifetime.
     */
    static void suspend();
    static void resume();

    /** True when lookups may hit: enabled and not suspended. */
    static bool active();

    /**
     * Find a cached value. @p tag names the value type ("nn.graph",
     * "rt.prepared") and is mixed into the key, so two consumers can
     * never alias each other's entries. Returns nullptr on miss or
     * when the cache is inactive.
     */
    template <typename T>
    std::shared_ptr<const T>
    find(std::uint64_t key, const char *tag)
    {
        return std::static_pointer_cast<const T>(lookup(mix(key, tag)));
    }

    /** Insert a value (no-op while inactive). */
    template <typename T>
    void
    put(std::uint64_t key, const char *tag,
        std::shared_ptr<const T> value)
    {
        insert(mix(key, tag), std::move(value));
    }

    /**
     * Bound the entry count; 0 (default) means unbounded. When full,
     * the oldest inserted entry is evicted first. Every insertion is
     * ordered, capped or not, so a cap set on a warm cache trims it
     * oldest-first at once, and lifting the cap keeps the order.
     * Eviction can only cost future hits, never change a result: a
     * hit still returns what the identical computation produced.
     */
    void setMaxEntries(std::size_t max);
    std::size_t maxEntries() const;

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        /** Always 0: no tier hits partially any more. Kept because
         *  serve `stats` (protocol v1) and perfbench report it. */
        std::uint64_t partialHits = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
    };

    Stats stats() const;

    /** Drop all entries and reset the stats (tests). */
    void clear();

  private:
    MemoCache() = default;

    static std::uint64_t mix(std::uint64_t key, const char *tag)
    { return hashString(tag, hashU64(key)); }

    std::shared_ptr<const void> lookup(std::uint64_t key);
    void insert(std::uint64_t key, std::shared_ptr<const void> value);
    /** With _mutex held: evict oldest-first down to the cap.
     *  @return how many entries went. */
    std::uint64_t trimLocked();

    mutable std::mutex _mutex;
    std::unordered_map<std::uint64_t, std::shared_ptr<const void>>
        _entries;
    /** Every key of _entries, oldest insertion first. */
    std::deque<std::uint64_t> _insertion_order;
    std::size_t _max_entries = 0;
    // Always-on counters: plain relaxed atomics so the [sweep] footer
    // and the serve stats endpoint can report cache efficacy without
    // any obs attachment (which would suspend the cache itself).
    std::atomic<std::uint64_t> _hits{0};
    std::atomic<std::uint64_t> _misses{0};
    std::atomic<std::uint64_t> _insertions{0};
    std::atomic<std::uint64_t> _evictions{0};
};

} // namespace hpim::sim

#endif // HPIM_SIM_MEMO_CACHE_HH
