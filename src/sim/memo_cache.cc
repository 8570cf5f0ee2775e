#include "sim/memo_cache.hh"

#include <atomic>

namespace hpim::sim {

namespace {

std::atomic<bool> g_enabled{true};
std::atomic<int> g_suspended{0};

} // namespace

MemoCache &
MemoCache::instance()
{
    static MemoCache cache;
    return cache;
}

void
MemoCache::setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

bool
MemoCache::enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
MemoCache::suspend()
{
    g_suspended.fetch_add(1, std::memory_order_relaxed);
}

void
MemoCache::resume()
{
    g_suspended.fetch_sub(1, std::memory_order_relaxed);
}

bool
MemoCache::active()
{
    return enabled()
           && g_suspended.load(std::memory_order_relaxed) == 0;
}

std::shared_ptr<const void>
MemoCache::lookup(std::uint64_t key)
{
    if (!active())
        return nullptr;
    std::shared_ptr<const void> found;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto it = _entries.find(key);
        if (it != _entries.end())
            found = it->second;
    }
    if (found == nullptr)
        _misses.fetch_add(1, std::memory_order_relaxed);
    else
        _hits.fetch_add(1, std::memory_order_relaxed);
    return found;
}

std::uint64_t
MemoCache::trimLocked()
{
    std::uint64_t evicted = 0;
    while (_max_entries != 0 && _entries.size() > _max_entries) {
        _entries.erase(_insertion_order.front());
        _insertion_order.pop_front();
        ++evicted;
    }
    return evicted;
}

void
MemoCache::insert(std::uint64_t key, std::shared_ptr<const void> value)
{
    if (!active() || value == nullptr)
        return;
    std::uint64_t evicted = 0;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        // First writer wins: with several sweep workers racing, every
        // candidate value is the result of the identical computation,
        // so which one sticks cannot matter.
        if (!_entries.emplace(key, std::move(value)).second)
            return;
        _insertion_order.push_back(key);
        evicted = trimLocked();
    }
    _insertions.fetch_add(1, std::memory_order_relaxed);
    if (evicted != 0)
        _evictions.fetch_add(evicted, std::memory_order_relaxed);
}

void
MemoCache::setMaxEntries(std::size_t max)
{
    std::uint64_t evicted = 0;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _max_entries = max;
        evicted = trimLocked();
    }
    if (evicted != 0)
        _evictions.fetch_add(evicted, std::memory_order_relaxed);
}

std::size_t
MemoCache::maxEntries() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _max_entries;
}

MemoCache::Stats
MemoCache::stats() const
{
    Stats s;
    s.hits = _hits.load(std::memory_order_relaxed);
    s.misses = _misses.load(std::memory_order_relaxed);
    s.insertions = _insertions.load(std::memory_order_relaxed);
    s.evictions = _evictions.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(_mutex);
    s.entries = _entries.size();
    return s;
}

void
MemoCache::clear()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _entries.clear();
    _insertion_order.clear();
    _hits.store(0, std::memory_order_relaxed);
    _misses.store(0, std::memory_order_relaxed);
    _insertions.store(0, std::memory_order_relaxed);
    _evictions.store(0, std::memory_order_relaxed);
}

} // namespace hpim::sim
