/**
 * @file
 * The executor's event core: typed events in one binary min-heap of
 * plain entries, and the fixed pool's re-armable slot beside it.
 *
 * An event is data, not code: a kind, the op it concerns and a small
 * payload. rt::Executor pops one at a time and switches on the kind.
 * Events run in (tick, rank, sequence) order: at one tick a lower rank
 * runs first, then the earlier push or arming. That order is strict
 * and total, so it never depends on the heap's layout.
 *
 * The pool slot holds the one pending pool event. Arming it again
 * replaces its time and disarming clears it, so nothing is ever
 * descheduled, the heap holds no stale entry, and every pop runs.
 */

#ifndef HPIM_RT_EVENT_HEAP_HH
#define HPIM_RT_EVENT_HEAP_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "nn/graph.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"

namespace hpim::rt {

/** One op of one training step of one workload. */
struct OpKey
{
    std::uint32_t workload;
    std::uint32_t step;
    hpim::nn::OpId op;
};

/**
 * One scheduled event. Each kind's comment names the payload it
 * reads; every other field stays at its default.
 */
struct Event
{
    enum class Kind : std::uint8_t
    {
        /** A CPU op ends: startSec, spanSec. */
        CpuDone,
        /** A programmable-PIM op ends: startSec, spanSec; flag: its
         *  result failed verification. */
        ProgrDone,
        /** The watchdog frees a stalled programmable PIM: startSec,
         *  spanSec. */
        ProgrStall,
        /** An RC op's control part ends: startSec, spanSec. */
        RcControlDone,
        /** The watchdog frees a stalled RC control kernel: startSec,
         *  spanSec. */
        RcStall,
        /** A host-driven op's CPU part ends: startSec, spanSec. */
        HostDrivenDone,
        /** A fixed-pool op's phase starts after the kernel-spawn
         *  latency: a tree units, b trees at most; flag: the attempt
         *  faults. */
        FixedLaunch,
        /** A failed op is ready again after its backoff. */
        Retry,
        /** Bank a fails permanently. */
        BankKill,
        /** Throttle window a starts (flag) or ends. */
        Throttle,
        /** The pool slot: the earliest pool phase is due. */
        Pool,
    };

    /**
     * Same-tick rank of @p kind; lower runs first. Completions and
     * stalls free devices before the launches, bank kills and
     * throttle toggles of their tick run, and retries come last.
     */
    static constexpr std::uint64_t
    rank(Kind kind)
    {
        switch (kind) {
          case Kind::FixedLaunch:
          case Kind::BankKill:
          case Kind::Throttle:
            return 1;
          case Kind::Retry:
            return 2;
          default:
            return 0;
        }
    }

    OpKey key{};
    Kind kind = Kind::Pool;
    bool flag = false;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    double startSec = 0.0;
    double spanSec = 0.0;
};

/** The pending events, the pool slot and the clock. */
class EventHeap
{
  public:
    /** @return the tick of the last pop (0 before the first). */
    hpim::sim::Tick now() const { return _now; }

    /** @return events popped so far, pool pops included. */
    std::uint64_t popped() const { return _popped; }

    /** Schedule @p event at @p tick; panic()s if @p tick is past. */
    void
    push(hpim::sim::Tick tick, const Event &event)
    {
        panic_if(tick < _now, "scheduling an event in the past: ", tick,
                 " < now ", _now);
        _heap.push_back(Entry{tick, order(event.kind), event});
        std::push_heap(_heap.begin(), _heap.end(), later);
    }

    /**
     * Arm the pool slot at @p tick, replacing its pending time if it
     * has one. It takes the next sequence number, as a push would.
     */
    void
    armPool(hpim::sim::Tick tick)
    {
        panic_if(tick < _now, "arming the pool slot in the past: ", tick,
                 " < now ", _now);
        _pool.tick = tick;
        _pool.order = order(Event::Kind::Pool);
        _pool_armed = true;
    }

    /** Clear the pool slot; it pops nothing until armed again. */
    void disarmPool() { _pool_armed = false; }

    /**
     * Take the next event in (tick, rank, sequence) order, from the
     * heap or the pool slot, into @p out (kind Pool for the slot),
     * and advance the clock to its tick.
     * @return false, leaving @p out alone, when nothing is pending.
     */
    bool
    pop(Event &out)
    {
        hpim::sim::Tick tick;
        if (!_heap.empty()
            && !(_pool_armed && later(_heap.front(), _pool))) {
            std::pop_heap(_heap.begin(), _heap.end(), later);
            tick = _heap.back().tick;
            out = _heap.back().event;
            _heap.pop_back();
        } else if (_pool_armed) {
            _pool_armed = false;
            tick = _pool.tick;
            out = _pool.event;
        } else {
            return false;
        }
        panic_if(tick < _now, "event time went backwards: ", tick,
                 " < now ", _now);
        _now = tick;
        ++_popped;
        return true;
    }

  private:
    struct Entry
    {
        hpim::sim::Tick tick = 0;
        /** The rank in the top two bits, then the sequence number. */
        std::uint64_t order = 0;
        Event event;
    };

    /** The std heap functions keep a max-heap; this makes it min. */
    static bool
    later(const Entry &lhs, const Entry &rhs)
    {
        return lhs.tick != rhs.tick ? lhs.tick > rhs.tick
                                    : lhs.order > rhs.order;
    }

    std::uint64_t
    order(Event::Kind kind)
    {
        return Event::rank(kind) << 62 | _sequence++;
    }

    std::vector<Entry> _heap;
    Entry _pool; ///< its event is a default Event: kind Pool
    bool _pool_armed = false;
    hpim::sim::Tick _now = 0;
    std::uint64_t _sequence = 0;
    std::uint64_t _popped = 0;
};

} // namespace hpim::rt

#endif // HPIM_RT_EVENT_HEAP_HH
