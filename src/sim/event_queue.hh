/**
 * @file
 * Discrete-event simulation core.
 *
 * An EventQueue orders Events by (tick, priority, sequence). The executor
 * in hpim::rt drives device models by scheduling completion events here.
 *
 * The queue is an *indexed* 4-ary min-heap: every scheduled event
 * remembers its heap slot, so deschedule() and reschedule() are
 * O(log n) in-place removals instead of lazy squash markers, the heap
 * never holds stale entries, and nextEventTick() is a single O(1)
 * read of the root. One-shot callbacks run on pooled event objects
 * with inline callable storage, so the steady-state schedule/fire
 * cycle performs no heap allocation (docs/PERFORMANCE.md).
 */

#ifndef HPIM_SIM_EVENT_QUEUE_HH
#define HPIM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/ticks.hh"

namespace hpim::sim {

class EventQueue;

/**
 * Base class for schedulable events.
 *
 * Events are owned by their creators; the queue never deletes them.
 * An event may be scheduled on at most one queue at a time.
 */
class Event
{
  public:
    /** Lower value runs first among events at the same tick. */
    using Priority = std::int32_t;

    static constexpr Priority defaultPriority = 0;
    /** Device-completion events run before scheduler-poll events. */
    static constexpr Priority completionPriority = -10;
    /** Scheduler decisions run after all completions at a tick. */
    static constexpr Priority schedulePriority = 10;

    explicit Event(Priority priority = defaultPriority)
        : _priority(priority)
    {}

    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Called by the queue when the event fires. */
    virtual void process() = 0;

    /** @return a short human-readable description for tracing. */
    virtual std::string description() const { return "generic event"; }

    /** @return true while the event sits in a queue. */
    bool scheduled() const { return _scheduled; }

    /** @return the tick this event is (or was last) scheduled for. */
    Tick when() const { return _when; }

    Priority priority() const { return _priority; }

  private:
    friend class EventQueue;

    Tick _when = 0;
    std::uint64_t _sequence = 0;
    std::size_t _heap_index = 0; ///< slot in the owning queue's heap
    Priority _priority;
    bool _scheduled = false;
};

/** An Event that invokes a callable. */
class LambdaEvent : public Event
{
  public:
    explicit LambdaEvent(std::function<void()> callback,
                         Priority priority = defaultPriority)
        : Event(priority), _callback(std::move(callback))
    {}

    void process() override { _callback(); }
    std::string description() const override { return "lambda event"; }

  private:
    std::function<void()> _callback;
};

/**
 * The event queue: an indexed 4-ary min-heap over
 * (when, priority, sequence).
 *
 * Deterministic: ties in (when, priority) break by insertion order.
 * Since the sequence number makes the order strict and total, the pop
 * order is independent of the heap arity or internal layout.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /**
     * Schedule an event at an absolute tick.
     * It is a bug to schedule in the past or to double-schedule.
     */
    void schedule(Event *event, Tick when);

    /** Remove a scheduled event without running it. O(log n). */
    void deschedule(Event *event);

    /** Reschedule: deschedule (if scheduled) then schedule at @p when. */
    void reschedule(Event *event, Tick when);

    /** @return current simulated time. */
    Tick now() const { return _now; }

    /** @return true if no events are pending. */
    bool empty() const { return _heap.empty(); }

    /** @return number of pending events. */
    std::size_t size() const { return _heap.size(); }

    /** @return tick of the next pending event; maxTick when empty. */
    Tick
    nextEventTick() const
    {
        return _heap.empty() ? maxTick : _heap.front().when;
    }

    /**
     * Run the next event.
     * @return true if an event ran, false if the queue was empty.
     */
    bool runOne();

    /** Run events until the queue drains or @p limit is exceeded. */
    void runAll(std::uint64_t limit = ~std::uint64_t(0));

    /** Run all events up to and including tick @p until. */
    void runUntil(Tick until);

    /** Total number of events processed since construction. */
    std::uint64_t processedCount() const { return _processed; }

    /**
     * Convenience: schedule a one-shot callback. The queue owns the
     * backing event object; after the callback fires the object is
     * recycled into a free list, so steady-state callback traffic
     * allocates nothing. The callable is stored inline (its captures
     * must fit callbackBufferBytes) and must be nothrow-movable.
     */
    template <typename F>
    void
    scheduleCallback(Tick when, F &&callback,
                     Event::Priority priority = Event::defaultPriority)
    {
        PooledCallback *ev = acquireCallback();
        ev->arm(std::forward<F>(callback));
        ev->_priority = priority;
        schedule(ev, when);
    }

    /** Inline capture budget of a pooled callback. */
    static constexpr std::size_t callbackBufferBytes = 64;

    /**
     * Pooled callback events ever allocated (== peak concurrently
     * scheduled callbacks). Flat in steady state: the arena counter
     * the perf tests watch.
     */
    std::size_t callbackPoolCapacity() const
    { return _callback_storage.size(); }

    /** Pooled callback events currently idle in the free list. */
    std::size_t callbackPoolFree() const
    { return _callback_free.size(); }

    ~EventQueue();

  private:
    struct Entry
    {
        Tick when;
        Event::Priority priority;
        std::uint64_t sequence;
        Event *event;

        /** Strict total order: (when, priority, sequence). */
        bool
        before(const Entry &o) const
        {
            if (when != o.when)
                return when < o.when;
            if (priority != o.priority)
                return priority < o.priority;
            return sequence < o.sequence;
        }
    };

    /** A recyclable one-shot event with inline callable storage. */
    class PooledCallback : public Event
    {
      public:
        explicit PooledCallback(EventQueue &queue) : _queue(queue) {}

        ~PooledCallback() override { disarm(); }

        template <typename F>
        void
        arm(F &&callback)
        {
            using Fn = std::decay_t<F>;
            static_assert(sizeof(Fn) <= callbackBufferBytes,
                          "callback captures exceed the pooled "
                          "callback's inline buffer");
            static_assert(alignof(Fn) <= alignof(std::max_align_t),
                          "over-aligned callback");
            new (_buffer) Fn(std::forward<F>(callback));
            _invoke = [](void *p) { (*static_cast<Fn *>(p))(); };
            _destroy = [](void *p) { static_cast<Fn *>(p)->~Fn(); };
        }

        void
        disarm()
        {
            if (_destroy != nullptr) {
                _destroy(_buffer);
                _invoke = nullptr;
                _destroy = nullptr;
            }
        }

        void
        process() override
        {
            // Run, then release the captures and return to the free
            // list. Recycling only *after* the invocation keeps the
            // buffer stable if the callback schedules new callbacks
            // (those draw other objects from the pool).
            _invoke(_buffer);
            disarm();
            _queue.recycleCallback(this);
        }

        std::string description() const override
        { return "pooled callback"; }

      private:
        friend class EventQueue;

        alignas(std::max_align_t) unsigned char
            _buffer[callbackBufferBytes];
        void (*_invoke)(void *) = nullptr;
        void (*_destroy)(void *) = nullptr;
        EventQueue &_queue;
    };

    PooledCallback *acquireCallback();
    void recycleCallback(PooledCallback *event)
    { _callback_free.push_back(event); }

    /** Write @p entry to slot @p i and update the back-pointer. */
    void
    placeAt(std::size_t i, const Entry &entry)
    {
        _heap[i] = entry;
        entry.event->_heap_index = i;
    }

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    /** Remove slot @p i, restoring the heap property. */
    void removeAt(std::size_t i);

    std::vector<Entry> _heap; ///< indexed 4-ary min-heap
    Tick _now = 0;
    std::uint64_t _next_sequence = 0;
    std::uint64_t _processed = 0;
    std::vector<std::unique_ptr<PooledCallback>> _callback_storage;
    std::vector<PooledCallback *> _callback_free;
};

} // namespace hpim::sim

#endif // HPIM_SIM_EVENT_QUEUE_HH
