#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hpim::sim {

namespace {

/** Heap arity: 4 children per node keeps the tree shallow and the
 *  sift loops cache-friendly (children are contiguous). */
constexpr std::size_t kArity = 4;

} // namespace

Event::~Event()
{
    panic_if(_scheduled, "destroying a scheduled event");
}

void
EventQueue::siftUp(std::size_t i)
{
    Entry entry = _heap[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / kArity;
        if (!entry.before(_heap[parent]))
            break;
        placeAt(i, _heap[parent]);
        i = parent;
    }
    placeAt(i, entry);
}

void
EventQueue::siftDown(std::size_t i)
{
    Entry entry = _heap[i];
    const std::size_t size = _heap.size();
    while (true) {
        std::size_t first_child = i * kArity + 1;
        if (first_child >= size)
            break;
        std::size_t last_child =
            std::min(first_child + kArity, size);
        std::size_t best = first_child;
        for (std::size_t c = first_child + 1; c < last_child; ++c) {
            if (_heap[c].before(_heap[best]))
                best = c;
        }
        if (!_heap[best].before(entry))
            break;
        placeAt(i, _heap[best]);
        i = best;
    }
    placeAt(i, entry);
}

void
EventQueue::removeAt(std::size_t i)
{
    Entry last = _heap.back();
    _heap.pop_back();
    if (i == _heap.size())
        return; // removed the trailing slot
    placeAt(i, last);
    // The filler may violate the heap property in either direction
    // relative to its new neighbourhood.
    if (i > 0 && last.before(_heap[(i - 1) / kArity]))
        siftUp(i);
    else
        siftDown(i);
}

void
EventQueue::schedule(Event *event, Tick when)
{
    panic_if(event == nullptr, "scheduling a null event");
    panic_if(event->_scheduled, "double-scheduling event: ",
             event->description());
    panic_if(when < _now, "scheduling event '", event->description(),
             "' in the past: ", when, " < now ", _now);

    event->_when = when;
    event->_sequence = _next_sequence++;
    event->_scheduled = true;
    event->_heap_index = _heap.size();
    _heap.push_back(
        Entry{when, event->priority(), event->_sequence, event});
    siftUp(_heap.size() - 1);
}

void
EventQueue::deschedule(Event *event)
{
    panic_if(event == nullptr, "descheduling a null event");
    panic_if(!event->_scheduled, "descheduling an unscheduled event");
    std::size_t i = event->_heap_index;
    panic_if(i >= _heap.size() || _heap[i].event != event,
             "event heap index out of sync");
    event->_scheduled = false;
    removeAt(i);
}

void
EventQueue::reschedule(Event *event, Tick when)
{
    if (event->_scheduled)
        deschedule(event);
    schedule(event, when);
}

bool
EventQueue::runOne()
{
    if (_heap.empty())
        return false;
    const Entry top = _heap.front();
    Event *ev = top.event;
    panic_if(top.when < _now, "event time went backwards");
    ev->_scheduled = false;
    removeAt(0);
    _now = top.when;
    ++_processed;
    ev->process();
    return true;
}

void
EventQueue::runAll(std::uint64_t limit)
{
    std::uint64_t ran = 0;
    while (runOne()) {
        if (++ran >= limit) {
            warn("event queue hit run limit of ", limit, " events");
            return;
        }
    }
}

void
EventQueue::runUntil(Tick until)
{
    while (!empty() && nextEventTick() <= until)
        runOne();
    _now = std::max(_now, until);
}

EventQueue::PooledCallback *
EventQueue::acquireCallback()
{
    if (!_callback_free.empty()) {
        PooledCallback *ev = _callback_free.back();
        _callback_free.pop_back();
        return ev;
    }
    _callback_storage.push_back(
        std::make_unique<PooledCallback>(*this));
    return _callback_storage.back().get();
}

EventQueue::~EventQueue()
{
    // Pooled callbacks may still be scheduled (a run can stop before
    // the queue drains); deschedule them so ~Event doesn't panic and
    // release their captures.
    for (const auto &ev : _callback_storage) {
        if (ev->scheduled())
            deschedule(ev.get());
        ev->disarm();
    }
}

} // namespace hpim::sim
