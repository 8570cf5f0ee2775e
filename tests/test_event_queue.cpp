/**
 * @file
 * Unit tests for the discrete-event simulation core.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"

using hpim::sim::Event;
using hpim::sim::EventQueue;
using hpim::sim::LambdaEvent;
using hpim::sim::maxTick;
using hpim::sim::Tick;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue queue;
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.now(), 0u);
    EXPECT_EQ(queue.nextEventTick(), maxTick);
    EXPECT_FALSE(queue.runOne());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue queue;
    std::vector<int> order;
    queue.scheduleCallback(30, [&] { order.push_back(3); });
    queue.scheduleCallback(10, [&] { order.push_back(1); });
    queue.scheduleCallback(20, [&] { order.push_back(2); });
    queue.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(queue.now(), 30u);
}

TEST(EventQueue, SameTickBreaksTiesByInsertionOrder)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        queue.scheduleCallback(5, [&order, i] { order.push_back(i); });
    queue.runAll();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PriorityOrdersEventsAtSameTick)
{
    EventQueue queue;
    std::vector<int> order;
    queue.scheduleCallback(5, [&] { order.push_back(1); },
                           Event::schedulePriority);
    queue.scheduleCallback(5, [&] { order.push_back(0); },
                           Event::completionPriority);
    queue.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, AdvancesNowToEventTime)
{
    EventQueue queue;
    Tick seen = 0;
    queue.scheduleCallback(123, [&] { seen = queue.now(); });
    queue.runAll();
    EXPECT_EQ(seen, 123u);
}

TEST(EventQueue, DescheduleSquashesEvent)
{
    EventQueue queue;
    bool ran = false;
    LambdaEvent ev([&] { ran = true; });
    queue.schedule(&ev, 10);
    EXPECT_TRUE(ev.scheduled());
    queue.deschedule(&ev);
    EXPECT_FALSE(ev.scheduled());
    queue.runAll();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue queue;
    Tick fired_at = 0;
    LambdaEvent ev([&] { fired_at = queue.now(); });
    queue.schedule(&ev, 10);
    queue.reschedule(&ev, 50);
    queue.runAll();
    EXPECT_EQ(fired_at, 50u);
    EXPECT_EQ(queue.processedCount(), 1u);
}

TEST(EventQueue, RescheduleUnscheduledEventJustSchedules)
{
    EventQueue queue;
    bool ran = false;
    LambdaEvent ev([&] { ran = true; });
    queue.reschedule(&ev, 7);
    queue.runAll();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue queue;
    int count = 0;
    std::function<void()> chain = [&] {
        ++count;
        if (count < 5)
            queue.scheduleCallback(queue.now() + 10, chain);
    };
    queue.scheduleCallback(0, chain);
    queue.runAll();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(queue.now(), 40u);
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue queue;
    int ran = 0;
    queue.scheduleCallback(10, [&] { ++ran; });
    queue.scheduleCallback(20, [&] { ++ran; });
    queue.scheduleCallback(30, [&] { ++ran; });
    queue.runUntil(20);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(queue.now(), 20u);
    queue.runAll();
    EXPECT_EQ(ran, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue queue;
    queue.runUntil(500);
    EXPECT_EQ(queue.now(), 500u);
}

TEST(EventQueue, NextEventTickSkipsSquashedEntries)
{
    EventQueue queue;
    LambdaEvent early([] {});
    queue.schedule(&early, 5);
    queue.scheduleCallback(10, [] {});
    queue.deschedule(&early);
    EXPECT_EQ(queue.nextEventTick(), 10u);
    queue.runAll();
}

TEST(EventQueue, SizeTracksLiveEvents)
{
    EventQueue queue;
    LambdaEvent a([] {}), b([] {});
    queue.schedule(&a, 1);
    queue.schedule(&b, 2);
    EXPECT_EQ(queue.size(), 2u);
    queue.deschedule(&a);
    EXPECT_EQ(queue.size(), 1u);
    queue.runAll();
    EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueue, RunAllHonorsLimit)
{
    EventQueue queue;
    int count = 0;
    std::function<void()> forever = [&] {
        ++count;
        queue.scheduleCallback(queue.now() + 1, forever);
    };
    queue.scheduleCallback(0, forever);
    queue.runAll(100);
    EXPECT_EQ(count, 100);
}

TEST(EventQueue, ProcessedCountAccumulates)
{
    EventQueue queue;
    for (Tick t = 0; t < 10; ++t)
        queue.scheduleCallback(t, [] {});
    queue.runAll();
    EXPECT_EQ(queue.processedCount(), 10u);
}

TEST(EventQueue, RescheduleAfterDescheduleFiresOnce)
{
    // The descheduled ("squashed") entry must not linger: a
    // subsequent reschedule fires exactly once, at the new tick.
    EventQueue queue;
    std::vector<Tick> fired;
    LambdaEvent ev([&] { fired.push_back(queue.now()); });
    queue.schedule(&ev, 10);
    queue.deschedule(&ev);
    queue.reschedule(&ev, 25);
    queue.runAll();
    EXPECT_EQ(fired, (std::vector<Tick>{25}));
    EXPECT_EQ(queue.processedCount(), 1u);
}

TEST(EventQueue, DescheduleRescheduleLoopKeepsHeapConsistent)
{
    // Repeated in-place removals from interior heap slots must keep
    // every back-pointer valid; firing order stays time-ordered.
    EventQueue queue;
    std::vector<int> fired;
    std::vector<LambdaEvent *> events;
    for (int i = 0; i < 32; ++i)
        events.push_back(
            new LambdaEvent([&fired, i] { fired.push_back(i); }));
    for (int i = 0; i < 32; ++i)
        queue.schedule(events[static_cast<std::size_t>(i)],
                       static_cast<Tick>(1 + (i * 7) % 31));
    // Deschedule every third event out of the middle of the heap,
    // then put them back at later ticks.
    for (int i = 0; i < 32; i += 3)
        queue.deschedule(events[static_cast<std::size_t>(i)]);
    for (int i = 0; i < 32; i += 3)
        queue.schedule(events[static_cast<std::size_t>(i)],
                       static_cast<Tick>(100 + i));
    queue.runAll();
    EXPECT_EQ(fired.size(), 32u);
    for (auto *ev : events)
        delete ev;
}

TEST(EventQueue, InterleavedDeschedulePreservesPriorityTies)
{
    // Three same-tick events at mixed priorities; descheduling and
    // re-adding the middle one must not disturb the (priority,
    // insertion-order) contract among the survivors.
    EventQueue queue;
    std::vector<int> order;
    LambdaEvent first([&] { order.push_back(0); },
                      Event::completionPriority);
    LambdaEvent second([&] { order.push_back(1); });
    LambdaEvent third([&] { order.push_back(2); },
                      Event::schedulePriority);
    queue.schedule(&third, 5);
    queue.schedule(&second, 5);
    queue.schedule(&first, 5);
    // Pull the default-priority event out and put it back: it gets a
    // fresh sequence number but its priority class still slots it
    // between the completion and the scheduler event.
    queue.deschedule(&second);
    queue.schedule(&second, 5);
    queue.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, RescheduleAssignsFreshSequenceForTieBreaks)
{
    // Sequence numbers break (when, priority) ties by *scheduling*
    // order, not construction order: rescheduling an event moves it
    // behind events already queued at that tick.
    EventQueue queue;
    std::vector<int> order;
    LambdaEvent a([&] { order.push_back(0); });
    LambdaEvent b([&] { order.push_back(1); });
    queue.schedule(&a, 5);
    queue.schedule(&b, 5);
    queue.reschedule(&a, 5); // a now sequences after b
    queue.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(EventQueue, CallbackPoolRecyclesAfterRelease)
{
    // The pooled-callback arena must reach a steady state: once every
    // in-flight callback has fired and been released, new callbacks
    // reuse pooled objects instead of growing the arena.
    EventQueue queue;
    int fired = 0;
    for (int i = 0; i < 16; ++i)
        queue.scheduleCallback(static_cast<Tick>(1 + i),
                               [&fired] { ++fired; });
    const std::size_t peak = queue.callbackPoolCapacity();
    EXPECT_EQ(peak, 16u);
    EXPECT_EQ(queue.callbackPoolFree(), 0u);
    queue.runAll();
    EXPECT_EQ(fired, 16);
    EXPECT_EQ(queue.callbackPoolFree(), peak); // all returned
    // Steady-state churn: never more than 16 in flight again, so the
    // arena must not grow past its peak.
    for (int round = 0; round < 64; ++round) {
        for (int i = 0; i < 16; ++i)
            queue.scheduleCallback(queue.now() + 1 + i,
                                   [&fired] { ++fired; });
        queue.runAll();
    }
    EXPECT_EQ(queue.callbackPoolCapacity(), peak);
    EXPECT_EQ(queue.callbackPoolFree(), peak);
    EXPECT_EQ(fired, 16 + 64 * 16);
}

TEST(EventQueue, CallbacksSchedulingCallbacksDrawFreshPoolObjects)
{
    // A callback that schedules another callback while running must
    // not clobber its own inline captures: the new callback draws a
    // different pooled object (recycling happens after invocation).
    EventQueue queue;
    std::vector<int> order;
    queue.scheduleCallback(1, [&] {
        order.push_back(1);
        queue.scheduleCallback(queue.now() + 1,
                               [&order] { order.push_back(2); });
    });
    queue.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_GE(queue.callbackPoolCapacity(), 1u);
    EXPECT_EQ(queue.callbackPoolFree(), queue.callbackPoolCapacity());
}

TEST(EventQueue, DestructorReleasesPendingPooledCallbacks)
{
    // Destroying a queue with armed, never-fired pooled callbacks
    // must not trip the scheduled-event destructor panic.
    auto queue = std::make_unique<EventQueue>();
    int fired = 0;
    for (int i = 0; i < 4; ++i)
        queue->scheduleCallback(static_cast<Tick>(10 + i),
                                [&fired] { ++fired; });
    queue.reset(); // no panic, no leak (ASan job watches the latter)
    EXPECT_EQ(fired, 0);
}

// Property: interleaved schedule/run at random times preserves
// global time ordering.
TEST(EventQueueProperty, MonotonicProcessingUnderRandomLoad)
{
    EventQueue queue;
    std::vector<Tick> fired;
    std::uint64_t seed = 12345;
    auto next_rand = [&seed] {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        return seed >> 33;
    };
    for (int i = 0; i < 500; ++i) {
        Tick when = next_rand() % 10000;
        queue.scheduleCallback(when,
                               [&fired, &queue] {
                                   fired.push_back(queue.now());
                               });
    }
    queue.runAll();
    ASSERT_EQ(fired.size(), 500u);
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_LE(fired[i - 1], fired[i]);
}

// Property: dispatch follows the strict (when, priority, scheduling
// sequence) order while thousands of events share a few ticks and
// callbacks schedule, deschedule and reschedule their same-tick
// siblings mid-drain. Every byte-identity contract rests on this
// order; a reference ordered map replays it independently.
TEST(EventQueueProperty, SameTickDispatchMatchesReferenceOrder)
{
    constexpr std::size_t kEvents = 4096;
    constexpr Tick kTicks[] = {10, 20, 30, 40};
    constexpr Event::Priority kPriorities[] = {
        Event::completionPriority, -3, Event::defaultPriority, 7,
        Event::schedulePriority};

    std::uint64_t seed = 0x5eed;
    auto next_rand = [&seed] {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        return seed >> 33;
    };

    using Key = std::tuple<Tick, Event::Priority, std::uint64_t>;
    std::map<Key, std::size_t> reference; // pending key -> event id
    std::vector<Key> keys(kEvents);
    std::uint64_t sequence = 0;

    EventQueue queue;
    std::vector<std::unique_ptr<LambdaEvent>> events;
    auto put = [&](std::size_t id, Tick when) {
        LambdaEvent &ev = *events[id];
        if (ev.scheduled()) {
            reference.erase(keys[id]);
            queue.reschedule(&ev, when);
        } else {
            queue.schedule(&ev, when);
        }
        keys[id] = Key{when, ev.priority(), sequence++};
        reference.emplace(keys[id], id);
    };
    auto pick_tick = [&] {
        // Mostly the tick being drained, sometimes one of a few later.
        Tick now = queue.now();
        if (next_rand() % 4 != 0)
            return now;
        return now + 10 * (1 + next_rand() % 3);
    };

    std::vector<std::size_t> fired, expected;
    int budget = 20000;
    int scheduled = 0, descheduled = 0, rescheduled = 0;
    int inconsistent = 0;
    auto on_fire = [&](std::size_t id) {
        fired.push_back(id);
        expected.push_back(reference.begin()->second);
        reference.erase(keys[id]);
        const int actions = static_cast<int>(next_rand() % 4);
        for (int a = 0; a < actions && budget > 0; ++a, --budget) {
            std::size_t other = next_rand() % kEvents;
            bool pending = events[other]->scheduled();
            switch (next_rand() % 3) {
              case 0:
                if (!pending) {
                    put(other, pick_tick());
                    ++scheduled;
                }
                break;
              case 1:
                if (pending) {
                    reference.erase(keys[other]);
                    queue.deschedule(events[other].get());
                    ++descheduled;
                }
                break;
              default:
                if (pending) {
                    put(other, pick_tick());
                    ++rescheduled;
                }
                break;
            }
        }
        Tick next = reference.empty()
                        ? maxTick
                        : std::get<0>(reference.begin()->first);
        if (queue.size() != reference.size()
            || queue.nextEventTick() != next)
            ++inconsistent;
    };

    for (std::size_t id = 0; id < kEvents; ++id) {
        events.push_back(std::make_unique<LambdaEvent>(
            [&on_fire, id] { on_fire(id); },
            kPriorities[next_rand() % std::size(kPriorities)]));
    }
    for (std::size_t id = 0; id < kEvents; ++id) {
        if (next_rand() % 4 != 0)
            put(id, kTicks[next_rand() % std::size(kTicks)]);
    }
    queue.runAll();

    EXPECT_TRUE(queue.empty());
    EXPECT_TRUE(reference.empty());
    EXPECT_EQ(inconsistent, 0);
    EXPECT_GT(scheduled, 0);
    EXPECT_GT(descheduled, 0);
    EXPECT_GT(rescheduled, 0);
    auto diverged =
        std::mismatch(fired.begin(), fired.end(), expected.begin());
    EXPECT_TRUE(diverged.first == fired.end())
        << "dispatch " << (diverged.first - fired.begin())
        << " fired event " << *diverged.first << ", reference expects "
        << *diverged.second;
    for (auto &ev : events) {
        if (ev->scheduled())
            queue.deschedule(ev.get());
    }
}
