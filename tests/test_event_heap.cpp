/**
 * @file
 * The executor's event core (rt::EventHeap): the pop order every
 * byte-identity contract rests on, the clock, and the pool slot.
 *
 * The EventQueue suites check the heap as the executor's event queue.
 * The pool slot's arm, re-arm and disarm take the place of an event's
 * schedule, reschedule and deschedule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "rt/event_heap.hh"

using hpim::rt::Event;
using hpim::rt::EventHeap;
using hpim::sim::Tick;

namespace {

/** The id drain() reports for a pop of the pool slot. */
constexpr std::uint32_t kPool = ~0u;

/** An event of @p kind carrying @p id in its payload. */
Event
tagged(std::uint32_t id, Event::Kind kind = Event::Kind::CpuDone)
{
    Event event;
    event.kind = kind;
    event.a = id;
    return event;
}

/** Pop everything pending: each pop's id (kPool for the slot). */
std::vector<std::uint32_t>
drain(EventHeap &heap, std::vector<Tick> *clocks = nullptr)
{
    std::vector<std::uint32_t> ids;
    Event event;
    while (heap.pop(event)) {
        ids.push_back(event.kind == Event::Kind::Pool ? kPool : event.a);
        if (clocks)
            clocks->push_back(heap.now());
    }
    return ids;
}

using Ids = std::vector<std::uint32_t>;

} // namespace

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventHeap heap;
    EXPECT_EQ(heap.now(), 0u);
    EXPECT_EQ(heap.popped(), 0u);
    Event out = tagged(7);
    EXPECT_FALSE(heap.pop(out));
    EXPECT_EQ(out.a, 7u); // left alone
    EXPECT_EQ(heap.now(), 0u);
    EXPECT_EQ(heap.popped(), 0u);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventHeap heap;
    heap.push(30, tagged(3));
    heap.push(10, tagged(1));
    heap.push(20, tagged(2));
    EXPECT_EQ(drain(heap), (Ids{1, 2, 3}));
    EXPECT_EQ(heap.now(), 30u);
}

TEST(EventQueue, SameTickBreaksTiesByInsertionOrder)
{
    // Within one rank the kind does not matter: only the push order.
    using Kind = Event::Kind;
    constexpr Kind kRankZero[] = {Kind::HostDrivenDone, Kind::CpuDone,
                                  Kind::RcStall, Kind::ProgrDone};
    EventHeap heap;
    for (std::uint32_t i = 0; i < 8; ++i)
        heap.push(5, tagged(i, kRankZero[i % std::size(kRankZero)]));
    EXPECT_EQ(drain(heap), (Ids{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, PriorityOrdersEventsAtSameTick)
{
    // Completions, stalls and the pool slot (rank 0) run before the
    // launches, bank kills and throttle toggles (rank 1), and those
    // before the retries (rank 2), whatever the push order.
    using Kind = Event::Kind;
    EventHeap heap;
    heap.push(5, tagged(0, Kind::Retry));
    heap.push(5, tagged(1, Kind::FixedLaunch));
    heap.push(5, tagged(2, Kind::BankKill));
    heap.push(5, tagged(3, Kind::CpuDone));
    heap.push(5, tagged(4, Kind::Throttle));
    heap.push(5, tagged(5, Kind::ProgrStall));
    heap.armPool(5);
    EXPECT_EQ(drain(heap), (Ids{3, 5, kPool, 1, 2, 4, 0}));
}

TEST(EventQueue, AdvancesNowToEventTime)
{
    EventHeap heap;
    heap.push(123, tagged(0));
    heap.armPool(200);
    Event out;
    ASSERT_TRUE(heap.pop(out));
    EXPECT_EQ(heap.now(), 123u);
    ASSERT_TRUE(heap.pop(out));
    EXPECT_EQ(out.kind, Event::Kind::Pool);
    EXPECT_EQ(heap.now(), 200u);
    EXPECT_FALSE(heap.pop(out));
    EXPECT_EQ(heap.now(), 200u);
}

TEST(EventQueue, DescheduleSquashesEvent)
{
    EventHeap heap;
    heap.armPool(10);
    heap.push(20, tagged(1));
    heap.disarmPool();
    std::vector<Tick> clocks;
    EXPECT_EQ(drain(heap, &clocks), (Ids{1}));
    EXPECT_EQ(clocks, (std::vector<Tick>{20}));
    EXPECT_EQ(heap.popped(), 1u);
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventHeap heap;
    heap.armPool(10);
    heap.push(30, tagged(1));
    heap.armPool(50);
    std::vector<Tick> clocks;
    EXPECT_EQ(drain(heap, &clocks), (Ids{1, kPool}));
    EXPECT_EQ(clocks, (std::vector<Tick>{30, 50}));
    EXPECT_EQ(heap.popped(), 2u);
}

TEST(EventQueue, RescheduleUnscheduledEventJustSchedules)
{
    EventHeap heap;
    heap.armPool(7);
    std::vector<Tick> clocks;
    EXPECT_EQ(drain(heap, &clocks), (Ids{kPool}));
    EXPECT_EQ(clocks, (std::vector<Tick>{7}));
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    // Each pop pushes its successor 10 ticks on, and one more event
    // at its own tick, which pops before the successor.
    EventHeap heap;
    heap.push(0, tagged(0));
    Ids order;
    Event event;
    while (heap.pop(event)) {
        order.push_back(event.a);
        if (event.a < 8 && event.a % 2 == 0) {
            heap.push(heap.now() + 10, tagged(event.a + 2));
            heap.push(heap.now(), tagged(event.a + 1));
        }
    }
    EXPECT_EQ(order, (Ids{0, 1, 2, 3, 4, 5, 6, 7, 8}));
    EXPECT_EQ(heap.now(), 40u);
}

TEST(EventQueue, ProcessedCountAccumulates)
{
    EventHeap heap;
    for (Tick t = 0; t < 10; ++t)
        heap.push(t, tagged(static_cast<std::uint32_t>(t)));
    heap.armPool(4);
    drain(heap);
    EXPECT_EQ(heap.popped(), 11u); // the pool pop counts
    heap.push(heap.now(), tagged(0));
    drain(heap);
    EXPECT_EQ(heap.popped(), 12u);
}

TEST(EventQueue, RescheduleAfterDescheduleFiresOnce)
{
    // A disarmed slot leaves nothing behind: arming it again pops
    // exactly once, at the new tick.
    EventHeap heap;
    heap.armPool(10);
    heap.disarmPool();
    heap.armPool(25);
    std::vector<Tick> clocks;
    EXPECT_EQ(drain(heap, &clocks), (Ids{kPool}));
    EXPECT_EQ(clocks, (std::vector<Tick>{25}));
    EXPECT_EQ(heap.popped(), 1u);
}

TEST(EventQueue, InterleavedDeschedulePreservesPriorityTies)
{
    // Disarming the slot and arming it again at the same tick gives
    // it a fresh sequence number, which moves it behind the rank-0
    // event pushed meanwhile; its rank still puts it ahead of the
    // launch and the retry pushed before it.
    using Kind = Event::Kind;
    EventHeap heap;
    heap.push(5, tagged(2, Kind::Retry));
    heap.push(5, tagged(1, Kind::FixedLaunch));
    heap.armPool(5);
    heap.push(5, tagged(0, Kind::RcControlDone));
    heap.disarmPool();
    heap.armPool(5);
    EXPECT_EQ(drain(heap), (Ids{0, kPool, 1, 2}));
}

TEST(EventQueue, RescheduleAssignsFreshSequenceForTieBreaks)
{
    // Sequence numbers break (tick, rank) ties by arming order: arming
    // the slot again at its own tick moves it behind the events
    // already pushed for that tick.
    EventHeap heap;
    heap.armPool(5);
    heap.push(5, tagged(1));
    heap.armPool(5);
    EXPECT_EQ(drain(heap), (Ids{1, kPool}));
}

// Property: pushes at random ticks, some made mid-drain and some
// re-arming the pool slot, still pop in nondecreasing tick order,
// and every push and arming pops once.
TEST(EventQueueProperty, MonotonicProcessingUnderRandomLoad)
{
    using Kind = Event::Kind;
    constexpr Kind kKinds[] = {Kind::CpuDone, Kind::FixedLaunch,
                               Kind::Retry, Kind::BankKill};
    std::uint64_t seed = 12345;
    auto next_rand = [&seed] {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        return seed >> 33;
    };
    auto random_event = [&] {
        return tagged(0, kKinds[next_rand() % std::size(kKinds)]);
    };

    EventHeap heap;
    std::uint64_t expected = 0;
    for (int i = 0; i < 500; ++i, ++expected)
        heap.push(next_rand() % 10000, random_event());
    heap.armPool(next_rand() % 10000);

    std::vector<Tick> clocks;
    Event event;
    while (heap.pop(event)) {
        clocks.push_back(heap.now());
        if (event.kind == Kind::Pool) {
            ++expected;
            if (clocks.size() < 400)
                heap.armPool(heap.now() + next_rand() % 100);
        } else if (clocks.size() < 300) {
            heap.push(heap.now() + next_rand() % 100, random_event());
            ++expected;
        }
    }
    EXPECT_EQ(clocks.size(), expected);
    EXPECT_EQ(heap.popped(), expected);
    EXPECT_TRUE(std::is_sorted(clocks.begin(), clocks.end()));
}

// Property: pops follow the strict (tick, rank, sequence) order while
// thousands of events of all three ranks share a few ticks, pops push
// more events at the tick being drained and at later ones, and the
// pool slot is re-armed and disarmed mid-drain. The slot competes as
// a rank-0 entry whose sequence number is drawn when it is armed. A
// reference ordered map replays the order independently, with each
// kind's rank written out here rather than read from Event::rank().
TEST(EventQueueProperty, SameTickDispatchMatchesReferenceOrder)
{
    using Kind = Event::Kind;
    constexpr std::pair<Kind, std::uint64_t> kKinds[] = {
        {Kind::CpuDone, 0},     {Kind::ProgrDone, 0},
        {Kind::ProgrStall, 0},  {Kind::RcControlDone, 0},
        {Kind::RcStall, 0},     {Kind::HostDrivenDone, 0},
        {Kind::FixedLaunch, 1}, {Kind::BankKill, 1},
        {Kind::Throttle, 1},    {Kind::Retry, 2}};
    constexpr std::uint64_t kPoolRank = 0;
    constexpr std::size_t kEvents = 4096;
    constexpr Tick kTicks[] = {10, 20, 30, 40};

    std::uint64_t seed = 0x5eed;
    auto next_rand = [&seed] {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        return seed >> 33;
    };

    // (tick, rank, sequence) -> event id; the pool slot's id is
    // kPoolId. keys[id] is a pushed event's key.
    using Key = std::tuple<Tick, std::uint64_t, std::uint64_t>;
    constexpr std::uint32_t kPoolId = ~0u;
    std::map<Key, std::uint32_t> reference;
    std::vector<Key> keys;
    Key pool_key{};
    bool pool_armed = false;
    std::uint64_t sequence = 0;
    std::uint64_t expected_pops = 0;

    EventHeap heap;
    auto push = [&](Tick tick) {
        const auto &[kind, rank] = kKinds[next_rand() % std::size(kKinds)];
        Event event;
        event.kind = kind;
        event.a = static_cast<std::uint32_t>(keys.size());
        heap.push(tick, event);
        keys.emplace_back(tick, rank, sequence++);
        reference.emplace(keys.back(), event.a);
        ++expected_pops;
    };
    auto disarm_pool = [&] {
        heap.disarmPool();
        if (pool_armed) {
            reference.erase(pool_key);
            --expected_pops;
        }
        pool_armed = false;
    };
    auto arm_pool = [&](Tick tick) {
        disarm_pool();
        heap.armPool(tick);
        pool_key = Key{tick, kPoolRank, sequence++};
        reference.emplace(pool_key, kPoolId);
        pool_armed = true;
        ++expected_pops;
    };
    auto pick_tick = [&] {
        // Mostly the tick being drained, sometimes one of a few later.
        if (next_rand() % 4 != 0)
            return heap.now();
        return heap.now() + 10 * (1 + next_rand() % 3);
    };

    for (std::size_t i = 0; i < kEvents; ++i)
        push(kTicks[next_rand() % std::size(kTicks)]);
    arm_pool(kTicks[1]);

    std::vector<std::uint32_t> popped, expected;
    std::size_t wrong_clock = 0;
    int budget = 20000;
    int pushes = 0, rearms = 0, arms = 0, disarms = 0;
    Event event;
    while (heap.pop(event)) {
        ASSERT_FALSE(reference.empty());
        const std::uint32_t id =
            event.kind == Kind::Pool ? kPoolId : event.a;
        popped.push_back(id);
        expected.push_back(reference.begin()->second);
        if (heap.now() != std::get<0>(reference.begin()->first))
            ++wrong_clock;
        if (id == kPoolId) {
            ASSERT_TRUE(pool_armed);
            reference.erase(pool_key);
            pool_armed = false;
        } else {
            reference.erase(keys[id]);
        }

        const int actions = static_cast<int>(next_rand() % 4);
        for (int a = 0; a < actions && budget > 0; ++a, --budget) {
            switch (next_rand() % 4) {
              case 0:
              case 1:
                push(pick_tick());
                ++pushes;
                break;
              case 2:
                ++(pool_armed ? rearms : arms);
                arm_pool(pick_tick());
                break;
              default:
                if (pool_armed) {
                    disarm_pool();
                    ++disarms;
                }
                break;
            }
        }
    }

    EXPECT_TRUE(reference.empty());
    EXPECT_EQ(popped.size(), expected_pops);
    EXPECT_EQ(heap.popped(), expected_pops);
    EXPECT_EQ(wrong_clock, 0u);
    EXPECT_GT(pushes, 0);
    EXPECT_GT(rearms, 0);
    EXPECT_GT(arms, 0);
    EXPECT_GT(disarms, 0);
    auto diverged =
        std::mismatch(popped.begin(), popped.end(), expected.begin());
    EXPECT_TRUE(diverged.first == popped.end())
        << "pop " << (diverged.first - popped.begin()) << " took event "
        << *diverged.first << ", reference expects " << *diverged.second;
}
