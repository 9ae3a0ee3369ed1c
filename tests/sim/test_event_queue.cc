/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hh"

namespace mda
{
namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickOrderedByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(2); }, EventPriority::Cpu);
    eq.schedule(5, [&] { order.push_back(0); }, EventPriority::Response);
    eq.schedule(5, [&] { order.push_back(1); }, EventPriority::Default);
    eq.schedule(5, [&] { order.push_back(3); }, EventPriority::Cpu);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            eq.scheduleAfter(10, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.curTick(), 40u);
}

TEST(EventQueue, RunWithLimitStops)
{
    EventQueue eq;
    int fired = 0;
    for (Tick t = 0; t < 100; t += 10)
        eq.schedule(t, [&] { ++fired; });
    auto executed = eq.run(45);
    EXPECT_EQ(executed, 5u); // ticks 0,10,20,30,40
    EXPECT_EQ(fired, 5);
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(eq.nextTick(), 50u);
    eq.run();
    EXPECT_EQ(fired, 10);
}

TEST(EventQueue, StepExecutesOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run(50);
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_EQ(eq.nextTick(), maxTick);
}

TEST(EventQueue, SameTickSamePriorityFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(7, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

/**
 * Ordering torture: thousands of events with colliding ticks and
 * priorities, scheduled in a scrambled order, must execute exactly as
 * a stable sort by (tick, priority) predicts — the contract the
 * same-tick buckets and the d-ary heap jointly implement.
 */
TEST(EventQueue, TortureMatchesStableSortOrder)
{
    struct Planned
    {
        Tick when;
        unsigned prio;
        int id;
    };
    constexpr int numEvents = 2048;

    // Deterministic xorshift so the scramble is reproducible.
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    auto rnd = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };

    std::vector<Planned> planned;
    planned.reserve(numEvents);
    for (int i = 0; i < numEvents; ++i) {
        // 64 distinct ticks x 4 priorities: heavy collisions.
        planned.push_back({rnd() % 64,
                           static_cast<unsigned>(rnd() % 4), i});
    }

    // Expected order: stable sort on (tick, priority); ties keep
    // insertion (schedule) order.
    std::vector<Planned> expected = planned;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Planned &a, const Planned &b) {
                         if (a.when != b.when)
                             return a.when < b.when;
                         return a.prio < b.prio;
                     });

    EventQueue eq;
    std::vector<int> executed;
    executed.reserve(numEvents);
    for (const Planned &p : planned) {
        eq.schedule(p.when, [&executed, id = p.id] {
            executed.push_back(id);
        }, static_cast<EventPriority>(p.prio));
    }
    eq.run();

    ASSERT_EQ(executed.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(executed[i], expected[i].id) << "position " << i;
}

/**
 * Same-tick events arrive from both structures: some pre-scheduled
 * from an earlier tick (heap residents), some created during the tick
 * itself (bucket residents). They must still interleave strictly by
 * (priority, sequence), exercising the bucket-vs-heap comparison at
 * pop time.
 */
TEST(EventQueue, HeapAndBucketInterleaveOnSameTick)
{
    EventQueue eq;
    std::vector<int> order;

    // Heap residents for tick 5, scheduled at tick 0: sequences 0..3.
    eq.schedule(5, [&] { order.push_back(10); }, EventPriority::Stats);
    eq.schedule(5, [&] { order.push_back(11); },
                EventPriority::Response);
    eq.schedule(5, [&] { order.push_back(12); }, EventPriority::Stats);
    eq.schedule(5, [&] { order.push_back(13); },
                EventPriority::Response);

    // At tick 5 the first Response event adds same-tick bucket events
    // with later sequences, at both sweeping and lagging priorities.
    eq.schedule(0, [&eq, &order] {
        eq.schedule(5, [&eq, &order] {
            order.push_back(20);
            eq.scheduleAfter(0, [&order] { order.push_back(21); },
                             EventPriority::Response);
            eq.scheduleAfter(0, [&order] { order.push_back(22); },
                             EventPriority::Stats);
        }, EventPriority::Response);
    });

    eq.run();

    // Tick 5 ordering: Response events by sequence (11, 13, then the
    // nested 20 and its same-tick child 21), then Stats (10, 12, 22).
    EXPECT_EQ(order,
              (std::vector<int>{11, 13, 20, 21, 10, 12, 22}));
}

/** A long same-tick cascade (each event spawning the next) must stay
 *  FIFO and never starve the bucket's head-index reuse. */
TEST(EventQueue, DeepSameTickCascade)
{
    EventQueue eq;
    constexpr int depth = 10000;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < depth)
            eq.scheduleAfter(0, chain);
    };
    eq.schedule(3, chain);
    eq.run();
    EXPECT_EQ(fired, depth);
    EXPECT_EQ(eq.curTick(), 3u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "scheduled in the past");
}

/**
 * Regression: the schedule probe must be consulted on every
 * schedule(), so events scheduled before the first run() slice
 * (system construction) are observed too.
 */
TEST(EventQueue, TracesSchedulesBeforeFirstRun)
{
    EventQueue eq;
    probe::ProbeManager pm;
    eq.regProbes(pm);
    std::vector<probe::QueueEvent> seen;
    probe::ProbeListener listener(
        *pm.findTyped<probe::QueueEvent>("eventq.schedule"),
        [&](const probe::QueueEvent &ev) { seen.push_back(ev); });

    eq.schedule(42, [] {});

    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].seq, 0u);
    EXPECT_EQ(seen[0].at, 42u);
    EXPECT_EQ(seen[0].when, 0u);
}

/** The execute probe carries the tick the event runs at. */
TEST(EventQueue, ExecuteProbeCarriesTheExecutingTick)
{
    EventQueue eq;
    probe::ProbeManager pm;
    eq.regProbes(pm);
    std::vector<probe::QueueEvent> ran;
    probe::ProbeListener listener(
        *pm.findTyped<probe::QueueEvent>("eventq.execute"),
        [&](const probe::QueueEvent &ev) { ran.push_back(ev); });

    eq.schedule(7, [] {});
    eq.schedule(5000, [] {}); // beyond the wheel: the heap path
    eq.schedule(7, [&] { eq.scheduleAfter(0, [] {}); });
    eq.run();

    ASSERT_EQ(ran.size(), 4u);
    std::vector<Tick> ticks;
    for (const auto &ev : ran) {
        EXPECT_EQ(ev.when, ev.at);
        ticks.push_back(ev.when);
    }
    EXPECT_EQ(ticks, (std::vector<Tick>{7, 7, 7, 5000}));
}

} // namespace
} // namespace mda
