/**
 * @file
 * Simulation-kernel throughput microbenchmark: raw EventQueue
 * events/sec and Packet allocation packets/sec (pooled vs heap).
 *
 * The figure benches measure end-to-end wall clock, which folds cache
 * model work into every number; this binary isolates the two kernel
 * hot paths the zero-alloc overhaul targets so regressions in either
 * are visible directly. CI runs it advisorily and archives the JSON
 * next to the bench trajectories.
 *
 * Unlike the figure and ablation benches, the JSON here carries
 * wall-clock rates and is NOT byte-stable across runs — it is a
 * trajectory artifact, not a determinism artifact.
 *
 * Usage:
 *   micro_kernel [--events N] [--packets N] [--quick]
 *                [--stats-json FILE]
 */

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "sim/event_queue.hh"
#include "sim/packet.hh"
#include "sim/packet_pool.hh"

namespace
{

using namespace mda;

struct Measurement
{
    std::uint64_t count = 0;
    double seconds = 0.0;

    double rate() const { return count / seconds; }
};

double
now()
{
    // MDA_LINT_ALLOW(DET-1): host events/s is what this bench
    // measures; the wall clock never feeds the simulation.
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * The simulator's scheduling mix: roughly 80% of events land in the
 * same-tick buckets (retry storms, issue chains), 20% in the heap
 * (latencies). A self-rescheduling chain keeps the queue primed
 * without unbounded growth.
 */
Measurement
runEventMix(std::uint64_t target)
{
    EventQueue eq;
    std::uint64_t executed = 0;

    // 8 chains, each: 4 same-tick hops then one +3-tick heap hop.
    struct Chain
    {
        EventQueue *eq;
        std::uint64_t *executed;
        std::uint64_t target;
        unsigned phase = 0;

        void
        operator()()
        {
            ++*executed;
            if (*executed >= target)
                return;
            Chain next = *this;
            next.phase = (phase + 1) % 5;
            if (next.phase == 0)
                eq->scheduleAfter(3, next);
            else
                eq->scheduleAfter(0, next,
                                  EventPriority::Response);
        }
    };

    const double t0 = now();
    for (unsigned c = 0; c < 8; ++c)
        eq.scheduleAfter(c + 1, Chain{&eq, &executed, target});
    eq.run();
    const double t1 = now();
    return {executed, t1 - t0};
}

/** Pure-heap ordering load: every event goes through the 4-ary heap
 *  with a spread of future ticks, no same-tick fast path. */
Measurement
runEventHeap(std::uint64_t target)
{
    EventQueue eq;
    std::uint64_t executed = 0;

    struct Hop
    {
        EventQueue *eq;
        std::uint64_t *executed;
        std::uint64_t target;
        std::uint64_t stride;

        void
        operator()()
        {
            ++*executed;
            if (*executed >= target)
                return;
            // Varied deltas keep the heap a few levels deep.
            eq->scheduleAfter(1 + (stride & 63), *this);
        }
    };

    const double t0 = now();
    for (unsigned c = 0; c < 32; ++c)
        eq.scheduleAfter(c + 1,
                         Hop{&eq, &executed, target, c * 2654435761u});
    eq.run();
    const double t1 = now();
    return {executed, t1 - t0};
}

/**
 * Packet churn with a bounded working set, as the simulator sees it:
 * a window of outstanding packets, oldest released as new ones are
 * made. @p pool selects pooled or heap allocation.
 */
Measurement
runPacketChurn(std::uint64_t target, PacketPool *pool)
{
    constexpr std::size_t window = 64;
    PacketPtr outstanding[window];

    const double t0 = now();
    for (std::uint64_t n = 0; n < target; ++n) {
        // Releases the window's previous occupant, if any.
        outstanding[n % window] = Packet::makeScalar(
            MemCmd::Read, n * wordBytes, Orientation::Row, 0, 0,
            pool);
    }
    for (auto &pkt : outstanding)
        pkt.reset();
    const double t1 = now();
    return {target, t1 - t0};
}

void
printMeasurement(const char *label, const Measurement &m)
{
    std::cout << "  " << label << ": " << m.count << " ops in "
              << m.seconds << " s = " << static_cast<std::uint64_t>(
                     m.rate())
              << " ops/s\n";
}

void
jsonMeasurement(std::ostream &os, const char *key,
                const Measurement &m, bool last = false)
{
    os << "    \"" << key << "\": {\"count\": " << m.count
       << ", \"ratePerSec\": " << static_cast<std::uint64_t>(m.rate())
       << ", \"seconds\": " << m.seconds << "}" << (last ? "\n" : ",\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t event_target = 20'000'000;
    std::uint64_t packet_target = 10'000'000;
    std::string json_path;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(1);
            }
            return argv[++i];
        };
        if (std::strcmp(arg, "--events") == 0) {
            event_target = std::strtoull(next(), nullptr, 10);
        } else if (std::strcmp(arg, "--packets") == 0) {
            packet_target = std::strtoull(next(), nullptr, 10);
        } else if (std::strcmp(arg, "--quick") == 0) {
            event_target = 2'000'000;
            packet_target = 1'000'000;
        } else if (std::strcmp(arg, "--stats-json") == 0) {
            json_path = next();
        } else {
            std::cerr << "unknown option " << arg << "\n";
            return 1;
        }
    }

    std::cout << "event queue (" << event_target << " events):\n";
    Measurement ev_mixed = runEventMix(event_target);
    printMeasurement("mixed 80/20 bucket/heap", ev_mixed);
    Measurement ev_heap = runEventHeap(event_target);
    printMeasurement("heap only", ev_heap);

    std::cout << "packet allocation (" << packet_target
              << " packets, window 64):\n";
    Measurement pkt_heap = runPacketChurn(packet_target, nullptr);
    printMeasurement("heap", pkt_heap);
    PacketPool pool;
    Measurement pkt_pooled = runPacketChurn(packet_target, &pool);
    printMeasurement("pooled", pkt_pooled);
    std::cout << "  pool speedup: "
              << pkt_pooled.rate() / pkt_heap.rate() << "x ("
              << pool.recycled() << " recycled, " << pool.allocated()
              << " slab-fresh)\n";

    if (!json_path.empty()) {
        // MDA_LINT_ALLOW(TRC-1): text stats JSON, not a binary trace.
        std::ofstream os(json_path);
        if (!os) {
            std::cerr << "cannot write " << json_path << "\n";
            return 1;
        }
        // Keys sorted at every level, matching the repo's JSON
        // convention (values here are rates, not deterministic).
        os << "{\n  \"events\": {\n";
        jsonMeasurement(os, "heap", ev_heap);
        jsonMeasurement(os, "mixed", ev_mixed, true);
        os << "  },\n  \"packets\": {\n";
        jsonMeasurement(os, "heap", pkt_heap);
        jsonMeasurement(os, "pooled", pkt_pooled, true);
        os << "  },\n  \"pool\": {\"recycled\": " << pool.recycled()
           << ", \"slabFresh\": " << pool.allocated()
           << ", \"speedup\": "
           << pkt_pooled.rate() / pkt_heap.rate() << "}\n}\n";
    }
    return 0;
}
