/**
 * @file
 * Differential proof that the SoA LineStorage is observably identical
 * to a straightforward per-line-object model.
 *
 * The reference model below is the "array of structs" design the SoA
 * refactor replaced: one struct per frame with explicit valid / line /
 * recency / dirty fields and naive scans. Randomized operation streams
 * (Same-Set style, so crossing lines share a set and the mask sweep is
 * exercised) drive both models in lockstep, and after every operation
 * the full observable state must match: per-slot metadata, victim
 * choice in every set, find() results, crossing-line masks, and the
 * orientation occupancy counters. The shadow map stays enabled the
 * whole time so its bookkeeping is audited by the same streams.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <vector>

#include "cache/storage.hh"
#include "sim/random.hh"

namespace mda
{
namespace
{

/** Per-frame reference entry: the pre-SoA representation. */
struct RefEntry
{
    bool valid = false;
    OrientedLine line{Orientation::Row, 0};
    std::uint64_t lru = 0;
    std::uint8_t dirty = 0;
    bool prefetched = false;
};

/** Array-of-structs reference model with naive scans. */
class RefStorage
{
  public:
    RefStorage(std::uint64_t num_sets, unsigned num_ways)
        : sets(num_sets), ways(num_ways), entries(num_sets * num_ways)
    {
    }

    RefEntry &at(std::uint64_t set, unsigned way)
    {
        return entries[set * ways + way];
    }
    const RefEntry &at(std::uint64_t set, unsigned way) const
    {
        return entries[set * ways + way];
    }

    int
    find(std::uint64_t set, const OrientedLine &line) const
    {
        for (unsigned w = 0; w < ways; ++w) {
            const RefEntry &e = at(set, w);
            if (e.valid && e.line == line)
                return static_cast<int>(w);
        }
        return -1;
    }

    /** First invalid way, else least-recently-used valid way. */
    unsigned
    victim(std::uint64_t set) const
    {
        for (unsigned w = 0; w < ways; ++w)
            if (!at(set, w).valid)
                return w;
        unsigned best = 0;
        for (unsigned w = 1; w < ways; ++w)
            if (at(set, w).lru < at(set, best).lru)
                best = w;
        return best;
    }

    void
    install(std::uint64_t set, unsigned way, const OrientedLine &line)
    {
        RefEntry &e = at(set, way);
        ASSERT_FALSE(e.valid);
        e.valid = true;
        e.line = line;
        e.dirty = 0;
        e.prefetched = false;
        e.lru = ++clock;
        counters(line.orient) += 1;
    }

    void
    invalidate(std::uint64_t set, unsigned way)
    {
        RefEntry &e = at(set, way);
        if (e.valid)
            counters(e.line.orient) -= 1;
        e.valid = false;
        e.lru = 0;
        e.dirty = 0;
    }

    void touch(std::uint64_t set, unsigned way)
    {
        at(set, way).lru = ++clock;
    }

    std::uint8_t
    crossingMask(std::uint64_t set, Orientation cross,
                 std::uint64_t tile) const
    {
        std::uint8_t mask = 0;
        for (unsigned w = 0; w < ways; ++w) {
            const RefEntry &e = at(set, w);
            if (e.valid && e.line.orient == cross &&
                e.line.tile() == tile)
                mask |= static_cast<std::uint8_t>(
                    1u << e.line.index());
        }
        return mask;
    }

    std::uint64_t &counters(Orientation o)
    {
        return o == Orientation::Col ? validCol : validRow;
    }

    std::uint64_t sets;
    unsigned ways;
    std::uint64_t clock = 0;
    std::uint64_t validCol = 0;
    std::uint64_t validRow = 0;
    std::vector<RefEntry> entries;
};

struct Geometry
{
    std::uint64_t sets;
    unsigned ways;
    std::uint64_t tiles;
};

class StorageSoaDifferential
    : public ::testing::TestWithParam<Geometry>
{
  protected:
    /** Same-Set mapping: all 16 lines of a tile share one set. */
    static std::uint64_t
    setFor(const OrientedLine &line, std::uint64_t sets)
    {
        return line.tile() % sets;
    }

    /** Full observable-state comparison after each operation. */
    static void
    expectEqualState(const LineStorage &soa, const RefStorage &ref)
    {
        ASSERT_EQ(soa.validColLines(), ref.validCol);
        ASSERT_EQ(soa.validRowLines(), ref.validRow);
        for (std::uint64_t s = 0; s < ref.sets; ++s) {
            for (unsigned w = 0; w < ref.ways; ++w) {
                StorageSlot slot = soa.slotOf(s, w);
                const RefEntry &e = ref.at(s, w);
                ASSERT_EQ(soa.valid(slot), e.valid)
                    << "set " << s << " way " << w;
                ASSERT_EQ(soa.lruStamp(slot), e.lru);
                ASSERT_EQ(soa.dirtyMask(slot), e.dirty);
                if (e.valid) {
                    ASSERT_EQ(soa.line(slot), e.line);
                    ASSERT_EQ(soa.prefetched(slot), e.prefetched);
                }
            }
            // The victim scan must pick the identical way: the fill
            // path's replacement decisions are what make whole-run
            // stats byte-identical across the refactor.
            ASSERT_EQ(soa.victim(s),
                      soa.slotOf(s, ref.victim(s)));
        }
        ASSERT_TRUE(soa.shadowViolations().empty());
    }
};

TEST_P(StorageSoaDifferential, RandomStreamsMatch)
{
    const Geometry g = GetParam();
    LineStorage soa(g.sets, g.ways);
    soa.enableShadow();
    RefStorage ref(g.sets, g.ways);
    Rng rng(0x50a50a + g.sets * 131 + g.ways);

    auto randomLine = [&] {
        std::uint64_t tile = rng.below(g.tiles);
        std::uint64_t idx = rng.below(lineWords);
        Orientation o = (rng.next() & 1) ? Orientation::Col
                                         : Orientation::Row;
        return OrientedLine(o, (tile << 3) | idx);
    };

    for (unsigned step = 0; step < 4000; ++step) {
        const unsigned op = static_cast<unsigned>(rng.below(100));
        OrientedLine line = randomLine();
        std::uint64_t set = setFor(line, g.sets);
        if (op < 45) {
            // Access: hit touches + maybe dirties, miss fills via the
            // victim scan (evicting whatever both models agree on).
            StorageSlot slot = soa.find(set, line);
            int way = ref.find(set, line);
            ASSERT_EQ(slot != kNoSlot, way >= 0);
            if (slot == kNoSlot) {
                slot = soa.victim(set);
                unsigned vw = ref.victim(set);
                ASSERT_EQ(slot, soa.slotOf(set, vw));
                if (soa.valid(slot))
                    soa.invalidate(slot);
                ref.invalidate(set, vw);
                soa.install(slot, line);
                ref.install(set, vw, line);
                bool pf = (rng.next() & 1) != 0;
                soa.setPrefetched(slot, pf);
                ref.at(set, vw).prefetched = pf;
            } else {
                soa.touch(slot);
                ref.touch(set, static_cast<unsigned>(way));
            }
            if (rng.next() & 1) {
                unsigned k = static_cast<unsigned>(
                    rng.below(lineWords));
                soa.setWord(slot, k, rng.next(), true);
                ref.at(set, slot % g.ways).dirty |=
                    static_cast<std::uint8_t>(1u << k);
            }
        } else if (op < 60) {
            // Targeted invalidation of a random way (sparse-fill /
            // eviction edges).
            unsigned w = static_cast<unsigned>(rng.below(g.ways));
            soa.invalidate(soa.slotOf(set, w));
            ref.invalidate(set, w);
        } else if (op < 85) {
            // The Fig. 9 duplicate probe: the mask intersection over
            // the packed tag array vs the naive orientation scan.
            std::uint64_t tile = line.tile();
            Orientation cross = (rng.next() & 1) ? Orientation::Col
                                                 : Orientation::Row;
            std::array<StorageSlot, lineWords> slots{};
            std::uint8_t mask =
                soa.crossingMask(set, cross, tile, slots);
            ASSERT_EQ(mask, ref.crossingMask(set, cross, tile));
            for (unsigned k = 0; k < lineWords; ++k) {
                if (!(mask & (1u << k)))
                    continue;
                OrientedLine want(cross, (tile << 3) | k);
                ASSERT_EQ(soa.line(slots[k]), want);
                ASSERT_EQ(slots[k], soa.find(set, want));
            }
            // Write-evicts-duplicates: drop every hit, as the 2P2L
            // write path does, and the models must stay in lockstep.
            if (mask != 0 && (rng.next() & 3) == 0) {
                for (unsigned k = 0; k < lineWords; ++k) {
                    if (!(mask & (1u << k)))
                        continue;
                    soa.invalidate(slots[k]);
                    ref.invalidate(
                        set, static_cast<unsigned>(slots[k] % g.ways));
                }
            }
        } else {
            // Pure probe: misses agree too.
            ASSERT_EQ(soa.find(set, line) != kNoSlot,
                      ref.find(set, line) >= 0);
        }
        ASSERT_NO_FATAL_FAILURE(expectEqualState(soa, ref));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, StorageSoaDifferential,
    ::testing::Values(
        // 2P2L Same-Set shape: one big set per tile group, every
        // line of a tile in the same set, heavy crossing traffic.
        Geometry{2, 16, 6},
        // Small associative shape: constant eviction pressure.
        Geometry{4, 4, 8},
        // Single-set corner: victim policy is fully exposed.
        Geometry{1, 8, 3}),
    [](const ::testing::TestParamInfo<Geometry> &param_info) {
        // Appended piecewise: gcc 12 reports a false -Wrestrict for a
        // literal prepended to a temporary at -O3.
        const Geometry &g = param_info.param;
        std::string name = "s";
        name += std::to_string(g.sets);
        name += 'w';
        name += std::to_string(g.ways);
        name += 't';
        name += std::to_string(g.tiles);
        return name;
    });

} // namespace
} // namespace mda
