/**
 * @file
 * Parameterized property sweeps: functional coherence across cache
 * geometries/mappings, decode invariants across memory topologies,
 * and design-point invariants across workloads.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "mem/address_decode.hh"
#include "sim/random.hh"
#include "test_rig.hh"

namespace mda::testing
{
namespace
{

// ---------------------------------------------------------------
// Sweep 1: random-traffic coherence across cache geometries.
// ---------------------------------------------------------------

struct GeometryCase
{
    LineMapping mapping;
    std::uint64_t bytes;
    unsigned ways;
};

class CacheGeometrySweep
    : public ::testing::TestWithParam<GeometryCase>
{};

TEST_P(CacheGeometrySweep, RandomTrafficMatchesReference)
{
    const auto &param = GetParam();
    TestRig rig;
    CacheConfig cfg = tinyCache(param.bytes, param.ways);
    rig.addLineCache(cfg, param.mapping, "l1");
    rig.connect();

    Rng rng(param.bytes * 31 + param.ways);
    std::map<Addr, std::uint64_t> ref;
    std::uint64_t next = 1;
    for (unsigned n = 0; n < 1200; ++n) {
        std::uint64_t tile = rng.below(5);
        Addr addr = tileBase(tile) + rng.below(64) * wordBytes;
        auto orient = (param.mapping == LineMapping::OneD ||
                       rng.chance(0.5))
                          ? Orientation::Row
                          : Orientation::Col;
        if (param.mapping == LineMapping::OneD)
            orient = Orientation::Row;
        if (rng.chance(0.45)) {
            std::uint64_t v = next++;
            ref[addr] = v;
            rig.writeWord(addr, v, orient);
        } else {
            auto it = ref.find(addr);
            std::uint64_t want = it == ref.end() ? 0 : it->second;
            ASSERT_EQ(rig.readWord(addr, orient), want)
                << "at op " << n;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Values(
        GeometryCase{LineMapping::OneD, 512, 1},
        GeometryCase{LineMapping::OneD, 2048, 4},
        GeometryCase{LineMapping::TwoDDiffSet, 512, 1},
        GeometryCase{LineMapping::TwoDDiffSet, 1024, 2},
        GeometryCase{LineMapping::TwoDDiffSet, 4096, 8},
        GeometryCase{LineMapping::TwoDSameSet, 1024, 2},
        GeometryCase{LineMapping::TwoDSameSet, 4096, 4},
        GeometryCase{LineMapping::TwoDSameSet, 8192, 8}),
    [](const auto &param_info) {
        return std::string(mappingName(param_info.param.mapping)) + "_" +
               std::to_string(param_info.param.bytes) + "B_" +
               std::to_string(param_info.param.ways) + "w";
    });

// ---------------------------------------------------------------
// Sweep 2: decode invariants across memory topologies.
// ---------------------------------------------------------------

struct TopologyCase
{
    unsigned channels, ranks, banks, colSelBits;
};

class TopologySweep : public ::testing::TestWithParam<TopologyCase>
{};

TEST_P(TopologySweep, LinesStayBankUniform)
{
    const auto &param = GetParam();
    MemTopologyParams topo;
    topo.channels = param.channels;
    topo.ranksPerChannel = param.ranks;
    topo.banksPerRank = param.banks;
    topo.colSelBits = param.colSelBits;
    AddressDecoder dec(topo);

    Rng rng(param.channels * 131 + param.banks);
    for (int n = 0; n < 2000; ++n) {
        std::uint64_t tile = rng.below(1 << 20);
        for (auto orient : {Orientation::Row, Orientation::Col}) {
            OrientedLine line(orient, (tile << 3) | rng.below(8));
            DecodedAddr first = dec.decode(line.wordAddr(0));
            std::uint64_t tag =
                dec.bufferTag(line.baseAddr(), orient);
            for (unsigned w = 1; w < lineWords; ++w) {
                DecodedAddr d = dec.decode(line.wordAddr(w));
                ASSERT_EQ(d.flatBank, first.flatBank);
                // Every word shares the line's buffer tag.
                ASSERT_EQ(orient == Orientation::Row ? d.physRow
                                                     : d.physCol,
                          tag);
            }
        }
    }
}

TEST_P(TopologySweep, InterleaveCoversAllBanks)
{
    const auto &param = GetParam();
    MemTopologyParams topo;
    topo.channels = param.channels;
    topo.ranksPerChannel = param.ranks;
    topo.banksPerRank = param.banks;
    topo.colSelBits = param.colSelBits;
    AddressDecoder dec(topo);

    std::set<unsigned> banks;
    for (std::uint64_t tile = 0; tile < 4096; ++tile)
        banks.insert(dec.decode(tileBase(tile)).flatBank);
    EXPECT_EQ(banks.size(), topo.totalBanks());
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, TopologySweep,
    ::testing::Values(TopologyCase{1, 1, 1, 4},
                      TopologyCase{1, 1, 8, 6},
                      TopologyCase{2, 1, 4, 5},
                      TopologyCase{4, 1, 8, 6},
                      TopologyCase{4, 2, 8, 7},
                      TopologyCase{8, 2, 16, 6}),
    [](const auto &param_info) {
        return std::to_string(param_info.param.channels) + "ch" +
               std::to_string(param_info.param.ranks) + "rk" +
               std::to_string(param_info.param.banks) + "bk" +
               std::to_string(param_info.param.colSelBits) + "cs";
    });

// ---------------------------------------------------------------
// Sweep 3: every workload/design pair obeys basic conservation laws.
// ---------------------------------------------------------------

class ConservationSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, DesignPoint>>
{};

TEST_P(ConservationSweep, StatisticsAreConsistent)
{
    const auto &[workload, design] = GetParam();
    RunSpec spec;
    spec.workload = workload;
    spec.n = 24;
    spec.system.design = design;
    PreparedRun run(spec);
    auto result = run.system.run();
    const auto &sg = run.system.statGroup();

    // Hits + misses account for every demand access, per level.
    for (const auto &lvl : {"l1", "l2", "l3"}) {
        double acc = sg.scalar(std::string(lvl) + ".demandAccesses");
        double hits = sg.scalar(std::string(lvl) + ".demandHits");
        double misses = sg.scalar(std::string(lvl) + ".demandMisses");
        EXPECT_EQ(acc, hits + misses) << lvl;
    }
    // The CPU issued exactly the trace's operations and got them all
    // back.
    EXPECT_EQ(sg.scalar("cpu.ops"),
              sg.scalar("cpu.readOps") + sg.scalar("cpu.writeOps"));
    // Memory reads/writes carried at least a word each.
    EXPECT_GE(sg.scalar("mem.bytesRead"),
              sg.scalar("mem.readReqs") * wordBytes);
    EXPECT_GT(result.cycles, result.ops / 2); // <=1 issue per cycle +
                                              // compute
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, ConservationSweep,
    ::testing::Combine(
        ::testing::ValuesIn(workloads::workloadNames()),
        ::testing::Values(DesignPoint::D0_1P1L, DesignPoint::D1_1P2L,
                          DesignPoint::D1_1P2L_SameSet,
                          DesignPoint::D2_2P2L,
                          DesignPoint::D2_2P2L_Dense)),
    [](const auto &param_info) {
        return std::get<0>(param_info.param) + "_" +
               designName(std::get<1>(param_info.param));
    });

} // namespace
} // namespace mda::testing
