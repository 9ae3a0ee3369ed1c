/**
 * @file
 * Determinism: the same specification must produce bit-identical
 * results across runs — the property every simulation study depends
 * on for reproducibility.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"

namespace mda
{
namespace
{

class DeterminismSweep : public ::testing::TestWithParam<DesignPoint>
{};

TEST_P(DeterminismSweep, RepeatedRunsAreIdentical)
{
    RunSpec spec;
    spec.workload = "htap1"; // includes randomized (seeded) indices
    spec.n = 32;
    spec.system.design = GetParam();

    PreparedRun first(spec);
    auto r1 = first.system.run();
    PreparedRun second(spec);
    auto r2 = second.system.run();

    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.ops, r2.ops);
    EXPECT_EQ(r1.llcAccesses, r2.llcAccesses);
    EXPECT_EQ(r1.memBytes, r2.memBytes);

    // Every scalar statistic matches exactly.
    auto names = first.system.statGroup().scalarNames();
    for (const auto &name : names) {
        EXPECT_DOUBLE_EQ(first.system.statGroup().scalar(name),
                         second.system.statGroup().scalar(name))
            << name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, DeterminismSweep,
    ::testing::Values(DesignPoint::D0_1P1L, DesignPoint::D1_1P2L,
                      DesignPoint::D1_1P2L_SameSet,
                      DesignPoint::D2_2P2L,
                      DesignPoint::D2_2P2L_Dense),
    [](const auto &param_info) {
        return std::string(designName(param_info.param));
    });

/**
 * Packet pooling is a pure allocation strategy: turning it off must
 * not move a single statistic. Any divergence means pool state leaked
 * into simulated behavior (stale payload, address-ordered free list).
 */
TEST(Determinism, PacketPoolingDoesNotChangeStats)
{
    RunSpec spec;
    spec.workload = "htap1";
    spec.n = 32;
    spec.system.design = DesignPoint::D1_1P2L;

    RunSpec no_pool = spec;
    no_pool.system.packetPooling = false;

    PreparedRun pooled(spec);
    auto rp = pooled.system.run();
    PreparedRun heap(no_pool);
    auto rh = heap.system.run();

    EXPECT_EQ(rp.cycles, rh.cycles);
    EXPECT_EQ(rp.ops, rh.ops);
    EXPECT_EQ(rp.llcAccesses, rh.llcAccesses);
    EXPECT_EQ(rp.memBytes, rh.memBytes);

    auto names = pooled.system.statGroup().scalarNames();
    for (const auto &name : names) {
        EXPECT_DOUBLE_EQ(pooled.system.statGroup().scalar(name),
                         heap.system.statGroup().scalar(name))
            << name;
    }
}

/**
 * Fill/writeback classification pinning: a capacity-stressed run must
 * report both fills and writebacks, and every writeback leaving L1
 * must arrive at L2 as a writeback — not be absorbed into L2's fill
 * count. Regression for makeWriteback tagging packets as line fills.
 */
TEST(Determinism, WritebacksAreNotCountedAsFills)
{
    RunSpec spec;
    spec.workload = "sgemm";
    spec.n = 32;
    spec.system.design = DesignPoint::D1_1P2L;

    PreparedRun run(spec);
    run.system.run();
    const auto &stats = run.system.statGroup();

    const double l1_fills = stats.scalar("l1.fills");
    const double l1_wb_out = stats.scalar("l1.writebacksOut");
    const double l1_wb_bytes = stats.scalar("l1.bytesWrittenBack");
    const double l2_wb_in = stats.scalar("l2.writebacksIn");

    EXPECT_GT(l1_fills, 0.0);
    EXPECT_GT(l1_wb_out, 0.0);
    EXPECT_GT(l1_wb_bytes, 0.0);
    // The two packet classes stay distinct across the level boundary.
    EXPECT_DOUBLE_EQ(l2_wb_in, l1_wb_out);
}

TEST(Determinism, DifferentSeedsChangeHtapButNotBlas)
{
    RunSpec a, b;
    a.workload = b.workload = "htap2";
    a.n = b.n = 32;
    b.seed = 12345;
    EXPECT_NE(runOne(a).memBytes, runOne(b).memBytes);

    a.workload = b.workload = "sgemm";
    EXPECT_EQ(runOne(a).cycles, runOne(b).cycles);
}

} // namespace
} // namespace mda
