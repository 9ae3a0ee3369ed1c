/**
 * @file
 * Whole-stack integration: every paper workload through every design
 * point with functional checking on — compiler, trace generation,
 * CPU, three cache levels, and the MDA memory all have to agree on
 * every byte for these to pass.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"

namespace mda
{
namespace
{

class EndToEnd
    : public ::testing::TestWithParam<
          std::tuple<std::string, DesignPoint>>
{};

TEST_P(EndToEnd, FunctionallyClean)
{
    const auto &[workload, design] = GetParam();
    RunSpec spec;
    spec.workload = workload;
    spec.n = 24; // small but past several tile boundaries
    spec.system.design = design;
    spec.system.checkData = true;
    auto result = runOne(spec);
    EXPECT_EQ(result.checkFailures, 0u);
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.ops, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAllDesigns, EndToEnd,
    ::testing::Combine(
        ::testing::Values("sgemm", "ssyr2k", "ssyrk", "strmm", "sobel",
                          "htap1", "htap2"),
        ::testing::Values(DesignPoint::D0_1P1L, DesignPoint::D1_1P2L,
                          DesignPoint::D1_1P2L_SameSet,
                          DesignPoint::D2_2P2L)),
    [](const auto &param_info) {
        return std::get<0>(param_info.param) + "_" +
               designName(std::get<1>(param_info.param));
    });

/** The headline directional claim: on a working set much larger than
 *  the caches, MDA designs beat the prefetching baseline and move far
 *  less memory traffic. */
TEST(EndToEndShape, MdaBeatsBaselineOffCacheWorkingSet)
{
    RunSpec spec;
    spec.workload = "sgemm";
    spec.n = 64;
    spec.autoScaleCaches = false;
    spec.system.l1Size = 4 * 1024;
    spec.system.l2Size = 8 * 1024;
    spec.system.l3Size = 16 * 1024; // 96 KiB working set
    spec.system.design = DesignPoint::D0_1P1L;
    auto base = runOne(spec);
    spec.system.design = DesignPoint::D1_1P2L;
    auto mda = runOne(spec);
    EXPECT_LT(mda.cycles, base.cycles);
    EXPECT_LT(mda.memBytes, base.memBytes);
    spec.system.design = DesignPoint::D2_2P2L;
    auto tile = runOne(spec);
    EXPECT_LT(tile.cycles, base.cycles);
}

} // namespace
} // namespace mda
