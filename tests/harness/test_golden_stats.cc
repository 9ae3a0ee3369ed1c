/**
 * @file
 * Golden-stats pinning: refactors of the cache state machines must be
 * invisible in every statistic. The committed archives under
 * tests/harness/golden/ were captured from the pre-refactor builds;
 * this suite re-runs all 10 zoo+paper workloads through the
 * CellRunner archive path and asserts the emitted --stats-json bytes
 * match the goldens exactly — at --jobs 1 and at --jobs 4, on every
 * LineCache design and on both TileCache (2P2L sparse and dense)
 * designs. Each design is pinned twice: once fully timed, and once
 * SMARTS-sampled (period 200, window 20 — at least 4 windows per
 * workload), so the functional fast-forward path between windows is
 * pinned as tightly as the timed one.
 *
 * Regenerating (only legitimate when a PR deliberately changes
 * simulated behavior or the stats schema):
 *
 *   MDA_UPDATE_GOLDEN=1 ./build/tests/harness/test_golden_stats
 *
 * writes fresh archives into the source tree; commit them with the
 * behavior change that motivated the refresh.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "harness/runner.hh"
#include "workloads/kernels.hh"

namespace mda
{
namespace
{

#ifndef MDA_GOLDEN_DIR
#error "MDA_GOLDEN_DIR must point at tests/harness/golden"
#endif

/** All 10 workloads: the 7 paper kernels plus the serving zoo. */
std::vector<std::string>
allWorkloads()
{
    std::vector<std::string> names = workloads::workloadNames();
    for (const auto &name : workloads::zooWorkloadNames())
        names.push_back(name);
    return names;
}

/** Sampled archives: of every samplePeriod ops, 2 x sampleWindow
 *  run timed (warm-up + measured window), the rest fast-forward. */
constexpr std::uint64_t goldenSamplePeriod = 200;
constexpr std::uint64_t goldenSampleWindow = 20;

std::vector<RunSpec>
goldenSpecs(DesignPoint design, bool sampled)
{
    std::vector<RunSpec> specs;
    for (const auto &workload : allWorkloads()) {
        RunSpec spec;
        spec.workload = workload;
        // spmv's hot-column set needs n >= 32; one size for all keeps
        // the archive layout obvious.
        spec.n = 32;
        spec.system.design = design;
        if (sampled) {
            spec.system.samplePeriod = goldenSamplePeriod;
            spec.system.sampleWindow = goldenSampleWindow;
        }
        specs.push_back(spec);
    }
    return specs;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return {};
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** Run the archive sweep with @p jobs workers and return its bytes. */
std::string
archiveBytes(DesignPoint design, bool sampled, unsigned jobs)
{
    std::string path = testing::TempDir() + "golden_archive_" +
                       designName(design) + (sampled ? "_s" : "") +
                       "_j" + std::to_string(jobs) + ".json";
    {
        bench::CellRunner runner(path, jobs);
        std::vector<RunSpec> specs = goldenSpecs(design, sampled);
        runner.warm(specs);
        for (const auto &spec : specs)
            runner(spec);
    } // archive written on destruction
    std::string bytes = readFile(path);
    std::remove(path.c_str());
    return bytes;
}

std::string
goldenPath(DesignPoint design, bool sampled)
{
    std::string sampling =
        sampled ? "_p" + std::to_string(goldenSamplePeriod) + "w" +
                      std::to_string(goldenSampleWindow)
                : "";
    return std::string(MDA_GOLDEN_DIR) + "/stats_" +
           designName(design) + "_n32" + sampling + ".json";
}

bool
updateRequested()
{
    const char *env = std::getenv("MDA_UPDATE_GOLDEN");
    return env && std::string(env) != "0";
}

/** Compare the jobs=1 and jobs=4 archives of @p design against its
 *  golden, or regenerate the golden when asked to. */
void
checkGolden(DesignPoint design, bool sampled)
{
    const std::string golden_path = goldenPath(design, sampled);
    std::string j1 = archiveBytes(design, sampled, 1);
    ASSERT_FALSE(j1.empty());

    if (updateRequested()) {
        std::ofstream os(golden_path, std::ios::binary);
        ASSERT_TRUE(os.good()) << golden_path;
        os << j1;
        GTEST_SKIP() << "golden regenerated: " << golden_path;
    }

    std::string golden = readFile(golden_path);
    ASSERT_FALSE(golden.empty())
        << "missing golden archive " << golden_path
        << " (regenerate with MDA_UPDATE_GOLDEN=1)";

    EXPECT_EQ(golden, j1)
        << golden_path
        << ": jobs=1 archive diverged from the pre-refactor golden";

    std::string j4 = archiveBytes(design, sampled, 4);
    EXPECT_EQ(golden, j4)
        << golden_path
        << ": jobs=4 archive diverged from the pre-refactor golden";
}

class GoldenStats : public testing::TestWithParam<DesignPoint>
{
};

TEST_P(GoldenStats, ByteIdenticalAtJobs1AndJobs4)
{
    checkGolden(GetParam(), false);
}

TEST_P(GoldenStats, SampledByteIdenticalAtJobs1AndJobs4)
{
    checkGolden(GetParam(), true);
}

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, GoldenStats,
    testing::Values(DesignPoint::D0_1P1L, DesignPoint::D1_1P2L,
                    DesignPoint::D1_1P2L_SameSet,
                    DesignPoint::D2_2P2L, DesignPoint::D2_2P2L_Dense),
    [](const testing::TestParamInfo<DesignPoint> &param_info) {
        std::string name = designName(param_info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace mda
