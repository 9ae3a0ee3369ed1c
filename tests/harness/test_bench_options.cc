/**
 * @file
 * BenchOptions::parse argument handling: a value-taking flag as the
 * final argv entry, or with a value that is not a number, must die
 * with a clear message, never silently run the wrong configuration.
 * Also: traced sweeps print the same debug text and Chrome trace at
 * any job count.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "bench_common.hh"

namespace mda::bench
{
namespace
{

BenchOptions
parseArgs(std::vector<const char *> args)
{
    args.insert(args.begin(), "bench");
    return BenchOptions::parse(
        static_cast<int>(args.size()),
        const_cast<char **>(const_cast<const char **>(args.data())));
}

TEST(BenchOptions, ParsesFullCommandLine)
{
    auto opts = parseArgs({"--n", "64", "--jobs", "3", "--workloads",
                           "sgemm,htap1", "--stats-json", "out.json"});
    EXPECT_EQ(opts.n, 64);
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_EQ(opts.workloads,
              (std::vector<std::string>{"sgemm", "htap1"}));
    EXPECT_EQ(opts.statsJsonPath, "out.json");
}

TEST(BenchOptionsDeathTest, MissingValueIsFatal)
{
    // Each value-taking flag, dangling as the final argv entry.
    EXPECT_EXIT(parseArgs({"--n"}), testing::ExitedWithCode(1),
                "missing value for --n");
    EXPECT_EXIT(parseArgs({"--quick", "--workloads"}),
                testing::ExitedWithCode(1),
                "missing value for --workloads");
    EXPECT_EXIT(parseArgs({"--stats-json"}),
                testing::ExitedWithCode(1),
                "missing value for --stats-json");
    EXPECT_EXIT(parseArgs({"--debug-flags"}),
                testing::ExitedWithCode(1),
                "missing value for --debug-flags");
    EXPECT_EXIT(parseArgs({"--jobs"}), testing::ExitedWithCode(1),
                "missing value for --jobs");
}

TEST(BenchOptionsDeathTest, BadNumberIsFatal)
{
    EXPECT_EXIT(parseArgs({"--jobs", "abc"}), testing::ExitedWithCode(1),
                "bad value for --jobs: 'abc'");
    EXPECT_EXIT(parseArgs({"--n", "abc"}), testing::ExitedWithCode(1),
                "bad value for --n: 'abc'");
    // Trailing garbage is not a number either.
    EXPECT_EXIT(parseArgs({"--jobs", "2x"}), testing::ExitedWithCode(1),
                "bad value for --jobs: '2x'");
    EXPECT_EXIT(parseArgs({"--stats-interval", "-5"}),
                testing::ExitedWithCode(1),
                "bad value for --stats-interval: '-5'");
    EXPECT_EXIT(parseArgs({"--sample-period", "1e3"}),
                testing::ExitedWithCode(1),
                "bad value for --sample-period: '1e3'");
}

TEST(BenchOptions, TraceFlagsSetModeAndDirectory)
{
    auto capture = parseArgs({"--trace-capture", "traces"});
    EXPECT_EQ(capture.traceCaptureDir, "traces");
    auto spec = capture.spec("sgemm", DesignPoint::D1_1P2L);
    EXPECT_EQ(spec.system.traceMode, TraceMode::Capture);
    EXPECT_EQ(spec.system.traceDir, "traces");

    auto replay = parseArgs({"--trace-replay", "traces"});
    spec = replay.spec("sgemm", DesignPoint::D1_1P2L);
    EXPECT_EQ(spec.system.traceMode, TraceMode::Replay);
    EXPECT_EQ(spec.system.traceDir, "traces");
}

TEST(BenchOptionsDeathTest, CaptureAndReplayAreExclusive)
{
    EXPECT_EXIT(parseArgs({"--trace-capture", "a", "--trace-replay",
                           "b"}),
                testing::ExitedWithCode(1), "mutually exclusive");
    EXPECT_EXIT(parseArgs({"--trace-capture"}),
                testing::ExitedWithCode(1),
                "missing value for --trace-capture");
    EXPECT_EXIT(parseArgs({"--trace-replay"}),
                testing::ExitedWithCode(1),
                "missing value for --trace-replay");
}

TEST(BenchOptionsDeathTest, BadDimensionIsFatal)
{
    EXPECT_EXIT(parseArgs({"--n", "12"}), testing::ExitedWithCode(1),
                "multiple of 8");
}

/** Three cells of different sizes, so parallel workers finish out
 *  of cell order. */
std::vector<RunSpec>
tracedCells(const BenchOptions &opts)
{
    return {opts.spec("sgemm", DesignPoint::D1_1P2L),
            opts.spec("htap1", DesignPoint::D2_2P2L),
            opts.spec("ssyrk", DesignPoint::D0_1P1L)};
}

/** Debug text and Chrome trace of a sweep::runKept sweep. */
std::pair<std::string, std::string>
keptOutput(const std::vector<RunSpec> &cells, unsigned jobs)
{
    std::ostringstream text;
    observe::Options obs;
    observe::addDebugFlags("All", obs.debugFlags);
    obs.debugOut = &text;
    obs.trace = true;
    auto runs = sweep::runKept(cells, jobs, obs);
    std::vector<const trace::EventLog *> logs;
    for (const auto &run : runs)
        logs.push_back(run.run->system.traceLog());
    std::ostringstream json;
    trace::writeJson(json, logs);
    return {text.str(), json.str()};
}

/** Debug text of the same cells through the bench CellRunner. */
std::string
benchText(const std::vector<const char *> &args)
{
    BenchOptions opts = parseArgs(args);
    std::ostringstream text;
    opts.observe.debugOut = &text;
    CellRunner runner(opts);
    runner.warm(tracedCells(opts));
    return text.str();
}

TEST(TracedSweep, ParallelMatchesSequential)
{
    auto opts = parseArgs({"--n", "16"});
    auto cells = tracedCells(opts);
    auto serial = keptOutput(cells, 1);
    auto parallel = keptOutput(cells, 4);
    EXPECT_FALSE(serial.first.empty());
    EXPECT_TRUE(serial.first == parallel.first)
        << "debug text differs between --jobs 1 and --jobs 4";
    EXPECT_TRUE(serial.second == parallel.second)
        << "Chrome trace differs between --jobs 1 and --jobs 4";
    // Cell i is Chrome process i + 1.
    EXPECT_NE(serial.second.find(R"("pid":3)"), std::string::npos);

    auto bench_serial = benchText(
        {"--n", "16", "--debug-flags", "Cache,MSHR", "--jobs", "1"});
    EXPECT_FALSE(bench_serial.empty());
    EXPECT_TRUE(bench_serial ==
                benchText({"--n", "16", "--debug-flags", "Cache,MSHR",
                           "--jobs", "4"}))
        << "bench debug text differs between --jobs 1 and --jobs 4";
}

} // namespace
} // namespace mda::bench
