/** @file End-to-end tests for debug-flag tracing on a real system. */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>

#include "harness/runner.hh"

namespace mda
{
namespace
{

RunSpec
tinySpec()
{
    RunSpec spec;
    spec.workload = "sgemm";
    spec.n = 16;
    spec.system.design = DesignPoint::D1_1P2L;
    return spec;
}

/** Run tinySpec() printing the debug text of @p flags; return it. */
std::string
debugText(const std::string &flags)
{
    std::ostringstream os;
    observe::Options obs;
    obs.debugOut = &os;
    EXPECT_TRUE(observe::addDebugFlags(flags, obs.debugFlags));
    runOne(tinySpec(), obs);
    return os.str();
}

TEST(DebugTrace, DisabledFlagsProduceNoOutput)
{
    EXPECT_TRUE(debugText("").empty());
}

TEST(DebugTrace, CacheFlagEmitsTraceLines)
{
    auto text = debugText("Cache");
    EXPECT_FALSE(text.empty());
    // Lines carry the [flag] tag and the emitting component's name.
    EXPECT_NE(text.find("[Cache]"), std::string::npos);
    EXPECT_NE(text.find("l1"), std::string::npos);
}

TEST(DebugTrace, FlagsAreSelective)
{
    auto text = debugText("MDAMem");
    EXPECT_NE(text.find("[MDAMem]"), std::string::npos);
    EXPECT_EQ(text.find("[Cache]"), std::string::npos);
}

TEST(DebugTrace, SetFlagsRejectsUnknownNames)
{
    using observe::DebugFlag;
    observe::DebugFlags flags = 0;
    EXPECT_FALSE(observe::addDebugFlags("NoSuchFlag", flags));
    EXPECT_EQ(flags, 0u);
    EXPECT_TRUE(observe::addDebugFlags("Cache,MSHR", flags));
    EXPECT_TRUE(flags & observe::flagBit(DebugFlag::Cache));
    EXPECT_TRUE(flags & observe::flagBit(DebugFlag::MSHR));
    EXPECT_FALSE(flags & observe::flagBit(DebugFlag::TileCache));
}

TEST(DebugTrace, AllEnablesEveryFlag)
{
    observe::DebugFlags flags = 0;
    EXPECT_TRUE(observe::addDebugFlags("All", flags));
    for (unsigned f = 0; f < observe::numDebugFlags; ++f) {
        EXPECT_TRUE(flags & observe::flagBit(
                                static_cast<observe::DebugFlag>(f)))
            << observe::debugFlagInfo[f].name;
    }
}

/**
 * Regression: every "[Event] execute" line is stamped with the tick
 * its event runs at — the "at" tick of the matching schedule line —
 * not with tick 0.
 */
TEST(DebugTrace, EventExecuteLinesCarryTheirTick)
{
    std::istringstream text(debugText("Event"));
    std::map<unsigned long long, unsigned long long> due;
    std::size_t executes = 0;
    std::string line;
    while (std::getline(text, line)) {
        unsigned long long tick = 0, seq = 0, at = 0;
        unsigned prio = 0;
        if (std::sscanf(line.c_str(),
                        "%llu: eventq: [Event] schedule seq %llu at "
                        "%llu prio %u",
                        &tick, &seq, &at, &prio) == 4) {
            due[seq] = at;
        } else if (std::sscanf(line.c_str(),
                               "%llu: eventq: [Event] execute seq %llu "
                               "prio %u",
                               &tick, &seq, &prio) == 3) {
            ASSERT_TRUE(due.count(seq)) << line;
            EXPECT_EQ(tick, due[seq]) << line;
            ++executes;
        } else {
            ADD_FAILURE() << "unexpected line: " << line;
        }
    }
    EXPECT_GT(executes, 0u);
    EXPECT_EQ(executes, due.size());
}

} // namespace
} // namespace mda
