/**
 * @file
 * End-to-end checks of the mdacache_sim front end: a numeric option
 * given a value that is not a number must fail with an explanatory
 * fatal() and exit code 1 — not abort on an uncaught exception, and
 * not run with the number's leading digits. The binary path comes
 * from CMake via MDA_SIM_BIN.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace
{

struct RunResult
{
    int exitCode = -1;
    std::string output; // stdout + stderr
};

RunResult
run(const std::string &args)
{
    std::string cmd = std::string(MDA_SIM_BIN) + " " + args + " 2>&1";
    RunResult r;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return r;
    }
    char buf[512];
    while (fgets(buf, sizeof(buf), pipe))
        r.output += buf;
    int status = pclose(pipe);
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

void
expectBadValue(const std::string &option, const std::string &value)
{
    RunResult r = run(option + " " + value);
    EXPECT_EQ(r.exitCode, 1) << option << " " << value << "\n"
                             << r.output;
    std::string needle = "bad value for " + option + ": '" + value + "'";
    EXPECT_NE(r.output.find(needle), std::string::npos)
        << option << " " << value << " output:\n" << r.output;
}

TEST(SimCliDeathTest, BadNumberIsFatal)
{
    expectBadValue("--n", "abc");
    expectBadValue("--trace-max-events", "abc");
    expectBadValue("--jobs", "2x");
    expectBadValue("--llc", "2Q");
    expectBadValue("--write-penalty", "-1");
    expectBadValue("--sample-period", "1.5");
}

} // namespace
