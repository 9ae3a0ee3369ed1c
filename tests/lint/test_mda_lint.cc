/**
 * @file
 * Self-tests for the mda-lint tokenizer engine: each rule family has
 * a fixture with deliberate violations and golden finding
 * assertions, a clean fixture must produce zero findings, and the
 * suppression-comment and baseline mechanisms round-trip. The binary
 * path and fixture dir come from CMake via MDA_LINT_BIN /
 * MDA_LINT_FIXTURES.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
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
    std::string cmd = std::string(MDA_LINT_BIN) + " " + args + " 2>&1";
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

std::string
fixture(const std::string &name)
{
    return std::string(MDA_LINT_FIXTURES) + "/" + name;
}

/** Lint one fixture with the fixture probe registry. */
RunResult
lintFixture(const std::string &name)
{
    return run("--root " + std::string(MDA_SOURCE_ROOT) +
               " --probe-header " + fixture("fake_probe.hh") + " " +
               fixture(name));
}

/** Golden assertion: the output contains "<file>:<line>: [<rule>]". */
void
expectFinding(const RunResult &r, const std::string &file, int line,
              const std::string &rule)
{
    std::string needle =
        file + ":" + std::to_string(line) + ": [" + rule + "]";
    EXPECT_NE(r.output.find(needle), std::string::npos)
        << "missing finding '" << needle << "' in:\n" << r.output;
}

int
countFindings(const RunResult &r, const std::string &rule)
{
    std::string needle = "[" + rule + "]";
    int n = 0;
    for (std::size_t pos = 0;
         (pos = r.output.find(needle, pos)) != std::string::npos;
         pos += needle.size()) {
        ++n;
    }
    return n;
}

const std::string fixprefix = "tests/lint/fixtures/";

TEST(MdaLint, Det1CatchesEveryNondeterminismSource)
{
    RunResult r = lintFixture("det1_violation.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "det1_violation.cc";
    expectFinding(r, f, 11, "DET-1"); // srand
    expectFinding(r, f, 12, "DET-1"); // time(
    expectFinding(r, f, 13, "DET-1"); // rand
    expectFinding(r, f, 14, "DET-1"); // random_device
    expectFinding(r, f, 15, "DET-1"); // steady_clock
    EXPECT_EQ(countFindings(r, "DET-1"), 5) << r.output;
}

TEST(MdaLint, Det2CatchesUnorderedContainers)
{
    RunResult r = lintFixture("det2_violation.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "det2_violation.cc";
    expectFinding(r, f, 11, "DET-2"); // unordered_map decl
    expectFinding(r, f, 12, "DET-2"); // unordered_set decl
    // The #include lines must NOT be flagged: 2 container mentions
    // outside preprocessor lines, 2 findings.
    EXPECT_EQ(countFindings(r, "DET-2"), 2) << r.output;
}

TEST(MdaLint, Det3CatchesAddressDerivedOrdering)
{
    RunResult r = lintFixture("det3_violation.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "det3_violation.cc";
    expectFinding(r, f, 14, "DET-3"); // uintptr_t in sort comparator
    expectFinding(r, f, 15, "DET-3"); // uintptr_t in sort comparator
    expectFinding(r, f, 22, "DET-3"); // intptr_t cast
    expectFinding(r, f, 23, "DET-3"); // uintptr_t cast
    // The #include <cstdint> line must NOT be flagged.
    EXPECT_EQ(countFindings(r, "DET-3"), 4) << r.output;
}

TEST(MdaLint, Evt1CatchesNegativeTicksAndBlockingCalls)
{
    RunResult r = lintFixture("evt1_violation.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "evt1_violation.cc";
    expectFinding(r, f, 15, "EVT-1"); // scheduleAfter(-5
    expectFinding(r, f, 16, "EVT-1"); // schedule(\n -1 across lines
    expectFinding(r, f, 18, "EVT-1"); // sleep_for
    EXPECT_EQ(countFindings(r, "EVT-1"), 3) << r.output;
}

TEST(MdaLint, Obs1CatchesUnregisteredStats)
{
    RunResult r = lintFixture("obs1_stats.hh");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "obs1_stats.hh";
    expectFinding(r, f, 17, "OBS-1"); // _orphanMisses
    expectFinding(r, f, 18, "OBS-1"); // _orphanLat
    // _hits is registered via &_hits and must not be flagged.
    EXPECT_EQ(countFindings(r, "OBS-1"), 2) << r.output;
}

TEST(MdaLint, Obs2CatchesUnregisteredProbePoints)
{
    RunResult r = lintFixture("obs2_violation.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "obs2_violation.cc";
    expectFinding(r, f, 10, "OBS-2"); // MDA_PROBE(probes.dropped
    expectFinding(r, f, 11, "OBS-2"); // wrapped MDA_PROBE( call
    expectFinding(r, f, 14, "OBS-2"); // probes.lost.fire(
    // Registered sites (accepted, retired) and the suppressed
    // scratch point must not be flagged: exactly 3 findings.
    EXPECT_EQ(countFindings(r, "OBS-2"), 3) << r.output;
}

TEST(MdaLint, Hdr1CatchesGuardAndUsingNamespace)
{
    RunResult r = lintFixture("hdr1_violation.hh");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "hdr1_violation.hh";
    expectFinding(r, f, 3, "HDR-1"); // guard name
    expectFinding(r, f, 6, "HDR-1"); // using namespace
    EXPECT_EQ(countFindings(r, "HDR-1"), 2) << r.output;
}

TEST(MdaLint, Hdr1AcceptsMatchingGuardRejectsMismatchedDefine)
{
    // clean.hh has the conforming guard: no HDR-1 findings at all.
    RunResult clean = lintFixture("clean.hh");
    EXPECT_EQ(countFindings(clean, "HDR-1"), 0) << clean.output;
}

TEST(MdaLint, Trc1ConfinesRawFileIo)
{
    RunResult r = lintFixture("trc1_violation.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "trc1_violation.cc";
    expectFinding(r, f, 11, "TRC-1"); // fopen
    expectFinding(r, f, 12, "TRC-1"); // ifstream
    expectFinding(r, f, 13, "TRC-1"); // ofstream
    expectFinding(r, f, 14, "TRC-1"); // fstream
    expectFinding(r, f, 15, "TRC-1"); // mmap
    // The annotated stats-JSON write at the bottom is waived: exactly
    // five findings, none for the allowed line.
    EXPECT_EQ(countFindings(r, "TRC-1"), 5) << r.output;
}

TEST(MdaLint, CleanFixturesProduceNoFindings)
{
    for (const char *name : {"clean.hh", "suppressed.cc"}) {
        RunResult r = lintFixture(name);
        EXPECT_EQ(r.exitCode, 0) << name << ":\n" << r.output;
        EXPECT_NE(r.output.find("mda-lint: clean"),
                  std::string::npos)
            << name << ":\n" << r.output;
    }
}

TEST(MdaLint, SuppressionRequiresAReason)
{
    // Same violation, allow comment without a reason: still flagged,
    // and the reasonless annotation itself is a SUP-1 finding.
    RunResult r = lintFixture("unreasoned.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    expectFinding(r, fixprefix + "unreasoned.cc", 10, "DET-2");
    expectFinding(r, fixprefix + "unreasoned.cc", 9, "SUP-1");
}

TEST(MdaLint, Sup1FlagsStaleAndUnknownAllows)
{
    RunResult r = lintFixture("stale_allow.cc");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "stale_allow.cc";
    expectFinding(r, f, 11, "SUP-1"); // Reasoned allow, no finding.
    expectFinding(r, f, 16, "SUP-1"); // DET-9: unknown rule.
    // The CONC-1 allow belongs to mda-analyze: exactly 2 findings,
    // nothing else reported.
    EXPECT_EQ(countFindings(r, "SUP-1"), 2) << r.output;
    EXPECT_EQ(countFindings(r, "CONC-1"), 0) << r.output;
}

TEST(MdaLint, Sup1StaysQuietWhenEveryAllowSuppresses)
{
    // suppressed.cc: every allow waives a live finding; no SUP-1.
    RunResult r = lintFixture("suppressed.cc");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_EQ(countFindings(r, "SUP-1"), 0) << r.output;
}

TEST(MdaLint, BaselineRoundTrip)
{
    // Write the violation fixture's findings to a baseline, then
    // re-lint against it: everything grandfathers, exit goes clean.
    std::string baseline =
        ::testing::TempDir() + "/mda_lint_baseline.txt";
    RunResult w = run("--root " + std::string(MDA_SOURCE_ROOT) +
                      " --write-baseline " + baseline + " " +
                      fixture("det1_violation.cc"));
    EXPECT_EQ(w.exitCode, 1) << w.output;

    RunResult r = run("--root " + std::string(MDA_SOURCE_ROOT) +
                      " --baseline " + baseline + " " +
                      fixture("det1_violation.cc"));
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("baseline-suppressed"),
              std::string::npos)
        << r.output;
    std::remove(baseline.c_str());
}

TEST(MdaLint, ListRulesNamesEveryFamily)
{
    RunResult r = run("--list-rules");
    EXPECT_EQ(r.exitCode, 0);
    for (const char *rule :
         {"DET-1", "DET-2", "DET-3", "EVT-1", "OBS-1", "OBS-2",
          "HDR-1", "TRC-1", "SUP-1"}) {
        EXPECT_NE(r.output.find(rule), std::string::npos)
            << "missing " << rule << " in:\n" << r.output;
    }
}

TEST(MdaLint, UnknownOptionFailsFast)
{
    RunResult r = run("--no-such-option");
    EXPECT_EQ(r.exitCode, 2) << r.output;
}

} // namespace
