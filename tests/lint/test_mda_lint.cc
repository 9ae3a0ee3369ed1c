/**
 * @file
 * Self-tests for mda-lint: every rule has a violation fixture with
 * golden finding assertions, clean and suppressed fixtures must lint
 * clean, and the suppression-comment and baseline mechanisms
 * round-trip. MdaLint holds the per-file rules and the driver;
 * MdaAnalyze holds the whole-program LIF/CONC rules, whose clean
 * fixtures pin the sanctioned patterns from the real tree and whose
 * interprocedural pair proves release summaries cross file
 * boundaries. The binary path and fixture dir come from CMake via
 * MDA_LINT_BIN / MDA_LINT_FIXTURES.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <string>

namespace
{

struct RunResult
{
    int exitCode = -1;
    std::string output; // stdout + stderr
};

/** Run mda-lint with --root set to the source tree. */
RunResult
run(const std::string &args)
{
    std::string cmd = MDA_LINT_BIN " --root " MDA_SOURCE_ROOT " ";
    cmd += args;
    cmd += " 2>&1";
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
    std::string path = MDA_LINT_FIXTURES "/";
    path += name;
    return path;
}

/** Lint fixtures together, in one pass, with the fixture probe
 *  registry. */
RunResult
lintFixtures(std::initializer_list<const char *> names)
{
    std::string args = "--probe-header ";
    args += fixture("fake_probe.hh");
    for (const char *name : names) {
        args += ' ';
        args += fixture(name);
    }
    return run(args);
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
countOf(const RunResult &r, const std::string &needle)
{
    int n = 0;
    for (std::size_t pos = 0;
         (pos = r.output.find(needle, pos)) != std::string::npos;
         pos += needle.size()) {
        ++n;
    }
    return n;
}

int
countFindings(const RunResult &r, const std::string &rule)
{
    return countOf(r, "[" + rule + "]");
}

const std::string fixprefix = "tests/lint/fixtures/";

TEST(MdaLint, Det1CatchesEveryNondeterminismSource)
{
    RunResult r = lintFixtures({"det1_violation.cc"});
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
    RunResult r = lintFixtures({"det2_violation.cc"});
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
    RunResult r = lintFixtures({"det3_violation.cc"});
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
    RunResult r = lintFixtures({"evt1_violation.cc"});
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "evt1_violation.cc";
    expectFinding(r, f, 15, "EVT-1"); // scheduleAfter(-5
    expectFinding(r, f, 16, "EVT-1"); // schedule(\n -1 across lines
    expectFinding(r, f, 18, "EVT-1"); // sleep_for
    EXPECT_EQ(countFindings(r, "EVT-1"), 3) << r.output;
}

TEST(MdaLint, Obs1CatchesUnregisteredStats)
{
    RunResult r = lintFixtures({"obs1_stats.hh"});
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "obs1_stats.hh";
    expectFinding(r, f, 17, "OBS-1"); // _orphanMisses
    expectFinding(r, f, 18, "OBS-1"); // _orphanLat
    // _hits is registered via &_hits and must not be flagged.
    EXPECT_EQ(countFindings(r, "OBS-1"), 2) << r.output;
}

TEST(MdaLint, Obs2CatchesUnregisteredProbePoints)
{
    RunResult r = lintFixtures({"obs2_violation.cc"});
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
    RunResult r = lintFixtures({"hdr1_violation.hh"});
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "hdr1_violation.hh";
    expectFinding(r, f, 3, "HDR-1"); // guard name
    expectFinding(r, f, 6, "HDR-1"); // using namespace
    EXPECT_EQ(countFindings(r, "HDR-1"), 2) << r.output;
}

TEST(MdaLint, Hdr1AcceptsMatchingGuardRejectsMismatchedDefine)
{
    // clean.hh has the conforming guard: no HDR-1 findings at all.
    RunResult clean = lintFixtures({"clean.hh"});
    EXPECT_EQ(countFindings(clean, "HDR-1"), 0) << clean.output;
}

TEST(MdaLint, Trc1ConfinesRawFileIo)
{
    RunResult r = lintFixtures({"trc1_violation.cc"});
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
        RunResult r = lintFixtures({name});
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
    RunResult r = lintFixtures({"unreasoned.cc"});
    EXPECT_EQ(r.exitCode, 1) << r.output;
    expectFinding(r, fixprefix + "unreasoned.cc", 10, "DET-2");
    expectFinding(r, fixprefix + "unreasoned.cc", 9, "SUP-1");
}

TEST(MdaLint, Sup1FlagsStaleAndUnknownAllows)
{
    RunResult r = lintFixtures({"stale_allow.cc"});
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "stale_allow.cc";
    expectFinding(r, f, 11, "SUP-1"); // Reasoned allow, no finding.
    expectFinding(r, f, 16, "SUP-1"); // DET-9: unknown rule.
    expectFinding(r, f, 19, "SUP-1"); // CONC-1 allow, no finding.
    // Exactly 3 findings, nothing else reported.
    EXPECT_EQ(countFindings(r, "SUP-1"), 3) << r.output;
    EXPECT_EQ(countFindings(r, "CONC-1"), 0) << r.output;

    // Both rule families' stale fixtures in one pass: each allow is
    // judged once, so each unknown rule ID is reported exactly once.
    RunResult both =
        lintFixtures({"stale_allow.cc", "stale_allow_lif_conc.cc"});
    EXPECT_EQ(both.exitCode, 1) << both.output;
    EXPECT_EQ(countFindings(both, "SUP-1"), 6) << both.output;
    EXPECT_EQ(countOf(both, "MDA_LINT_ALLOW(DET-9) names no known"), 1)
        << both.output;
    EXPECT_EQ(countOf(both, "MDA_LINT_ALLOW(LIF-9) names no known"), 1)
        << both.output;
}

TEST(MdaLint, Sup1StaysQuietWhenEveryAllowSuppresses)
{
    // suppressed.cc: every allow waives a live finding; no SUP-1.
    RunResult r = lintFixtures({"suppressed.cc"});
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_EQ(countFindings(r, "SUP-1"), 0) << r.output;
}

TEST(MdaLint, BaselineRoundTrip)
{
    // Write the violation fixture's findings to a baseline, then
    // re-lint against it: everything grandfathers, exit goes clean.
    std::string baseline =
        ::testing::TempDir() + "/mda_lint_baseline.txt";
    std::string input = fixture("det1_violation.cc");
    RunResult w = run("--write-baseline " + baseline + " " + input);
    EXPECT_EQ(w.exitCode, 1) << w.output;

    RunResult r = run("--baseline " + baseline + " " + input);
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

// ---------------------------------------------------------------------
// LIF-1: double release / leak.

TEST(MdaAnalyze, Lif1CatchesDoubleReleaseDiscardAndLeak)
{
    RunResult r = lintFixtures({"lif1_violation.cc"});
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "lif1_violation.cc";
    expectFinding(r, f, 12, "LIF-1"); // Second pool.release(raw).
    expectFinding(r, f, 18, "LIF-1"); // Discarded .release() result.
    expectFinding(r, f, 26, "LIF-1"); // Leak on the early return.
    EXPECT_EQ(countFindings(r, "LIF-1"), 3) << r.output;
}

TEST(MdaAnalyze, Lif1CrossesTranslationUnits)
{
    // The acceptance case: the caller unwraps the packet, drain() —
    // defined in the OTHER file — releases it, and the caller's
    // second release is flagged via drain()'s summary.
    RunResult r =
        lintFixtures({"lif1_interproc.cc", "lif1_interproc_sink.cc"});
    EXPECT_EQ(r.exitCode, 1) << r.output;
    expectFinding(r, fixprefix + "lif1_interproc.cc", 15, "LIF-1");
    // callerClean (one hand-off) and the sink file itself are clean.
    EXPECT_EQ(countFindings(r, "LIF-1"), 1) << r.output;
}

TEST(MdaAnalyze, Lif1InterprocNeedsTheCalleeFile)
{
    // Without the sink file, drain() has no summary: the analyzer
    // must assume it took ownership and stay quiet (conservative).
    RunResult r = lintFixtures({"lif1_interproc.cc"});
    EXPECT_EQ(r.exitCode, 0) << r.output;
}

// ---------------------------------------------------------------------
// LIF-2: use-after-release.

TEST(MdaAnalyze, Lif2CatchesUseAfterRelease)
{
    RunResult r = lintFixtures({"lif2_violation.cc"});
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "lif2_violation.cc";
    expectFinding(r, f, 11, "LIF-2"); // raw->addr after release.
    expectFinding(r, f, 20, "LIF-2"); // Released on one path only.
    EXPECT_EQ(countFindings(r, "LIF-2"), 2) << r.output;
}

// ---------------------------------------------------------------------
// LIF-3: escaping reference captures.

TEST(MdaAnalyze, Lif3CatchesReferenceCapturesInCallbacks)
{
    RunResult r = lintFixtures({"lif3_violation.cc"});
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "lif3_violation.cc";
    expectFinding(r, f, 20, "LIF-3"); // [&] into schedule().
    expectFinding(r, f, 27, "LIF-3"); // [&hits] into scheduleAfter().
    expectFinding(r, f, 34, "LIF-3"); // [&state] into InlineCallback.
    EXPECT_EQ(countFindings(r, "LIF-3"), 3) << r.output;
}

// ---------------------------------------------------------------------
// CONC-1: mutable statics.

TEST(MdaAnalyze, Conc1CatchesEveryMutableStaticShape)
{
    RunResult r = lintFixtures({"conc1_violation.cc"});
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "conc1_violation.cc";
    expectFinding(r, f, 10, "CONC-1"); // Namespace-scope int.
    expectFinding(r, f, 11, "CONC-1"); // Namespace-scope string.
    expectFinding(r, f, 13, "CONC-1"); // extern mutable.
    expectFinding(r, f, 20, "CONC-1"); // Function-local static.
    expectFinding(r, f, 27, "CONC-1"); // Static object.
    expectFinding(r, f, 33, "CONC-1"); // Class static.
    EXPECT_EQ(countFindings(r, "CONC-1"), 6) << r.output;
}

// ---------------------------------------------------------------------
// CONC-2: sweep-worker confinement.

TEST(MdaAnalyze, Conc2CatchesSharedWritesFromWorkers)
{
    RunResult r = lintFixtures({"conc2_violation.cc"});
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "conc2_violation.cc";
    expectFinding(r, f, 26, "CONC-2"); // Member scalar write.
    expectFinding(r, f, 27, "CONC-2"); // Member container write.
    expectFinding(r, f, 35, "CONC-2"); // Via called method (depth 1).
    expectFinding(r, f, 45, "CONC-2"); // By-ref captured accumulator.
    EXPECT_EQ(countFindings(r, "CONC-2"), 4) << r.output;
}

// ---------------------------------------------------------------------
// CONC-3: non-atomic RMW of atomics.

TEST(MdaAnalyze, Conc3CatchesNonAtomicRmw)
{
    RunResult r = lintFixtures({"conc3_violation.cc"});
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "conc3_violation.cc";
    expectFinding(r, f, 12, "CONC-3"); // counter = counter + 1.
    expectFinding(r, f, 18, "CONC-3"); // store(load()).
    EXPECT_EQ(countFindings(r, "CONC-3"), 2) << r.output;
}

// ---------------------------------------------------------------------
// Clean fixtures: the sanctioned patterns must never be flagged.

TEST(MdaAnalyze, CleanFixturesProduceNoFindings)
{
    for (const char *name :
         {"lif1_clean.cc", "lif2_clean.cc", "lif3_clean.cc",
          "conc1_clean.cc", "conc2_clean.cc", "conc3_clean.cc"}) {
        RunResult r = lintFixtures({name});
        EXPECT_EQ(r.exitCode, 0) << name << ":\n" << r.output;
        EXPECT_NE(r.output.find("mda-lint: clean"),
                  std::string::npos)
            << name << ":\n" << r.output;
    }
}

// ---------------------------------------------------------------------
// Suppression: reasoned allows waive findings and count as used.

TEST(MdaAnalyze, SuppressedFixturesAnalyzeClean)
{
    for (const char *name :
         {"lif1_suppressed.cc", "lif2_suppressed.cc",
          "lif3_suppressed.cc", "conc1_suppressed.cc",
          "conc2_suppressed.cc", "conc3_suppressed.cc"}) {
        RunResult r = lintFixtures({name});
        EXPECT_EQ(r.exitCode, 0) << name << ":\n" << r.output;
        EXPECT_EQ(countFindings(r, "SUP-1"), 0)
            << name << ":\n" << r.output;
    }
}

TEST(MdaAnalyze, Sup1FlagsStaleUnreasonedAndUnknownAllows)
{
    RunResult r = lintFixtures({"stale_allow_lif_conc.cc"});
    EXPECT_EQ(r.exitCode, 1) << r.output;
    std::string f = fixprefix + "stale_allow_lif_conc.cc";
    expectFinding(r, f, 11, "SUP-1"); // Reasoned allow, no finding.
    expectFinding(r, f, 15, "SUP-1"); // Allow without a reason.
    expectFinding(r, f, 18, "SUP-1"); // LIF-9: unknown rule.
    EXPECT_EQ(countFindings(r, "SUP-1"), 3) << r.output;
}

// ---------------------------------------------------------------------
// Baselines: line-number-free grandfathering with staleness checks.

TEST(MdaAnalyze, BaselineRoundTrip)
{
    std::string baseline =
        ::testing::TempDir() + "/mda_analyze_baseline.txt";
    std::string input = fixture("conc1_violation.cc");
    RunResult w = run("--write-baseline " + baseline + " " + input);
    EXPECT_EQ(w.exitCode, 1) << w.output;

    RunResult r = run("--baseline " + baseline + " " + input);
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("baseline-suppressed"),
              std::string::npos)
        << r.output;
    std::remove(baseline.c_str());
}

TEST(MdaAnalyze, StaleBaselineEntriesError)
{
    // A baseline entry matching nothing must fail the run loudly,
    // not silently pass.
    std::string baseline =
        ::testing::TempDir() + "/mda_analyze_stale_baseline.txt";
    {
        std::ofstream out(baseline);
        out << "CONC-1\tno/such/file.cc\tghost\n";
    }
    std::string input = fixture("conc1_clean.cc");
    RunResult r = run("--baseline " + baseline + " " + input);
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("stale baseline entry"),
              std::string::npos)
        << r.output;
    std::remove(baseline.c_str());
}

// ---------------------------------------------------------------------
// Driver plumbing.

TEST(MdaAnalyze, ListRulesNamesEveryFamily)
{
    RunResult r = run("--list-rules");
    EXPECT_EQ(r.exitCode, 0);
    for (const char *rule : {"LIF-1", "LIF-2", "LIF-3", "CONC-1",
                             "CONC-2", "CONC-3", "SUP-1"}) {
        EXPECT_NE(r.output.find(rule), std::string::npos)
            << "missing " << rule << " in:\n" << r.output;
    }
}

TEST(MdaAnalyze, UnknownOptionFailsFast)
{
    // The input-selection options of the former two-tool driver are
    // gone: the inputs are the paths on the command line.
    for (const char *opt : {"--compdb x", "--under src", "-q"}) {
        RunResult r = run(opt);
        EXPECT_EQ(r.exitCode, 2) << opt << ":\n" << r.output;
        EXPECT_NE(r.output.find("unknown option"), std::string::npos)
            << opt << ":\n" << r.output;
    }
}

} // namespace
