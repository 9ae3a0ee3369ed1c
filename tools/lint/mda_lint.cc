/**
 * @file
 * mda-lint: project-specific static analysis for the MDACache
 * simulator (tokenizer engine).
 *
 * The simulator makes hard behavioural promises — byte-identical
 * --stats-json for any --jobs count, fuzz outcomes that are a pure
 * function of (--seed, --start+i) — and this tool statically enforces
 * the coding discipline those promises rest on. Per-file rules
 * (stable IDs), checked here:
 *
 *   DET-1  No nondeterminism sources (std::rand, time(), wall clocks,
 *          std::random_device) in simulator code. Seeded mda::Rng is
 *          the only sanctioned randomness; wall-clock reads are for
 *          the allowlisted heartbeat only.
 *   DET-2  No std::unordered_map / unordered_set in simulator code:
 *          iteration order is implementation-defined and leaks into
 *          stats, traces, and event order. Keyed-lookup-only uses may
 *          be annotated.
 *   DET-3  No address-derived ordering: uintptr_t / intptr_t tokens
 *          in simulator code. Casting a pointer to an integer is how
 *          heap addresses sneak into sort keys, hashes, and stats —
 *          and addresses vary run to run (ASLR, allocator state).
 *          Non-ordering uses (e.g. alignment checks) may be
 *          annotated.
 *   EVT-1  Event discipline: schedule()/scheduleAfter() must not
 *          receive a provably negative tick (Tick is unsigned; a
 *          negative literal wraps), and simulator code must not call
 *          blocking primitives (sleep family, console reads) — event
 *          callbacks must run to completion.
 *   OBS-1  Stats registration: every stats::Scalar / Distribution /
 *          TimeSeries member must be registered with a StatGroup via
 *          regScalar/regDistribution/regTimeSeries — otherwise the
 *          stat rots silently.
 *   OBS-2  Probe-registry cross-check, the one registry check for
 *          observation points: every MDA_PROBE fire site (and direct
 *          .fire() call) must name a probe point declared in the
 *          probe registry header (src/sim/probe.hh), so a fire site
 *          can never reference a point no listener could find.
 *   HDR-1  Header hygiene: include guards must be
 *          MDA_<PATH>_<FILE>_HH (path relative to the repo root, with
 *          the leading src/ stripped), the #define must match the
 *          #ifndef, no `using namespace` in headers, and no
 *          <iostream> in model headers (src/{cache,core,mem,sim}).
 *   TRC-1  Trace I/O containment: raw file I/O primitives (fopen,
 *          fstream family, mmap) are confined to src/trace/ — the
 *          binary trace format has exactly one encoder and one
 *          decoder, so a stray hand-rolled reader can never drift
 *          from trace_format.hh. Non-trace file I/O elsewhere
 *          (stats JSON, fuzz repro files) must carry a reasoned
 *          annotation.
 *
 * The whole-program rules LIF-1/2/3 (packet lifecycle) and CONC-1/2/3
 * (concurrency discipline) run next, over all files at once
 * (whole_program.cc). Last comes the meta-rule:
 *
 *   SUP-1  Suppression hygiene (not suppressible): every
 *          MDA_LINT_ALLOW must carry a reason and must suppress a
 *          live finding; an allow that matches nothing is stale and
 *          is itself a finding, as is an allow naming no known rule.
 *          Stale baseline entries likewise fail the run instead of
 *          silently passing.
 *
 * Suppressions: a finding is waived by a comment on the same line or
 * the line directly above:
 *
 *     // MDA_LINT_ALLOW(DET-2): keyed lookup only; never iterated.
 *
 * The reason after the colon is mandatory — an allow without a reason
 * suppresses nothing. A checked-in baseline file (one
 * "RULE<TAB>file<TAB>key" triple per line) grandfathers findings so
 * CI can gate on *new* findings only; the shipped baseline is empty.
 *
 * The scanning/suppression/baseline machinery lives in scan.hh. The
 * engine is deliberately conservative and std-only so the CI gate
 * runs on any toolchain.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "scan.hh"
#include "whole_program.hh"

namespace fs = std::filesystem;

namespace
{

using mda::scan::Allow;
using mda::scan::Finding;
using mda::scan::ScanFile;
using mda::scan::Token;
using mda::scan::allowed;
using mda::scan::findAllow;
using mda::scan::findingBefore;
using mda::scan::nextCharAfter;
using mda::scan::nextCharMultiline;
using mda::scan::scanSource;
using mda::scan::tokensOf;

// ---------------------------------------------------------------------
// The lint context: registries, options, findings.

struct Options
{
    fs::path root = fs::current_path();
    std::string probeHeader;
    std::string baselinePath;
    std::string writeBaselinePath;
    std::vector<std::string> inputs;
};

struct Context
{
    Options opts;
    std::vector<Finding> findings;
    std::set<std::string> probePoints; ///< Declared ProbePoint members.
    bool haveProbeRegistry = false;

    /** stats members declared: name -> (file, line, kind). */
    struct StatDecl
    {
        std::string file;
        int line;
        std::string kind;
        /** Covering reasoned allow, if any. Not marked used at decl
         *  time — only finishObs1 knows whether it suppresses. */
        const Allow *allow;
    };
    std::map<std::string, std::vector<StatDecl>> statDecls;
    /** Member names passed by address to reg{Scalar,Dist,TimeSeries}. */
    std::set<std::string> statRegistered;

    void
    report(const ScanFile &sf, int line, const std::string &rule,
           const std::string &key, const std::string &message)
    {
        findings.push_back({rule, sf.relpath, line, key, message});
    }
};

// ---------------------------------------------------------------------
// DET-1: nondeterminism sources.

const std::map<std::string, const char *> det1Banned = {
    {"rand", "std::rand() is seeded globally; use a seeded mda::Rng"},
    {"srand", "global PRNG seeding; use a seeded mda::Rng"},
    {"drand48", "global PRNG; use a seeded mda::Rng"},
    {"random_device", "hardware entropy is nondeterministic"},
    {"system_clock", "wall-clock read"},
    {"steady_clock", "wall-clock read"},
    {"high_resolution_clock", "wall-clock read"},
    {"gettimeofday", "wall-clock read"},
    {"clock_gettime", "wall-clock read"},
    {"localtime", "wall-clock derived"},
    {"gmtime", "wall-clock derived"},
};

void
checkDet1(Context &ctx, const ScanFile &sf)
{
    for (std::size_t i = 0; i < sf.code.size(); ++i) {
        if (sf.preproc[i])
            continue;
        int line = static_cast<int>(i) + 1;
        for (const Token &t : tokensOf(sf.code[i])) {
            auto it = det1Banned.find(t.text);
            const char *why = nullptr;
            if (it != det1Banned.end()) {
                why = it->second;
            } else if (t.text == "time" &&
                       nextCharAfter(sf.code[i],
                                     t.col + t.text.size()) == '(') {
                why = "time() is a wall-clock read";
            }
            if (!why || allowed(sf, line, "DET-1"))
                continue;
            ctx.report(sf, line, "DET-1", t.text,
                       "nondeterminism source '" + t.text + "' (" +
                           why + "); simulation output must be a " +
                           "pure function of its seed");
        }
    }
}

// ---------------------------------------------------------------------
// DET-2: unordered containers.

const std::set<std::string> det2Banned = {
    "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset",
};

void
checkDet2(Context &ctx, const ScanFile &sf)
{
    for (std::size_t i = 0; i < sf.code.size(); ++i) {
        if (sf.preproc[i])
            continue; // #include <unordered_map> is not a use site.
        int line = static_cast<int>(i) + 1;
        std::set<std::string> seen; // One finding per line per type.
        for (const Token &t : tokensOf(sf.code[i])) {
            if (!det2Banned.count(t.text) || seen.count(t.text))
                continue;
            seen.insert(t.text);
            if (allowed(sf, line, "DET-2"))
                continue;
            ctx.report(sf, line, "DET-2", t.text,
                       "std::" + t.text + " iteration order is " +
                           "implementation-defined and can leak into " +
                           "stats/traces/event order; use std::map or " +
                           "a sorted vector, or annotate a " +
                           "keyed-lookup-only use");
        }
    }
}

// ---------------------------------------------------------------------
// DET-3: address-derived ordering.

const std::set<std::string> det3Banned = {
    "uintptr_t", "intptr_t",
};

void
checkDet3(Context &ctx, const ScanFile &sf)
{
    for (std::size_t i = 0; i < sf.code.size(); ++i) {
        if (sf.preproc[i])
            continue; // #include <cstdint> is not a use site.
        int line = static_cast<int>(i) + 1;
        std::set<std::string> seen; // One finding per line per type.
        for (const Token &t : tokensOf(sf.code[i])) {
            if (!det3Banned.count(t.text) || seen.count(t.text))
                continue;
            seen.insert(t.text);
            if (allowed(sf, line, "DET-3"))
                continue;
            ctx.report(sf, line, "DET-3", t.text,
                       t.text + " converts a pointer to an integer; " +
                           "heap addresses vary run to run (ASLR, " +
                           "allocator state), so any ordering, hash, " +
                           "or stat derived from one breaks " +
                           "reproducibility. Order by simulation " +
                           "state (ids, ticks, sequence numbers), or " +
                           "annotate a non-ordering use");
        }
    }
}

// ---------------------------------------------------------------------
// EVT-1: event discipline.

const std::map<std::string, const char *> evt1Blocking = {
    {"sleep", "blocks the event loop"},
    {"usleep", "blocks the event loop"},
    {"nanosleep", "blocks the event loop"},
    {"sleep_for", "blocks the event loop"},
    {"sleep_until", "blocks the event loop"},
    {"getchar", "console read blocks the event loop"},
};

void
checkEvt1(Context &ctx, const ScanFile &sf)
{
    for (std::size_t i = 0; i < sf.code.size(); ++i) {
        if (sf.preproc[i])
            continue;
        int line = static_cast<int>(i) + 1;
        for (const Token &t : tokensOf(sf.code[i])) {
            auto bl = evt1Blocking.find(t.text);
            if (bl != evt1Blocking.end() &&
                nextCharAfter(sf.code[i], t.col + t.text.size()) ==
                    '(') {
                if (!allowed(sf, line, "EVT-1")) {
                    ctx.report(sf, line, "EVT-1", t.text,
                               "blocking call '" + t.text + "' (" +
                                   bl->second +
                                   "); event callbacks must run to "
                                   "completion");
                }
                continue;
            }
            if (t.text != "schedule" && t.text != "scheduleAfter")
                continue;
            // schedule(<tick>, ...) / scheduleAfter(<delta>, ...):
            // Tick is unsigned, so a negative first argument is a
            // provable bug (it wraps to a huge tick or trips the
            // in-the-past assert at runtime; catch it statically).
            std::size_t l = i, c = t.col + t.text.size();
            if (nextCharMultiline(sf, l, c, &l, &c) != '(')
                continue;
            std::size_t al = l, ac = c + 1;
            if (nextCharMultiline(sf, al, ac, &al, &ac) != '-')
                continue;
            char after = nextCharMultiline(sf, al, ac + 1);
            if (!std::isdigit(static_cast<unsigned char>(after)))
                continue;
            if (allowed(sf, line, "EVT-1"))
                continue;
            ctx.report(sf, line, "EVT-1", t.text + "-negative",
                       t.text + "() with a negative tick: Tick is "
                                "unsigned, the value wraps");
        }
    }
}

// ---------------------------------------------------------------------
// OBS-1: stats registration.

const std::set<std::string> statKinds = {
    "Scalar", "Distribution", "TimeSeries",
};
const std::set<std::string> statRegCalls = {
    "regScalar", "regDistribution", "regTimeSeries",
};

void
checkObs1(Context &ctx, const ScanFile &sf)
{
    for (std::size_t i = 0; i < sf.code.size(); ++i) {
        if (sf.preproc[i])
            continue;
        const std::string &line = sf.code[i];
        int lineno = static_cast<int>(i) + 1;
        std::vector<Token> toks = tokensOf(line);

        // stats member declarations (headers): "stats::Scalar _a, _b;"
        if (sf.isHeader && toks.size() >= 2) {
            std::size_t k = 0;
            if (toks[k].text == "mda")
                ++k;
            if (k + 1 < toks.size() && toks[k].text == "stats" &&
                statKinds.count(toks[k + 1].text) &&
                toks[k].col == line.find_first_not_of(" \t")) {
                std::string kind = toks[k + 1].text;
                // Names: subsequent identifiers outside the
                // initializer braces, each starting with '_' (member
                // convention; skips params and locals).
                std::size_t col = toks[k + 1].col;
                int depth = 0;
                for (std::size_t m = k + 2; m < toks.size(); ++m) {
                    for (std::size_t c2 = col;
                         c2 < toks[m].col; ++c2) {
                        char ch = line[c2];
                        if (ch == '{' || ch == '(' || ch == '<')
                            ++depth;
                        else if (ch == '}' || ch == ')' || ch == '>')
                            --depth;
                    }
                    col = toks[m].col;
                    if (depth == 0 && toks[m].text[0] == '_') {
                        ctx.statDecls[toks[m].text].push_back(
                            {sf.relpath, lineno, kind,
                             findAllow(sf, lineno, "OBS-1")});
                    }
                }
            }
        }

        // reg* call sites: collect "&<member>" across the call args.
        for (std::size_t k = 0; k < toks.size(); ++k) {
            if (!statRegCalls.count(toks[k].text))
                continue;
            std::size_t l = i, c = toks[k].col + toks[k].text.size();
            if (nextCharMultiline(sf, l, c, &l, &c) != '(')
                continue;
            int depth = 0;
            for (std::size_t scan = l;
                 scan < sf.code.size() && scan < l + 8; ++scan) {
                const std::string &s = sf.code[scan];
                for (std::size_t c2 = scan == l ? c : 0;
                     c2 < s.size(); ++c2) {
                    if (s[c2] == '(') {
                        ++depth;
                    } else if (s[c2] == ')') {
                        if (--depth == 0) {
                            scan = sf.code.size();
                            break;
                        }
                    } else if (s[c2] == '&' && depth >= 1) {
                        std::size_t j = c2 + 1;
                        while (j < s.size() &&
                               std::isspace(static_cast<unsigned char>(
                                   s[j]))) {
                            ++j;
                        }
                        std::size_t e = j;
                        while (e < s.size() &&
                               (std::isalnum(
                                    static_cast<unsigned char>(s[e])) ||
                                s[e] == '_')) {
                            ++e;
                        }
                        if (e > j) {
                            ctx.statRegistered.insert(
                                s.substr(j, e - j));
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// OBS-2: probe-registry cross-check.

/**
 * Load ProbePoint member names from the probe registry header
 * (src/sim/probe.hh). The registry contract (documented there): one
 * `ProbePoint<...> name;` declaration per line, so a registry line is
 * any line whose first token is ProbePoint and that ends with ';' —
 * its last identifier is the probe name.
 */
bool
loadProbeRegistry(Context &ctx, const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::stringstream ss;
    ss << in.rdbuf();
    ScanFile sf;
    scanSource(ss.str(), sf);
    for (std::size_t i = 0; i < sf.code.size(); ++i) {
        if (sf.preproc[i])
            continue;
        const std::string &line = sf.code[i];
        std::size_t last = line.find_last_not_of(" \t");
        if (last == std::string::npos || line[last] != ';')
            continue;
        std::vector<Token> toks = tokensOf(line);
        if (toks.size() < 2 || toks[0].text != "ProbePoint")
            continue;
        ctx.probePoints.insert(toks.back().text);
    }
    return !ctx.probePoints.empty();
}

/** Last identifier of an MDA_PROBE call's first macro argument,
 *  scanning from just after the open paren at (l, c) across line
 *  breaks up to the first top-level ',' or the closing ')'. */
std::string
firstProbeArgName(const ScanFile &sf, std::size_t l, std::size_t c)
{
    std::string arg;
    int depth = 0;
    for (std::size_t scan = l; scan < sf.code.size() && scan < l + 4;
         ++scan) {
        const std::string &s = sf.code[scan];
        for (std::size_t c2 = scan == l ? c : 0; c2 < s.size(); ++c2) {
            char ch = s[c2];
            if (ch == '(' || ch == '[' || ch == '{') {
                ++depth;
            } else if (ch == ')' || ch == ']' || ch == '}') {
                if (ch == ')' && depth == 0) {
                    scan = sf.code.size();
                    break;
                }
                --depth;
            } else if (ch == ',' && depth == 0) {
                scan = sf.code.size();
                break;
            } else {
                arg += ch;
            }
        }
        arg += ' ';
    }
    std::vector<Token> toks = tokensOf(arg);
    return toks.empty() ? std::string() : toks.back().text;
}

void
checkObs2(Context &ctx, const ScanFile &sf)
{
    if (!ctx.haveProbeRegistry)
        return;
    for (std::size_t i = 0; i < sf.code.size(); ++i) {
        if (sf.preproc[i])
            continue;
        const std::string &line = sf.code[i];
        int lineno = static_cast<int>(i) + 1;
        for (const Token &t : tokensOf(line)) {
            if (t.text == "MDA_PROBE") {
                std::size_t l = i, c = t.col + t.text.size();
                if (nextCharMultiline(sf, l, c, &l, &c) != '(')
                    continue;
                std::string name = firstProbeArgName(sf, l, c + 1);
                if (name.empty() || ctx.probePoints.count(name) ||
                    allowed(sf, lineno, "OBS-2")) {
                    continue;
                }
                ctx.report(sf, lineno, "OBS-2", name,
                           "MDA_PROBE point '" + name + "' is not "
                           "declared in the probe registry header "
                           "(src/sim/probe.hh); no listener could "
                           "ever find it");
            } else if (t.text == "fire" && t.col > 0 &&
                       line[t.col - 1] == '.' &&
                       nextCharAfter(line, t.col + t.text.size()) ==
                           '(') {
                // <member>.fire(...): the identifier before the dot.
                std::size_t e = t.col - 1, b = e;
                while (b > 0 &&
                       (std::isalnum(static_cast<unsigned char>(
                            line[b - 1])) ||
                        line[b - 1] == '_')) {
                    --b;
                }
                if (b == e)
                    continue;
                std::string name = line.substr(b, e - b);
                if (ctx.probePoints.count(name) ||
                    allowed(sf, lineno, "OBS-2")) {
                    continue;
                }
                ctx.report(sf, lineno, "OBS-2", name,
                           "probe '" + name + "' fired directly but "
                           "is not declared in the probe registry "
                           "header (src/sim/probe.hh); declare it, "
                           "and prefer MDA_PROBE so the no-listener "
                           "fast path is kept");
            }
        }
    }
}

/** After all files are scanned: declared stats never registered.
 *  Marks covering allows used only when they actually suppress. */
void
finishObs1(Context &ctx)
{
    for (const auto &kv : ctx.statDecls) {
        if (ctx.statRegistered.count(kv.first))
            continue;
        for (const Context::StatDecl &d : kv.second) {
            if (d.allow) {
                d.allow->used = true;
                continue;
            }
            ctx.findings.push_back(
                {"OBS-1", d.file, d.line, kv.first,
                 "stats::" + d.kind + " member '" + kv.first +
                     "' is never registered with a StatGroup "
                     "(regScalar/regDistribution/regTimeSeries); it "
                     "would be invisible to dump()/--stats-json"});
        }
    }
}

// ---------------------------------------------------------------------
// HDR-1: header hygiene.

/** Expected include guard for @p relpath: MDA_<PATH>_<FILE>_HH with
 *  the leading src/ stripped ("src/sim/probe.hh" -> MDA_SIM_PROBE_HH,
 *  "tests/core/test_rig.hh" -> MDA_TESTS_CORE_TEST_RIG_HH). */
std::string
expectedGuard(const std::string &relpath)
{
    std::string p = relpath;
    if (p.rfind("src/", 0) == 0)
        p = p.substr(4);
    std::string guard = "MDA_";
    for (char c : p) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            guard += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        } else {
            guard += '_';
        }
    }
    return guard; // trailing ".hh" became "_HH".
}

bool
isModelHeader(const std::string &relpath)
{
    for (const char *dir :
         {"src/cache/", "src/core/", "src/mem/", "src/sim/"}) {
        if (relpath.rfind(dir, 0) == 0)
            return true;
    }
    return false;
}

void
checkHdr1(Context &ctx, const ScanFile &sf)
{
    if (!sf.isHeader)
        return;

    // Include guard: first directive must be #ifndef <expected>,
    // immediately followed by the matching #define.
    std::string expect = expectedGuard(sf.relpath);
    int guard_line = 0;
    std::string ifndef_sym;
    for (std::size_t i = 0; i < sf.code.size(); ++i) {
        if (!sf.preproc[i])
            continue;
        std::vector<Token> toks = tokensOf(sf.code[i]);
        if (toks.empty())
            continue;
        if (toks[0].text == "ifndef" && toks.size() >= 2) {
            guard_line = static_cast<int>(i) + 1;
            ifndef_sym = toks[1].text;
        } else if (toks[0].text == "pragma") {
            guard_line = static_cast<int>(i) + 1;
            ifndef_sym = "#pragma once";
        }
        break; // Only the first directive matters.
    }
    if (ifndef_sym.empty()) {
        if (!allowed(sf, 1, "HDR-1")) {
            ctx.report(sf, 1, "HDR-1", "guard-missing",
                       "header has no include guard; expected #ifndef " +
                           expect);
        }
    } else if (ifndef_sym != expect) {
        if (!allowed(sf, guard_line, "HDR-1")) {
            ctx.report(sf, guard_line, "HDR-1", "guard-name",
                       "include guard '" + ifndef_sym +
                           "' does not match convention; expected '" +
                           expect + "'");
        }
    } else {
        // #define on the next directive line must match.
        for (std::size_t i = static_cast<std::size_t>(guard_line);
             i < sf.code.size(); ++i) {
            if (!sf.preproc[i])
                continue;
            std::vector<Token> toks = tokensOf(sf.code[i]);
            if (toks.size() < 2 || toks[0].text != "define" ||
                toks[1].text != expect) {
                if (!allowed(sf, static_cast<int>(i) + 1, "HDR-1")) {
                    ctx.report(sf, static_cast<int>(i) + 1, "HDR-1",
                               "guard-define",
                               "#ifndef " + expect + " is not followed "
                               "by the matching #define");
                }
            }
            break;
        }
    }

    for (std::size_t i = 0; i < sf.code.size(); ++i) {
        int line = static_cast<int>(i) + 1;
        std::vector<Token> toks = tokensOf(sf.code[i]);
        for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
            if (toks[k].text == "using" &&
                toks[k + 1].text == "namespace" &&
                !allowed(sf, line, "HDR-1")) {
                ctx.report(sf, line, "HDR-1", "using-namespace",
                           "'using namespace' in a header pollutes "
                           "every includer's scope");
            }
        }
        if (sf.preproc[i] && isModelHeader(sf.relpath) &&
            sf.code[i].find("<iostream>") != std::string::npos &&
            !allowed(sf, line, "HDR-1")) {
            ctx.report(sf, line, "HDR-1", "iostream",
                       "<iostream> in a model header drags std::cout "
                       "globals into the simulator core; use <ostream> "
                       "and take a stream parameter");
        }
    }
}

// ---------------------------------------------------------------------
// TRC-1: trace-I/O containment.

const std::map<std::string, const char *> trc1Banned = {
    {"fopen", "C stream I/O"},
    {"freopen", "C stream I/O"},
    {"ifstream", "file read"},
    {"ofstream", "file write"},
    {"fstream", "file read/write"},
    {"mmap", "file mapping"},
};

/** src/trace/ owns the binary format; tools/ (lint, report) are
 *  host-side and out of scope. */
bool
trc1Exempt(const std::string &relpath)
{
    return relpath.rfind("src/trace/", 0) == 0 ||
           relpath.rfind("tools/", 0) == 0;
}

void
checkTrc1(Context &ctx, const ScanFile &sf)
{
    if (trc1Exempt(sf.relpath))
        return;
    for (std::size_t i = 0; i < sf.code.size(); ++i) {
        if (sf.preproc[i])
            continue; // #include <fstream> is not a use site.
        int line = static_cast<int>(i) + 1;
        std::set<std::string> seen; // One finding per line per token.
        for (const Token &t : tokensOf(sf.code[i])) {
            auto it = trc1Banned.find(t.text);
            if (it == trc1Banned.end() || seen.count(t.text))
                continue;
            seen.insert(t.text);
            if (allowed(sf, line, "TRC-1"))
                continue;
            ctx.report(sf, line, "TRC-1", t.text,
                       std::string("raw ") + it->second + " ('" +
                           t.text + "') outside src/trace/; binary "
                           "traces must go through TraceWriter/"
                           "TraceReader so the format has one encoder "
                           "and one decoder. Annotate non-trace file "
                           "I/O with a reasoned allow");
        }
    }
}

// ---------------------------------------------------------------------
// Driver.

const char *usage =
    "usage: mda-lint [options] path...\n"
    "\n"
    "Paths may be files or directories (walked recursively for\n"
    ".cc/.cpp/.hh/.h/.hpp). Options:\n"
    "  --root DIR           Repo root for relative paths and guard\n"
    "                       names (default: cwd)\n"
    "  --probe-header FILE  ProbePoint registry header for OBS-2\n"
    "                       (default: <root>/src/sim/probe.hh)\n"
    "  --baseline FILE      Suppress findings listed in FILE\n"
    "  --write-baseline FILE  Write current findings as a baseline\n"
    "  --list-rules         Print the rule catalog and exit\n";

/** The rule registry: every rule ID with its --list-rules summary. */
struct Rule
{
    const char *id;
    const char *summary;
};

const Rule rules[] = {
    {"DET-1", "no nondeterminism sources (rand/time/wall clocks/\n"
              "       random_device) in simulator code"},
    {"DET-2", "no unordered_map/unordered_set (iteration order leaks\n"
              "       into stats, traces, event order)"},
    {"DET-3", "no uintptr_t/intptr_t (address-derived ordering; heap\n"
              "       addresses vary run to run)"},
    {"EVT-1", "event discipline: no negative schedule()/\n"
              "       scheduleAfter() ticks, no blocking calls in\n"
              "       simulator code"},
    {"OBS-1", "stats members must be registered with a StatGroup"},
    {"OBS-2", "MDA_PROBE / .fire() sites must name a ProbePoint\n"
              "       declared in the probe registry header\n"
              "       (src/sim/probe.hh)"},
    {"HDR-1", "include guard MDA_<PATH>_<FILE>_HH, matching #define,\n"
              "       no 'using namespace' in headers, no <iostream> in\n"
              "       model headers"},
    {"TRC-1", "raw file I/O (fopen/fstream family/mmap) is confined\n"
              "       to src/trace/; binary traces go through\n"
              "       TraceWriter / TraceReader, non-trace file I/O\n"
              "       needs a reasoned allow"},
    {"LIF-1", "pooled-packet double release or leak: a raw Packet*\n"
              "       from .release() must be handed off exactly once\n"
              "       (re-wrapped, released, or value-captured into a\n"
              "       callback); releases through callees are tracked\n"
              "       across files"},
    {"LIF-2", "use-after-release: dereferencing a raw Packet* after\n"
              "       it went back to the pool (the slot may be\n"
              "       recycled)"},
    {"LIF-3", "scheduled callbacks (schedule/scheduleAfter/\n"
              "       InlineCallback) must not capture by reference;\n"
              "       the enclosing frame is gone when they run"},
    {"CONC-1", "no mutable namespace/class/function-local statics\n"
               "       (and extern mutable globals) outside an annotated\n"
               "       allowlist; const, std::atomic, mutexes,\n"
               "       thread_local are exempt"},
    {"CONC-2", "everything a sweep worker lambda writes must be\n"
               "       worker-confined: local, by-value, indexed by the\n"
               "       worker parameter, or lock-guarded (including via\n"
               "       called methods whose writes are all lock-guarded)"},
    {"CONC-3", "atomics must not be read-modify-written non-atomically\n"
               "       (a = a + 1, store(load())); use fetch_add /\n"
               "       compare_exchange"},
    {"SUP-1", "suppression hygiene (not suppressible): every allow\n"
              "       must carry a reason and suppress a live finding;\n"
              "       stale allows and stale baseline entries fail the\n"
              "       run"},
};

} // namespace

int
main(int argc, char **argv)
{
    Context ctx;
    Options &opts = ctx.opts;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *name) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "mda-lint: " << name
                          << " requires a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--root") {
            opts.root = value("--root");
        } else if (arg == "--probe-header") {
            opts.probeHeader = value("--probe-header");
        } else if (arg == "--baseline") {
            opts.baselinePath = value("--baseline");
        } else if (arg == "--write-baseline") {
            opts.writeBaselinePath = value("--write-baseline");
        } else if (arg == "--list-rules") {
            for (const Rule &r : rules) {
                std::cout << std::left << std::setw(7) << r.id
                          << r.summary << "\n";
            }
            std::cout << "\nSuppress one finding with a reasoned "
                         "comment on the same line\nor the line above: "
                         "// MDA_LINT_ALLOW(<rule>): <reason>\n";
            return 0;
        } else if (arg == "-h" || arg == "--help") {
            std::cout << usage;
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "mda-lint: unknown option: " << arg << "\n"
                      << usage;
            return 2;
        } else {
            opts.inputs.push_back(arg);
        }
    }
    if (opts.inputs.empty()) {
        std::cerr << usage;
        return 2;
    }

    // Collect the file set (sorted, deduplicated).
    std::set<std::string> files;
    if (!mda::scan::collectInputs(opts.root, opts.inputs, files))
        return 2;

    // OBS-2 probe registry.
    std::string probe_reg = opts.probeHeader;
    if (probe_reg.empty()) {
        fs::path def = opts.root / "src" / "sim" / "probe.hh";
        std::error_code ec;
        if (fs::exists(def, ec))
            probe_reg = def.string();
    }
    if (!probe_reg.empty()) {
        ctx.haveProbeRegistry = loadProbeRegistry(ctx, probe_reg);
        if (!ctx.haveProbeRegistry) {
            std::cerr << "mda-lint: warning: no ProbePoint "
                         "declarations in "
                      << probe_reg << "; OBS-2 check disabled\n";
        }
    }

    // Load and scan each file once; every pass reads these.
    std::vector<ScanFile> scanned;
    scanned.reserve(files.size());
    for (const std::string &path : files) {
        ScanFile sf;
        if (!mda::scan::loadScanFile(
                path, mda::scan::relativeTo(opts.root, path), sf)) {
            std::cerr << "mda-lint: cannot read: " << path << "\n";
            return 2;
        }
        scanned.push_back(std::move(sf));
    }
    for (const ScanFile &sf : scanned) {
        checkDet1(ctx, sf);
        checkDet2(ctx, sf);
        checkDet3(ctx, sf);
        checkEvt1(ctx, sf);
        checkObs1(ctx, sf);
        checkObs2(ctx, sf);
        checkHdr1(ctx, sf);
        checkTrc1(ctx, sf);
    }
    finishObs1(ctx);
    mda::lint::checkWholeProgram(scanned, ctx.findings);

    // SUP-1 after all rule passes: an allow that suppressed nothing
    // is itself a finding.
    std::set<std::string> suppressible;
    for (const Rule &r : rules) {
        if (std::string(r.id) != "SUP-1")
            suppressible.insert(r.id);
    }
    mda::scan::appendStaleAllowFindings(scanned, suppressible,
                                        ctx.findings);

    // A site several walks reach is reported once.
    std::sort(ctx.findings.begin(), ctx.findings.end(),
              findingBefore);
    ctx.findings.erase(
        std::unique(ctx.findings.begin(), ctx.findings.end(),
                    [](const Finding &a, const Finding &b) {
                        return a.rule == b.rule && a.file == b.file &&
                               a.line == b.line && a.key == b.key;
                    }),
        ctx.findings.end());

    if (!opts.writeBaselinePath.empty())
        mda::scan::writeBaseline(opts.writeBaselinePath, ctx.findings);

    std::set<std::string> baseline;
    if (!opts.baselinePath.empty())
        baseline = mda::scan::loadBaseline(opts.baselinePath);

    return mda::scan::reportFindings(ctx.findings, baseline,
                                     scanned.size());
}
