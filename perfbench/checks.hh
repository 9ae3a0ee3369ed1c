/**
 * @file
 * Output checks applied to every benchmark cell.
 *
 * Each check compares a cell's simulated statistics either with a
 * value computed apart from the simulator (the op count of the same
 * stream drained alone, an exact run of a sampled cell) or with a
 * property the method must have (cross-level conservation, a
 * confidence interval needs at least two windows). A cell that fails
 * any check counts as failed. The checks see only plain data, so the
 * self-test can feed them doctored cells.
 */

#ifndef MDA_PERFBENCH_CHECKS_HH
#define MDA_PERFBENCH_CHECKS_HH

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Largest relative error of a sampled cycle estimate against the
 *  exact run of the same cell. Sobel misses by under 5% (it does not
 *  depend on the seed); htap1, sampled in 2-3 windows, by 3-20% over
 *  seeds 1-40, so a tighter bound would fail cells on some seeds
 *  only. The single-window htap2 estimates miss by 25-111%. */
constexpr double sampledCycleTolerance = 0.30;

/** What one executed cell produced, reduced to what the checks read. */
struct CellOutcome
{
    /** Every scalar statistic of the run, by name. */
    std::map<std::string, double> stats;

    /** cpu.done() after System::run returned (no silent stall). */
    bool cpuDone = false;

    /** Operations in the cell's stream, drained alone. */
    std::uint64_t expectedOps = 0;

    /** The stats' meta "sampling" block; empty for exact cells. */
    std::string samplingMeta;

    /** Simulated cycles reported by the run. */
    std::uint64_t cycles = 0;

    /** Cycles of an exact run of the same cell; 0 when none was made. */
    std::uint64_t exactCycles = 0;
};

/** Value of @p key in the stats map, 0 when absent. */
inline double
statOr0(const CellOutcome &cell, const std::string &key)
{
    auto it = cell.stats.find(key);
    return it == cell.stats.end() ? 0.0 : it->second;
}

/** Unsigned integer following "\"<field>\":" in @p json; -1 if absent. */
inline long long
jsonField(const std::string &json, const std::string &field)
{
    auto pos = json.find("\"" + field + "\":");
    if (pos == std::string::npos)
        return -1;
    return std::atoll(json.c_str() + pos + field.size() + 3);
}

/** True when some "ci95" in @p json is a number rather than null. */
inline bool
hasNumericCi(const std::string &json)
{
    const std::string tag = "\"ci95\":";
    for (auto pos = json.find(tag); pos != std::string::npos;
         pos = json.find(tag, pos + 1)) {
        if (json.compare(pos + tag.size(), 4, "null") != 0)
            return true;
    }
    return false;
}

/** Failure reasons for one cell; empty when it passes every check. */
inline std::vector<std::string>
checkCell(const CellOutcome &cell)
{
    std::vector<std::string> why;
    auto eq = [&](const char *law, double a, double b) {
        if (a != b)
            why.push_back(std::string(law) + " (" + std::to_string(a) +
                          " vs " + std::to_string(b) + ")");
    };
    if (!cell.cpuDone)
        why.push_back("cpu not done after run");

    if (cell.samplingMeta.empty()) {
        eq("cpu.checkFailures == 0", statOr0(cell, "cpu.checkFailures"),
           0.0);
        eq("cpu.ops == drained ops", statOr0(cell, "cpu.ops"),
           static_cast<double>(cell.expectedOps));
        eq("l1.writebacksOut == l2.writebacksIn",
           statOr0(cell, "l1.writebacksOut"),
           statOr0(cell, "l2.writebacksIn"));
        eq("l2.writebacksOut == l3.writebacksIn",
           statOr0(cell, "l2.writebacksOut"),
           statOr0(cell, "l3.writebacksIn"));
        if (statOr0(cell, "mem.bytesRead") <
            statOr0(cell, "l3.fillBytes")) {
            why.push_back("mem.bytesRead >= l3.fillBytes");
        }
        eq("mem.rowAccesses + mem.colAccesses == mem requests",
           statOr0(cell, "mem.rowAccesses") +
               statOr0(cell, "mem.colAccesses"),
           statOr0(cell, "mem.readReqs") +
               statOr0(cell, "mem.writeReqs"));
        return why;
    }

    long long total = jsonField(cell.samplingMeta, "totalOps");
    long long windows = jsonField(cell.samplingMeta, "windows");
    eq("sampling.totalOps == drained ops", static_cast<double>(total),
       static_cast<double>(cell.expectedOps));
    if (windows < 2 && hasNumericCi(cell.samplingMeta)) {
        why.push_back("numeric ci95 from " + std::to_string(windows) +
                      " window(s)");
    }
    if (cell.exactCycles > 0) {
        double err = std::fabs(static_cast<double>(cell.cycles) -
                               static_cast<double>(cell.exactCycles)) /
                     static_cast<double>(cell.exactCycles);
        if (err > sampledCycleTolerance) {
            why.push_back("sampled cycles " +
                          std::to_string(cell.cycles) + " vs exact " +
                          std::to_string(cell.exactCycles) + " (" +
                          std::to_string(100.0 * err) + "% off)");
        }
    }
    return why;
}

/**
 * Feed every check a cell doctored to break it; each must fail, and
 * the undoctored cells must pass. Returns the problems found (empty
 * when the checks work).
 */
inline std::vector<std::string>
selfTest()
{
    CellOutcome exact;
    exact.cpuDone = true;
    exact.expectedOps = 1000;
    exact.cycles = 5000;
    exact.stats = {
        {"cpu.ops", 1000},         {"cpu.checkFailures", 0},
        {"l1.writebacksOut", 7},   {"l2.writebacksIn", 7},
        {"l2.writebacksOut", 3},   {"l3.writebacksIn", 3},
        {"l3.fillBytes", 640},     {"mem.bytesRead", 640},
        {"mem.rowAccesses", 8},    {"mem.colAccesses", 2},
        {"mem.readReqs", 7},       {"mem.writeReqs", 3},
    };

    CellOutcome sampled;
    sampled.cpuDone = true;
    sampled.expectedOps = 250000;
    sampled.cycles = 100000;
    sampled.exactCycles = 98000;
    sampled.samplingMeta =
        "{\"periodOps\":100000,\"windowOps\":1000,\"warmupOps\":1000,"
        "\"windows\":3,\"measuredOps\":3000,\"totalOps\":250000,"
        "\"stats\":{\"cpu.ops\":{\"estimate\":250000,\"ci95\":0}}}";

    std::vector<std::string> problems;
    auto expect = [&](const char *what, const CellOutcome &cell,
                      bool pass) {
        if (checkCell(cell).empty() != pass)
            problems.push_back(std::string(what) +
                               (pass ? " fails" : " passes"));
    };
    expect("valid exact cell", exact, true);
    expect("valid sampled cell", sampled, true);

    CellOutcome broken = exact;
    broken.stats["l2.writebacksIn"] += 1;
    expect("broken l1->l2 writeback conservation", broken, false);
    broken = exact;
    broken.stats["l3.writebacksIn"] -= 1;
    expect("broken l2->l3 writeback conservation", broken, false);
    broken = exact;
    broken.stats["l3.fillBytes"] = 704;
    expect("memory reads below LLC fills", broken, false);
    broken = exact;
    broken.stats["mem.colAccesses"] += 1;
    expect("broken row+col == requests", broken, false);
    broken = exact;
    broken.stats["cpu.ops"] += 1;
    expect("op count off by one", broken, false);
    broken = exact;
    broken.stats["cpu.checkFailures"] = 1;
    expect("data-check failure", broken, false);
    broken = exact;
    broken.cpuDone = false;
    expect("unfinished run", broken, false);

    CellOutcome bad = sampled;
    bad.expectedOps += 1;
    expect("sampled op count off by one", bad, false);
    bad = sampled;
    bad.samplingMeta.replace(bad.samplingMeta.find("\"windows\":3"), 11,
                             "\"windows\":1");
    expect("one-window estimate with ci95 0", bad, false);
    bad.samplingMeta.replace(bad.samplingMeta.find("\"ci95\":0"), 8,
                             "\"ci95\":null");
    expect("one-window estimate with ci95 null", bad, true);
    bad = sampled;
    bad.cycles = 2 * sampled.exactCycles;
    expect("sampled cycles far from exact", bad, false);
    return problems;
}

} // namespace perfbench

#endif // MDA_PERFBENCH_CHECKS_HH
