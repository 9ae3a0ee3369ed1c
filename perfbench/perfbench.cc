/**
 * @file
 * Host-speed benchmark of the simulator.
 *
 * Runs one named workload — a sweep of simulation cells — on a single
 * simulation thread and times the calls into each layer's public
 * functions from outside: compiler::compileKernel, the trace sources
 * (generator, emitter, replay), trace::TraceWriter (through
 * CaptureSource), System construction and System::run,
 * TraceCpu::fastForward, EventQueue and PacketPool. Every cell's
 * output is checked (checks.hh); a cell failing any check counts as
 * failed.
 *
 * Usage:
 *   perfbench --workload <paper-fig12|zoo-replay|sampled-paper>
 *             --seed <n> --seconds <s> --trace <0|1> --out <dir>
 *   perfbench --self-test
 *
 * --trace 0 repeats whole passes over the workload's cells while one
 * more pass still fits in --seconds (at least one pass) and reports
 * the end-to-end metrics. --trace 1 runs one untraced and one traced
 * pass over the same cells plus the per-layer probes and reports the
 * per-layer metrics. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. The first pass's
 * key-sorted statistics go to <dir>/stats.json for the model digest.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "checks.hh"
#include "harness/runner.hh"
#include "sim/event_queue.hh"
#include "sim/packet.hh"
#include "sim/packet_pool.hh"
#include "trace/trace_source.hh"
#include "workloads/emitters.hh"
#include "workloads/kernels.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

using namespace mda;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

constexpr std::uint64_t MiB = 1024 * 1024;

/** The sampled htap2 cells keep the repository's default workload
 *  seed: their single-window failure must not depend on --seed. */
constexpr std::uint64_t defaultSeed = 0xc0ffee;

const std::vector<DesignPoint> designs{
    DesignPoint::D0_1P1L, DesignPoint::D1_1P2L,
    DesignPoint::D1_1P2L_SameSet, DesignPoint::D2_2P2L};

/** One simulation of the sweep. */
struct Cell
{
    RunSpec spec;
    std::string key;
    /** Ops of the cell's stream drained alone (checks). */
    std::uint64_t expectedOps = 0;
    /** Exact-run cycles for sampled cells (0 = no reference). */
    std::uint64_t exactCycles = 0;
};

struct Workload
{
    std::string name;
    std::vector<Cell> cells;
    /** Cells replay traces captured at the start of each pass. */
    bool replay = false;
};

/** Identity of a cell's op stream: the inputs the generated ops
 *  depend on, as the trace file name spells them. */
std::string
streamKey(const RunSpec &spec)
{
    return trace::traceFileName(spec.workload, spec.n, spec.seed,
                                spec.system.compileOptions());
}

/** File a stream is captured to / replayed from. */
std::string
tracePath(const std::string &dir, const RunSpec &spec)
{
    return dir + "/" + streamKey(spec);
}

Workload
makeBenchWorkload(const std::string &name, std::uint64_t seed,
                  const std::string &trace_dir)
{
    Workload w;
    w.name = name;
    auto add = [&](const std::string &kernel, std::int64_t n,
                   std::uint64_t llc, DesignPoint design) -> RunSpec & {
        Cell cell;
        cell.spec.workload = kernel;
        cell.spec.n = n;
        cell.spec.seed = seed;
        cell.spec.system.design = design;
        cell.spec.system.l3Size = llc;
        w.cells.push_back(std::move(cell));
        return w.cells.back().spec;
    };
    if (name == "paper-fig12") {
        for (std::uint64_t llc : {MiB, 3 * MiB / 2, 2 * MiB, 4 * MiB})
            for (const auto &kernel : workloads::workloadNames())
                for (auto design : designs)
                    add(kernel, 64, llc, design).system.checkData = true;
    } else if (name == "zoo-replay") {
        w.replay = true;
        for (std::uint64_t llc : {MiB, 2 * MiB, 4 * MiB}) {
            for (const char *kernel : {"kv", "spmv", "stream", "htap2"}) {
                for (auto design : designs) {
                    RunSpec &spec = add(kernel, 512, llc, design);
                    spec.system.checkData = true;
                    spec.system.traceMode = TraceMode::Replay;
                    spec.system.traceDir = trace_dir;
                }
            }
        }
    } else if (name == "sampled-paper") {
        const std::vector<std::pair<const char *, std::int64_t>> kernels{
            {"sobel", 512}, {"htap1", 512}, {"htap2", 512}, {"strmm", 256}};
        for (std::uint64_t llc : {MiB, 4 * MiB}) {
            for (const auto &[kernel, n] : kernels) {
                for (auto design : designs) {
                    RunSpec &spec = add(kernel, n, llc, design);
                    spec.system.samplePeriod = 100000;
                    spec.system.sampleWindow = 1000;
                    if (std::string(kernel) == "htap2")
                        spec.seed = defaultSeed;
                }
            }
        }
    } else {
        fatal("unknown workload '%s' (paper-fig12, zoo-replay, "
              "sampled-paper)",
              name.c_str());
    }
    for (auto &cell : w.cells) {
        const RunSpec &s = cell.spec;
        cell.key = s.workload + "/" + designName(s.system.design) +
                   "/n" + std::to_string(s.n) + "/llc" +
                   std::to_string(s.system.l3Size) + "/seed" +
                   std::to_string(s.seed);
    }
    return w;
}

/** Host time spent in each setup step of one or more cells. */
struct SetupTimes
{
    double compile = 0.0; ///< compiler::compileKernel
    double build = 0.0;   ///< source + System construction
};

/** A cell's live op stream: compiled kernel or direct emitter. The
 *  kernel is stored in @p kernel, which must outlive the source. */
std::unique_ptr<trace::TraceSource>
liveSource(const RunSpec &spec,
           std::unique_ptr<compiler::CompiledKernel> &kernel,
           SetupTimes &times)
{
    auto params = PreparedRun::workloadParams(spec);
    auto opts = spec.system.compileOptions();
    if (workloads::isEmitterWorkload(spec.workload))
        return workloads::makeEmitterSource(spec.workload, params, opts);
    auto t0 = Clock::now();
    kernel = std::make_unique<compiler::CompiledKernel>(
        compiler::compileKernel(
            workloads::makeWorkload(spec.workload, params), opts));
    times.compile += since(t0);
    return std::make_unique<trace::GeneratorSource>(*kernel);
}

/**
 * Per-component host time of one traced System::run.
 *
 * One listener on every PacketEvent probe point charges the host time
 * between two consecutive firings to the component that fired the
 * first; event dispatch folds into that component. The cell's op
 * stream is wrapped (SplitSource) so the time inside
 * TraceSource::next goes to the trace front end and the time after it
 * — issue, or a fast-forwarded op's functional walk through the
 * hierarchy — to the CPU. The time before the first firing goes to
 * the CPU too, so the parts sum to the run time exactly.
 */
class HostSplit
{
  public:
    static constexpr std::size_t parts = 6;
    static constexpr std::array<const char *, parts> names{
        "harness.cpu", "trace", "core.l1", "core.l2", "core.llc", "mem"};
    static constexpr std::size_t cpu = 0;
    static constexpr std::size_t front = 1;

    HostSplit() = default;
    HostSplit(const HostSplit &) = delete;
    HostSplit &operator=(const HostSplit &) = delete;

    /** Listen to every PacketEvent probe point of @p system. */
    void
    attach(System &system)
    {
        const std::string llc = system.statGroup().meta("llc");
        auto &pm = system.probeManager();
        for (const auto &name : pm.names()) {
            auto *point = pm.findTyped<probe::PacketEvent>(name);
            if (!point)
                continue;
            std::string comp = name.substr(0, name.find('.'));
            std::size_t idx = comp == "cpu"   ? cpu
                              : comp == "l1"  ? 2
                              : comp == "l2"  ? 3
                              : comp == llc   ? 4
                              : comp == "mem" ? 5
                                              : parts;
            if (idx == parts)
                fatal("probe point %s has no host-time component",
                      name.c_str());
            _listeners.emplace_back(
                *point, [this, idx](const probe::PacketEvent &) {
                    mark(idx);
                });
        }
    }

    /** Detach every listener; call before the System is destroyed. */
    void detach() { _listeners.clear(); }

    void
    begin()
    {
        _start = _prev = nowNs();
        _last = cpu;
    }

    /** Close the run; returns its duration in ns. */
    std::int64_t
    end()
    {
        mark(cpu);
        return _prev - _start;
    }

    /** Charge the time since the last mark to the current component
     *  and make @p idx current. */
    void
    mark(std::size_t idx)
    {
        std::int64_t t = nowNs();
        _ns[_last] += t - _prev;
        _prev = t;
        _last = idx;
    }

    const std::array<std::int64_t, parts> &ns() const { return _ns; }

  private:
    std::vector<probe::ProbeListener> _listeners;
    std::array<std::int64_t, parts> _ns{};
    std::int64_t _start = 0;
    std::int64_t _prev = 0;
    std::size_t _last = cpu;
};

/** Times the trace front end of a traced run (see HostSplit). */
class SplitSource : public trace::TraceSource
{
  public:
    SplitSource(std::unique_ptr<trace::TraceSource> inner,
                HostSplit &split)
        : _inner(std::move(inner)), _split(split)
    {}

    bool
    next(compiler::TraceOp &op) override
    {
        _split.mark(HostSplit::front);
        bool more = _inner->next(op);
        _split.mark(HostSplit::cpu);
        return more;
    }

    void reset() override { _inner->reset(); }
    std::uint64_t opsEmitted() const override
    {
        return _inner->opsEmitted();
    }

  private:
    std::unique_ptr<trace::TraceSource> _inner;
    HostSplit &_split;
};

/** A cell's simulated machine; the kernel outlives the System. */
struct Prepared
{
    std::unique_ptr<compiler::CompiledKernel> kernel;
    std::unique_ptr<System> system;
};

/** Set a cell up the way PreparedRun does, timing compilation and
 *  construction apart. With @p split, the op stream is timed for it. */
Prepared
prepare(const RunSpec &spec, SetupTimes &times,
        HostSplit *split = nullptr)
{
    Prepared p;
    std::unique_ptr<trace::TraceSource> source;
    double compile_before = times.compile;
    auto t0 = Clock::now();
    if (spec.system.traceMode == TraceMode::Replay) {
        source = std::make_unique<trace::ReplaySource>(
            tracePath(spec.system.traceDir, spec));
    } else {
        source = liveSource(spec, p.kernel, times);
    }
    if (split)
        source = std::make_unique<SplitSource>(std::move(source), *split);
    p.system = std::make_unique<System>(
        spec.autoScaleCaches ? spec.system.scaledForInput(spec.n)
                             : spec.system,
        std::move(source));
    times.build += since(t0) - (times.compile - compile_before);
    return p;
}

/** Drain a stream alone; returns the op count. */
std::uint64_t
drain(trace::TraceSource &source)
{
    compiler::TraceOp op;
    std::uint64_t n = 0;
    while (source.next(op))
        ++n;
    return n;
}

/** Cells that differ only in what the op stream does not depend on
 *  share one stream; one representative spec per stream key. */
std::map<std::string, RunSpec>
distinctStreams(const Workload &w)
{
    std::map<std::string, RunSpec> streams;
    for (const auto &cell : w.cells)
        streams.emplace(streamKey(cell.spec), cell.spec);
    return streams;
}

/** Ops and host seconds of a timed throughput measurement. */
struct Rate
{
    double ops = 0.0;
    double seconds = 0.0;
    double perSecond() const { return seconds > 0 ? ops / seconds : 0; }
};

/** Compile time, capture rate and bytes written by captureStreams. */
struct CaptureStats
{
    SetupTimes times;
    Rate rate;
    double bytes = 0.0;
};

/** Capture every stream of @p w to its replay file (the zoo set-up). */
CaptureStats
captureStreams(const Workload &w, const std::string &dir)
{
    CaptureStats out;
    for (const auto &[key, spec] : distinctStreams(w)) {
        std::unique_ptr<compiler::CompiledKernel> kernel;
        std::string path = tracePath(dir, spec);
        auto inner = liveSource(spec, kernel, out.times);
        auto t0 = Clock::now();
        trace::CaptureSource capture(std::move(inner), path);
        out.rate.ops += static_cast<double>(drain(capture));
        out.rate.seconds += since(t0);
        out.bytes += static_cast<double>(std::filesystem::file_size(path));
    }
    return out;
}

/** What one execution of one cell produced. */
struct CellRun
{
    CellOutcome outcome;
    SetupTimes setup;
    double run = 0.0;
    /** Memory ops simulated (exact) or covered (sampled). */
    double ops = 0.0;
    std::array<std::int64_t, HostSplit::parts> splitNs{};
    std::string statsJson;
    std::vector<std::string> failures;
};

CellRun
runCell(const Cell &cell, bool traced)
{
    CellRun r;
    // Declared before the System, whose op stream refers to it.
    HostSplit split;
    Prepared p = prepare(cell.spec, r.setup, traced ? &split : nullptr);
    System &sys = *p.system;
    RunResult result;
    if (traced) {
        split.attach(sys);
        split.begin();
        result = sys.run();
        std::int64_t run_ns = split.end();
        split.detach();
        r.run = static_cast<double>(run_ns) * 1e-9;
        r.splitNs = split.ns();
        std::int64_t sum = 0;
        for (auto ns : r.splitNs)
            sum += ns;
        if (sum != run_ns)
            r.failures.push_back("host-time split does not sum to the "
                                 "traced run time");
    } else {
        auto t0 = Clock::now();
        result = sys.run();
        r.run = since(t0);
    }

    const auto &sg = sys.statGroup();
    for (const auto &name : sg.scalarNames())
        r.outcome.stats[name] = sg.scalar(name);
    r.outcome.cpuDone = sys.cpu().done();
    r.outcome.expectedOps = cell.expectedOps;
    r.outcome.cycles = result.cycles;
    r.outcome.exactCycles = cell.exactCycles;
    r.outcome.samplingMeta = sg.meta("sampling");
    r.ops = r.outcome.samplingMeta.empty()
                ? statOr0(r.outcome, "cpu.ops")
                : static_cast<double>(
                      jsonField(r.outcome.samplingMeta, "totalOps"));
    std::ostringstream os;
    sg.dumpJson(os);
    r.statsJson = os.str();
    for (auto &why : checkCell(r.outcome))
        r.failures.push_back(std::move(why));
    return r;
}

/** One pass over every cell of a workload. */
struct Pass
{
    double wall = 0.0;
    SetupTimes setup;
    double capture = 0.0;
    double run = 0.0;
    double ops = 0.0;
    std::vector<CellRun> cells;

    double setupSeconds() const
    {
        return capture + setup.compile + setup.build;
    }
};

/** Run every cell once. Later passes are compared with @p first
 *  cell by cell and keep only what the metrics need, so memory does
 *  not grow with the number of passes. */
Pass
runPass(const Workload &w, const std::string &trace_dir, bool traced,
         const Pass *first)
{
    Pass r;
    auto t0 = Clock::now();
    if (w.replay) {
        CaptureStats cap = captureStreams(w, trace_dir);
        r.setup.compile += cap.times.compile;
        r.capture = cap.rate.seconds;
    }
    for (const auto &cell : w.cells) {
        CellRun cr = runCell(cell, traced);
        if (first) {
            if (cr.statsJson != first->cells[r.cells.size()].statsJson)
                cr.failures.push_back("statistics differ between passes");
            cr.statsJson.clear();
            cr.outcome.stats.clear();
        }
        r.setup.compile += cr.setup.compile;
        r.setup.build += cr.setup.build;
        r.run += cr.run;
        r.ops += cr.ops;
        r.cells.push_back(std::move(cr));
    }
    r.wall = since(t0);
    return r;
}

/** Set every cell up and tear it down again, without running. */
double
setupOnly(const Workload &w, const std::string &trace_dir)
{
    double capture = 0.0;
    SetupTimes times;
    if (w.replay) {
        CaptureStats cap = captureStreams(w, trace_dir);
        capture = cap.rate.seconds;
        times.compile += cap.times.compile;
    }
    for (const auto &cell : w.cells)
        prepare(cell.spec, times);
    return capture + times.compile + times.build;
}

/** Reference values the checks compare against, made outside every
 *  timed region: op counts of each stream drained alone and exact
 *  runs of the n = 512 sampled cells. Returns the drain rates. */
struct References
{
    Rate tracegen;
    /** Every stream produced ops and every exact reference cycles;
     *  otherwise the checks have nothing to compare with. */
    bool usable = true;
};

References
makeReferences(Workload &w)
{
    References refs;
    std::map<std::string, std::uint64_t> ops;
    for (const auto &[key, spec] : distinctStreams(w)) {
        std::unique_ptr<compiler::CompiledKernel> kernel;
        SetupTimes ignored;
        auto source = liveSource(spec, kernel, ignored);
        auto t0 = Clock::now();
        ops[key] = drain(*source);
        refs.usable = refs.usable && ops[key] > 0;
        if (kernel) {
            refs.tracegen.seconds += since(t0);
            refs.tracegen.ops += static_cast<double>(ops[key]);
        }
    }
    for (auto &cell : w.cells) {
        cell.expectedOps = ops.at(streamKey(cell.spec));
        if (cell.spec.system.sampling() && cell.spec.n == 512) {
            RunSpec exact = cell.spec;
            exact.system.samplePeriod = 0;
            exact.system.sampleWindow = 0;
            SetupTimes ignored;
            cell.exactCycles = prepare(exact, ignored).system->run().cycles;
            refs.usable = refs.usable && cell.exactCycles > 0;
        }
    }
    return refs;
}

// ---- per-layer probes (--trace 1) ---------------------------------

/** The spmv emitter drained alone, at the n and seed of the
 *  workload's first cell. */
Rate
probeEmitter(const Workload &w)
{
    RunSpec spec = w.cells.front().spec;
    spec.workload = "spmv";
    std::unique_ptr<compiler::CompiledKernel> none;
    SetupTimes ignored;
    auto source = liveSource(spec, none, ignored);
    auto t0 = Clock::now();
    Rate r;
    r.ops = static_cast<double>(drain(*source));
    r.seconds = since(t0);
    return r;
}

/** Every stream captured (TraceWriter) and then replayed alone. */
struct TraceProbe
{
    Rate capture;
    Rate replay;
    double bytes = 0.0;
};

TraceProbe
probeTraceLayer(const Workload &w, const std::string &dir)
{
    std::filesystem::create_directories(dir);
    CaptureStats cap = captureStreams(w, dir);
    TraceProbe out;
    out.capture = cap.rate;
    out.bytes = cap.bytes;
    for (const auto &[key, spec] : distinctStreams(w)) {
        auto t0 = Clock::now();
        trace::ReplaySource replay(tracePath(dir, spec));
        out.replay.ops += static_cast<double>(drain(replay));
        out.replay.seconds += since(t0);
    }
    std::filesystem::remove_all(dir);
    return out;
}

/** TraceCpu::fastForward over a whole stream on a fresh System, for
 *  each kernel's 1P2L cell at the smallest LLC. */
Rate
probeFastForward(const Workload &w)
{
    std::uint64_t llc = w.cells.front().spec.system.l3Size;
    for (const auto &cell : w.cells)
        llc = std::min(llc, cell.spec.system.l3Size);
    Rate r;
    for (const auto &cell : w.cells) {
        if (cell.spec.system.design != DesignPoint::D1_1P2L ||
            cell.spec.system.l3Size != llc)
            continue;
        SetupTimes ignored;
        Prepared p = prepare(cell.spec, ignored);
        auto t0 = Clock::now();
        r.ops += static_cast<double>(
            p.system->cpu().fastForward(~std::uint64_t{0}));
        r.seconds += since(t0);
    }
    return r;
}

/** EventQueue alone with the simulator's scheduling mix: about 80%
 *  same-tick events (retry storms, issue chains), 20% heap events
 *  (latencies), on eight self-rescheduling chains. */
Rate
probeEventQueue(std::uint64_t target)
{
    struct Chain
    {
        EventQueue *eq;
        std::uint64_t *executed;
        std::uint64_t target;
        unsigned phase = 0;

        void
        operator()()
        {
            if (++*executed >= target)
                return;
            Chain next = *this;
            next.phase = (phase + 1) % 5;
            if (next.phase == 0)
                eq->scheduleAfter(3, next);
            else
                eq->scheduleAfter(0, next, EventPriority::Response);
        }
    };
    EventQueue eq;
    std::uint64_t executed = 0;
    auto t0 = Clock::now();
    for (unsigned c = 0; c < 8; ++c)
        eq.scheduleAfter(c + 1, Chain{&eq, &executed, target});
    eq.run();
    return {static_cast<double>(executed), since(t0)};
}

/** PacketPool alone: a window of 64 outstanding packets, the oldest
 *  released as each new one is made. */
Rate
probePacketPool(std::uint64_t target)
{
    constexpr std::size_t window = 64;
    PacketPool pool;
    std::array<PacketPtr, window> outstanding;
    auto t0 = Clock::now();
    for (std::uint64_t n = 0; n < target; ++n) {
        outstanding[n % window] = Packet::makeScalar(
            MemCmd::Read, n * wordBytes, Orientation::Row, 0, 0, &pool);
    }
    for (auto &pkt : outstanding)
        pkt.reset();
    return {static_cast<double>(target), since(t0)};
}

/** Median rate of @p reps repetitions of @p probe. */
template <typename Fn>
double
medianRate(int reps, Fn &&probe)
{
    std::vector<double> rates;
    for (int i = 0; i < reps; ++i)
        rates.push_back(probe().perSecond());
    return median(rates);
}

// ---- reporting ----------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
        if (!__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
#else
    return "unknown";
#endif
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** Sum of a scalar over a pass's cells. */
double
total(const Pass &r, const std::string &stat)
{
    double sum = 0.0;
    for (const auto &c : r.cells)
        sum += statOr0(c.outcome, stat);
    return sum;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Per-layer counters summed over a pass's cells. */
void
addCounterMetrics(const Pass &r, std::vector<Metric> &m)
{
    const std::array<std::pair<const char *, const char *>, 3> levels{
        {{"l1", "l1"}, {"l2", "l2"}, {"llc", "l3"}}};
    double accesses = 0.0;
    for (const auto &[label, stat] : levels) {
        std::string s = stat;
        std::string l = label;
        double acc = total(r, s + ".demandAccesses");
        accesses += acc;
        m.push_back({"core." + l + ".accesses", acc, "count"});
        m.push_back({"core." + l + ".hit_rate",
                     ratio(total(r, s + ".demandHits"), acc), "ratio"});
        m.push_back({"cache." + l + ".mshr_coalesced",
                     total(r, s + ".mshrCoalesced"), "count"});
        m.push_back({"cache." + l + ".prefetches_issued",
                     total(r, s + ".prefetchesIssued"), "count"});
    }
    double issued = 0.0, useful = 0.0, writebacks = 0.0, dups = 0.0;
    for (const char *s : {"l1", "l2", "l3"}) {
        std::string p = s;
        issued += total(r, p + ".prefetchesIssued");
        useful += total(r, p + ".prefetchesUseful");
        writebacks += total(r, p + ".writebacksOut");
        dups += total(r, p + ".dupWritebacks") +
                total(r, p + ".dupEvictions");
    }
    m.push_back({"cache.prefetch_useful_ratio", ratio(useful, issued),
                 "ratio"});
    m.push_back({"cache.writebacks", writebacks, "count"});
    m.push_back({"core.dup_actions", dups, "count"});
    double requests = total(r, "mem.readReqs") + total(r, "mem.writeReqs");
    m.push_back({"mem.requests", requests, "count"});
    m.push_back({"mem.buffer_hit_rate",
                 ratio(total(r, "mem.rowBufHits") +
                           total(r, "mem.colBufHits"),
                       requests),
                 "ratio"});
    m.push_back({"mem.bytes",
                 total(r, "mem.bytesRead") + total(r, "mem.bytesWritten"),
                 "B"});
    m.push_back({"harness.host_ns_per_access",
                 ratio(r.run * 1e9, accesses + requests), "ns"});
}

/** Largest error of the sampled cycle estimates against the exact
 *  runs, per kernel. */
void
printSampledErrors(const Workload &w, const Pass &r)
{
    std::map<std::string, double> worst;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        const CellOutcome &c = r.cells[i].outcome;
        if (c.exactCycles == 0)
            continue;
        double err = std::fabs(static_cast<double>(c.cycles) -
                               static_cast<double>(c.exactCycles)) /
                     static_cast<double>(c.exactCycles);
        double &slot = worst[w.cells[i].spec.workload];
        slot = std::max(slot, err);
    }
    for (const auto &[kernel, err] : worst) {
        std::printf("model: %s sampled cycles within %.1f%% of exact "
                    "(tolerance %.0f%%)\n",
                    kernel.c_str(), 100.0 * err,
                    100.0 * sampledCycleTolerance);
    }
}

/** Mean cycle reduction per design and LLC against 1P1L, beside the
 *  paper's Fig. 12 averages. */
void
printFig12Summary(const Workload &w, const Pass &r)
{
    const std::map<std::string, std::array<double, 4>> paper{
        {"1P2L", {64, 65, 46, 45}},
        {"1P2L_SameSet", {72, 68, 64, 57}},
        {"2P2L", {65, 66, 41, 39}}};
    const std::array<std::uint64_t, 4> llcs{MiB, 3 * MiB / 2, 2 * MiB,
                                            4 * MiB};
    std::map<std::pair<std::string, std::uint64_t>, std::vector<double>>
        reductions;
    std::map<std::pair<std::string, std::uint64_t>, double> base;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        const RunSpec &s = w.cells[i].spec;
        double cycles = static_cast<double>(r.cells[i].outcome.cycles);
        if (s.system.design == DesignPoint::D0_1P1L) {
            base[{s.workload, s.system.l3Size}] = cycles;
        } else {
            reductions[{designName(s.system.design), s.system.l3Size}]
                .push_back(1.0 - cycles /
                                     base.at({s.workload, s.system.l3Size}));
        }
    }
    std::printf("model: mean cycle reduction vs 1P1L at 1/1.5/2/4MB LLC "
                "(paper in brackets; the model is unvalidated against "
                "hardware)\n");
    for (const auto &[design, ref] : paper) {
        std::printf("  %-13s", design.c_str());
        for (std::size_t k = 0; k < llcs.size(); ++k) {
            auto &v = reductions[{design, llcs[k]}];
            double mean = 0.0;
            for (double x : v)
                mean += x;
            mean /= v.empty() ? 1.0 : static_cast<double>(v.size());
            std::printf("  %5.1f%% [%2.0f%%]", 100.0 * mean, ref[k]);
        }
        std::printf("\n");
    }
}

struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    bool selfTest = false;
};

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<paper-fig12|zoo-replay|sampled-paper> --seed <n> "
                 "--seconds <s> --trace <0|1> --out <dir>\n"
                 "       perfbench --self-test\n",
                 msg);
    return 2;
}

int
benchMain(int argc, char **argv)
{
    Options opt;
    for (int a = 1; a < argc; ++a) {
        std::string arg = argv[a];
        if (arg == "--self-test") {
            opt.selfTest = true;
            continue;
        }
        if (a + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        std::string val = argv[++a];
        if (arg == "--workload")
            opt.workload = val;
        else if (arg == "--seed")
            opt.seed = std::stoull(val, nullptr, 0);
        else if (arg == "--seconds")
            opt.seconds = std::stod(val);
        else if (arg == "--trace")
            opt.trace = (val == "1");
        else if (arg == "--out")
            opt.out = val;
        else
            return usage(("unknown option " + arg).c_str());
    }

    auto problems = selfTest();
    for (const auto &p : problems)
        std::fprintf(stderr, "perfbench: check self-test: %s\n", p.c_str());
    if (!problems.empty())
        return 3;
    if (opt.selfTest) {
        std::printf("check self-test passed\n");
        return 0;
    }
    if (opt.workload.empty() || opt.out.empty())
        return usage("--workload and --out are required");

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
    std::fprintf(stderr, "perfbench: refusing to time an unoptimized or "
                         "sanitizer build\n");
    return 4;
#endif

    std::printf("host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s\n",
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                compilerName().c_str(), PERFBENCH_BUILD_TYPE);

    const std::string trace_dir = opt.out + "/traces";
    std::filesystem::create_directories(trace_dir);
    Workload w = makeBenchWorkload(opt.workload, opt.seed, trace_dir);
    References refs = makeReferences(w);

    std::vector<Pass> passes;
    std::vector<double> setups;
    double peak_rss = 0.0;
    if (!opt.trace) {
        // Another pass starts only when one more as long as the last
        // still ends within --seconds, so a run never overshoots by a
        // whole pass of the longer workloads.
        auto t0 = Clock::now();
        do {
            const Pass *first = passes.empty() ? nullptr : &passes.front();
            passes.push_back(runPass(w, trace_dir, false, first));
            // One pass is the workload; later passes only repeat it
            // for timing, and the allocator's fragmentation across
            // them would tie the mark to the number of passes.
            if (passes.size() == 1)
                peak_rss = peakRssMiB();
        } while (since(t0) + passes.back().wall <= opt.seconds);
        for (const auto &r : passes)
            setups.push_back(r.setupSeconds());
        // Set-up is short beside the runs and noisy on its own; repeat
        // it alone so its median rests on at least 21 samples.
        while (setups.size() < 21)
            setups.push_back(setupOnly(w, trace_dir));
    } else {
        passes.push_back(runPass(w, trace_dir, false, nullptr));
        passes.push_back(runPass(w, trace_dir, true, &passes.front()));
    }
    for (std::size_t k = 0; k < passes.size(); ++k) {
        const Pass &r = passes[k];
        std::printf("pass %zu%s: wall %.3f s, setup %.4f s, run %.3f s, "
                    "%.0f ops/s\n",
                    k + 1, opt.trace && k == 1 ? " (traced)" : "", r.wall,
                    r.setupSeconds(), r.run, r.ops / r.run);
    }

    std::vector<Metric> metrics;
    if (!opt.trace) {
        std::vector<double> walls, rates;
        for (const auto &r : passes) {
            walls.push_back(r.wall);
            rates.push_back(r.ops / r.run);
        }
        metrics = {{"wall_s", median(walls), "s"},
                   {"sim_ops_per_s", median(rates), "ops/s"},
                   {"setup_s", median(setups), "s"},
                   {"peak_rss_mib", peak_rss, "MiB"}};
    } else {
        const Pass &plain = passes[0];
        const Pass &traced = passes[1];
        std::array<double, HostSplit::parts> split{};
        for (const auto &c : traced.cells)
            for (std::size_t k = 0; k < HostSplit::parts; ++k)
                split[k] += static_cast<double>(c.splitNs[k]) * 1e-9;

        TraceProbe tp = probeTraceLayer(w, opt.out + "/probe");
        metrics = {
            {"compiler.compile_s", plain.setup.compile, "s"},
            {"compiler.tracegen_ops_per_s", refs.tracegen.perSecond(),
             "ops/s"},
            {"workloads.emit_ops_per_s",
             medianRate(3, [&] { return probeEmitter(w); }), "ops/s"},
            {"trace.capture_ops_per_s", tp.capture.perSecond(), "ops/s"},
            {"trace.bytes_per_op", ratio(tp.bytes, tp.capture.ops),
             "B/op"},
            {"trace.replay_ops_per_s", tp.replay.perSecond(), "ops/s"},
            {"harness.build_s", plain.setup.build, "s"},
            {"harness.run_s", plain.run, "s"},
            {"harness.traced_run_s", traced.run, "s"},
            {"harness.trace_overhead", ratio(traced.wall, plain.wall),
             "x"},
            {"harness.ff_ops_per_s", probeFastForward(w).perSecond(),
             "ops/s"},
            {"sim.eventq_events_per_s",
             medianRate(3, [] { return probeEventQueue(4'000'000); }),
             "events/s"},
            {"sim.pool_packets_per_s",
             medianRate(3, [] { return probePacketPool(4'000'000); }),
             "packets/s"},
        };
        for (std::size_t k = 0; k < HostSplit::parts; ++k) {
            metrics.push_back(
                {std::string(HostSplit::names[k]) + ".host_s", split[k],
                 "s"});
        }
        addCounterMetrics(plain, metrics);
    }

    // Every cell of every pass was checked as it finished.
    std::size_t attempted = 0, failed = 0;
    std::set<std::string> reasons;
    for (const auto &r : passes) {
        for (std::size_t i = 0; i < r.cells.size(); ++i) {
            const auto &c = r.cells[i];
            ++attempted;
            if (!c.failures.empty()) {
                ++failed;
                for (const auto &why : c.failures)
                    reasons.insert(w.cells[i].key + ": " + why);
            }
        }
    }

    std::ofstream stats(opt.out + "/stats.json");
    stats << "{";
    std::map<std::string, const std::string *> sorted;
    for (std::size_t i = 0; i < w.cells.size(); ++i)
        sorted[w.cells[i].key] = &passes[0].cells[i].statsJson;
    bool first = true;
    for (const auto &[key, json] : sorted) {
        stats << (first ? "\n" : ",\n") << "\"" << key << "\": " << *json;
        first = false;
    }
    stats << "}\n";
    stats.close();
    if (!stats) {
        std::fprintf(stderr, "perfbench: cannot write %s/stats.json\n",
                     opt.out.c_str());
        return 1;
    }

    if (w.name == "paper-fig12")
        printFig12Summary(w, passes[0]);
    printSampledErrors(w, passes[0]);
    for (const auto &why : reasons)
        std::printf("failed: %s\n", why.c_str());
    std::printf("workload %s: %zu pass(es), %zu cells attempted, %zu "
                "failed\n",
                w.name.c_str(), passes.size(), attempted, failed);
    for (const auto &m : metrics)
        std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::ostringstream js;
    js.precision(10);
    js << "{\"correct\": " << (refs.usable ? "true" : "false")
       << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        js << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    js << "}}";
    std::printf("%s\n", js.str().c_str());
    return 0;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::benchMain(argc, argv);
}
