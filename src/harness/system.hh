/**
 * @file
 * System: assembles CPU + cache hierarchy + MDA memory for one run.
 */

#ifndef MDA_HARNESS_SYSTEM_HH
#define MDA_HARNESS_SYSTEM_HH

#include <memory>
#include <vector>

#include "compiler/compile.hh"
#include "core/line_cache.hh"
#include "core/tile_cache.hh"
#include "mem/mda_memory.hh"
#include "observe.hh"
#include "sim/interval_stats.hh"
#include "sim/packet_pool.hh"
#include "sim/probe.hh"
#include "system_config.hh"
#include "telemetry.hh"
#include "trace_cpu.hh"

namespace mda
{

/** Results distilled from one simulation. */
struct RunResult
{
    std::uint64_t cycles = 0;
    std::uint64_t ops = 0;

    double l1HitRate = 0.0;

    /** Requests arriving at the LLC (reads + writebacks). */
    std::uint64_t llcAccesses = 0;

    /** Bytes moved between the LLC and main memory. */
    std::uint64_t memBytes = 0;

    std::uint64_t checkFailures = 0;
};

/** One simulated machine executing one operation stream. */
class System
{
  public:
    /** Convenience: live generation from @p kernel (must outlive the
     *  System). */
    System(const SystemConfig &config,
           const compiler::CompiledKernel &kernel,
           const observe::Options &obs = {});

    /** Drive the CPU from an arbitrary operation stream: a direct
     *  workload emitter, a capturing tee, or a trace-file replay.
     *  @p obs selects the debug text and Chrome trace this System
     *  records. */
    System(const SystemConfig &config,
           std::unique_ptr<trace::TraceSource> source,
           const observe::Options &obs = {});

    /** Run to completion and distill the results. With
     *  SystemConfig::sampling() set, dispatches to the SMARTS-style
     *  sampled loop (runSampled) instead of the exact event loop. */
    RunResult run();

    /** All statistics (benches pull extra series/values from here). */
    stats::StatGroup &statGroup() { return _stats; }
    EventQueue &eventQueue() { return _eq; }
    TraceCpu &cpu() { return *_cpu; }
    MdaMemory &memory() { return *_memory; }
    PacketPool &packetPool() { return _pool; }

    /** Probe points, by name ("l1.accepted", "eventq.execute", ...). */
    probe::ProbeManager &probeManager() { return _probes; }

    /** The Chrome trace this System recorded; null unless
     *  observe::Options::trace was set. */
    const trace::EventLog *
    traceLog() const
    {
        return _trace ? &_trace->log() : nullptr;
    }

    /** Interval-stats JSONL captured during run(); empty string when
     *  SystemConfig::statsInterval is 0. */
    std::string intervalJson() const
    {
        return _interval ? _interval->json() : std::string();
    }

    /** LineCache levels, CPU side first (empty slots for TileCache). */
    const std::vector<CacheBase *> &cacheLevels() const
    {
        return _levels;
    }

    /** Fig. 15 occupancy series name for level @p idx ("l1", ...). */
    static std::string levelName(std::size_t idx);

  private:
    void buildCaches(const SystemConfig &config);
    void sampleOccupancy();

    /** SMARTS loop: alternate measured windows with functional
     *  fast-forward, then scale counters to whole-run estimates. */
    RunResult runSampled();

    /** Shared tail of run()/runSampled(): distill RunResult. */
    RunResult distill() const;

    SystemConfig _config;
    EventQueue _eq;
    stats::StatGroup _stats;

    /** Declared before every packet-holding component so those are
     *  destroyed (and release their packets) while the pool's slabs
     *  are still alive. */
    PacketPool _pool;

    std::unique_ptr<trace::TraceSource> _source;
    std::vector<std::unique_ptr<CacheBase>> _caches;
    std::vector<CacheBase *> _levels;
    std::unique_ptr<MdaMemory> _memory;
    std::unique_ptr<TraceCpu> _cpu;

    /** Declared after the components so listeners detach before the
     *  probe points they attach to are destroyed. */
    probe::ProbeManager _probes;
    std::unique_ptr<telemetry::LatencyAccountant> _telemetry;
    std::unique_ptr<observe::DebugPrinter> _debug;
    std::unique_ptr<observe::TraceRecorder> _trace;
    std::unique_ptr<stats::IntervalStats> _interval;

    std::vector<stats::TimeSeries> _occupancy;
    std::string _llcName;
};

} // namespace mda

#endif // MDA_HARNESS_SYSTEM_HH
