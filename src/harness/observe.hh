/**
 * @file
 * Run observation as probe listeners: debug text and Chrome traces.
 *
 * Both listeners attach to one System's ProbeManager, the way the
 * LatencyAccountant does, so every cell of a sweep is observed on its
 * own and traced sweeps run at any --jobs. What a run observes is a
 * per-run Options value handed to each System it builds.
 *
 *  - DebugPrinter renders probe firings as gem5-style text lines
 *    "<tick>: <component>: [<Flag>] <message>", selected by the
 *    debug flags below (--debug-flags, MDA_DEBUG_FLAGS).
 *  - TraceRecorder fills a per-System trace::EventLog: packet
 *    lifetimes as async slices, hit/miss markers, memory bank service
 *    as complete slices, and every gauge probe as a counter track.
 *
 * With no listener attached every probe costs one predicted-false
 * branch, so an unobserved run is unchanged.
 */

#ifndef MDA_HARNESS_OBSERVE_HH
#define MDA_HARNESS_OBSERVE_HH

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/probe.hh"
#include "sim/trace_event.hh"

namespace mda::observe
{

/** Debug-text flags, one per traceable subsystem. */
enum class DebugFlag : unsigned
{
    Cache,     ///< Cache accepts, fills, hits, misses, evictions.
    MSHR,      ///< MSHR queue/retire and deferrals.
    Coherence, ///< Duplicate-coherence writebacks/evictions.
    TileCache, ///< 2P2L hits, misses and frame evictions.
    MDAMem,    ///< Memory controller enqueue and bank service.
    TraceCpu,  ///< CPU issue and response stream.
    Event,     ///< Event-queue scheduling (very verbose).
};

constexpr std::size_t numDebugFlags = 7;

struct DebugFlagInfo
{
    const char *name;
    const char *desc;
};

/** Name and description of each flag, indexed by DebugFlag. */
inline constexpr std::array<DebugFlagInfo, numDebugFlags> debugFlagInfo{{
    {"Cache", "LineCache hits, misses, fills, and evictions"},
    {"MSHR", "MSHR allocate/coalesce/retire/defer activity"},
    {"Coherence",
     "duplicate-coherence writebacks and evictions (Fig. 9)"},
    {"TileCache", "2P2L sparse-block fills and validates"},
    {"MDAMem", "memory-controller queueing and bank scheduling"},
    {"TraceCpu", "CPU issue and response stream"},
    {"Event", "event-queue scheduling (very verbose)"},
}};

/** A set of debug flags, one bit per DebugFlag. */
using DebugFlags = std::uint32_t;

constexpr DebugFlags
flagBit(DebugFlag flag)
{
    return DebugFlags{1} << static_cast<unsigned>(flag);
}

/**
 * Add the comma-separated flag names in @p csv ("Cache,MSHR"; "All"
 * names every flag) to @p flags. Unknown names warn and are skipped.
 * @return true when every listed name was recognized.
 */
bool addDebugFlags(const std::string &csv, DebugFlags &flags);

/** The flags listed in the MDA_DEBUG_FLAGS environment variable. */
DebugFlags environmentDebugFlags();

/** What each System of a run observes. */
struct Options
{
    DebugFlags debugFlags = 0;
    /** Debug text destination; null means standard error. */
    std::ostream *debugOut = nullptr;
    /** Record a Chrome trace (System::traceLog()). */
    bool trace = false;
    /** Trace buffer bound, per System. */
    std::size_t traceMaxEvents = trace::EventLog::defaultCapacity;
};

/** Prints the debug-text lines of one System's probes. */
class DebugPrinter
{
  public:
    /**
     * Print the lines of @p flags for the points of @p pm to @p out
     * (standard error when null). Hits, misses and evictions of the
     * cache levels named in @p tile_levels are tagged TileCache,
     * those of the other levels Cache.
     */
    DebugPrinter(probe::ProbeManager &pm, DebugFlags flags,
                 std::ostream *out,
                 const std::vector<std::string> &tile_levels);

  private:
    /** Attach @p fn to @p point if @p flag is selected. */
    template <typename Payload, typename Fn>
    void attach(probe::ProbePoint<Payload> &point, DebugFlag flag, Fn fn);

    /** Emit one "<tick>: <who>: [<flag>] <message>" line. */
    void print(Tick when, const std::string &who, DebugFlag flag,
               const char *fmt, ...)
        __attribute__((format(printf, 5, 6)));

    DebugFlags _flags;
    std::ostream &_out;
    std::vector<probe::ProbeListener> _listeners;
};

/** Records one System's probes into its own Chrome trace log. */
class TraceRecorder
{
  public:
    TraceRecorder(probe::ProbeManager &pm, std::size_t max_events);

    const trace::EventLog &log() const { return _log; }

  private:
    trace::EventLog _log;
    /** Running duplicate-writeback count per cache level. */
    std::map<std::string, double> _dupWritebacks;
    std::vector<probe::ProbeListener> _listeners;
};

/**
 * Per-cell debug-text streams for a sweep whose cells may run in
 * parallel. Buffered, each cell writes to its own buffer and flush()
 * copies the buffers to the destination in cell order, so the text
 * does not depend on which worker ran which cell. Unbuffered (one
 * worker), every cell writes straight to the destination. A null
 * destination means standard error, as in Options::debugOut.
 */
class CellText
{
  public:
    CellText(std::ostream *out, std::size_t cells, bool buffered)
        : _out(out), _buffers(buffered ? cells : 0)
    {}

    /** Cell @p cell's stream, for Options::debugOut. */
    std::ostream *
    operator[](std::size_t cell)
    {
        return _buffers.empty() ? _out : &_buffers[cell];
    }

    void flush();

  private:
    std::ostream *_out;
    std::vector<std::ostringstream> _buffers;
};

} // namespace mda::observe

#endif // MDA_HARNESS_OBSERVE_HH
