/**
 * @file
 * gem5-style typed probe points: the simulator's one observation
 * mechanism.
 *
 * A ProbePoint<Args...> is a named hook a component fires at an
 * interesting moment (a packet accepted, a hit, an eviction, an event
 * scheduled, ...). Listeners attach std::function callbacks at run
 * time; with zero listeners a fire through the MDA_PROBE macro costs
 * exactly one predicted-false branch and never evaluates its
 * arguments, so instrumented hot paths stay fast when nobody is
 * observing.
 *
 * Every System owns a ProbeManager. Components register their probe
 * points under "<component>.<probe>" names (e.g. "l1.mshrQueued")
 * right after construction, mirroring the stat registration pattern.
 * Listeners — the LatencyAccountant, the debug-text printer, the
 * Chrome trace recorder, tests — look points up by name and attach;
 * callbacks run synchronously at the fire site in attach order, so
 * listener observation order is deterministic. Listeners belong to
 * one System, so parallel sweeps observe every cell independently.
 *
 * This header doubles as the probe *registry* for the mda-lint OBS-2
 * rule: every MDA_PROBE fire site must name a ProbePoint member that
 * is declared in one of the probe structs below.
 */

#ifndef MDA_SIM_PROBE_HH
#define MDA_SIM_PROBE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "logging.hh"
#include "orientation.hh"
#include "types.hh"

namespace mda
{

class Packet;

namespace probe
{

/**
 * Type-erased base so the manager can hold heterogeneous points and
 * tests can enumerate them uniformly.
 */
class ProbePointBase
{
  public:
    virtual ~ProbePointBase() = default;

    /** Number of attached listeners. */
    virtual std::size_t listenerCount() const = 0;

    /** Drop every listener (System teardown / test cleanup). */
    virtual void detachAll() = 0;
};

/**
 * A typed hook point. Fire sites pass the event payload by const
 * reference; listener callbacks must not retain pointers into it
 * beyond the call.
 */
template <typename... Args>
class ProbePoint : public ProbePointBase
{
  public:
    using Callback = std::function<void(const Args &...)>;

    /** True while at least one listener is attached — the single
     *  branch MDA_PROBE tests before evaluating fire arguments. */
    bool listening() const { return !_callbacks.empty(); }

    std::size_t listenerCount() const override
    {
        return _callbacks.size();
    }

    /**
     * Attach @p cb; it runs on every subsequent fire, after all
     * earlier-attached callbacks (attach order is fire order).
     * @return an id for detach().
     */
    std::uint64_t
    attach(Callback cb)
    {
        std::uint64_t id = ++_nextId;
        _callbacks.emplace_back(id, std::move(cb));
        return id;
    }

    /** Detach the callback registered under @p id (no-op if gone). */
    void
    detach(std::uint64_t id)
    {
        for (auto it = _callbacks.begin(); it != _callbacks.end(); ++it) {
            if (it->first == id) {
                _callbacks.erase(it);
                return;
            }
        }
    }

    void detachAll() override { _callbacks.clear(); }

    /** Deliver @p args to every listener, in attach order. Callers
     *  should go through MDA_PROBE so the no-listener case skips
     *  argument evaluation entirely. Cold and out of line: an
     *  inlined listener loop at every fire site would bloat the hot
     *  paths that only ever take the no-listener branch. */
    __attribute__((cold, noinline)) void
    fire(const Args &...args) const
    {
        for (const auto &entry : _callbacks)
            entry.second(args...);
    }

  private:
    // Attach-order vector, not a map: fire order must not depend on
    // callback addresses, and N is tiny (a handful of listeners).
    std::vector<std::pair<std::uint64_t, Callback>> _callbacks;
    std::uint64_t _nextId = 0;
};

/**
 * Per-System name -> probe point directory. Points are owned by the
 * components that declare them; the manager only indexes.
 */
class ProbeManager
{
  public:
    /** Register @p point under @p name; duplicate names panic. */
    void reg(const std::string &name, ProbePointBase *point);

    /** Look up by name; nullptr when absent. */
    ProbePointBase *find(const std::string &name) const;

    /** Typed lookup; nullptr when absent or the signature differs. */
    template <typename... Args>
    ProbePoint<Args...> *
    findTyped(const std::string &name) const
    {
        return dynamic_cast<ProbePoint<Args...> *>(find(name));
    }

    /** All registered names, sorted (map order). */
    std::vector<std::string> names() const;

    std::size_t size() const { return _points.size(); }

  private:
    std::map<std::string, ProbePointBase *> _points;
};

/**
 * RAII attachment: detaches on destruction so listeners cannot
 * outlive their target point's System. Movable, not copyable.
 */
class ProbeListener
{
  public:
    ProbeListener() = default;

    template <typename... Args>
    ProbeListener(ProbePoint<Args...> &point,
                  typename ProbePoint<Args...>::Callback cb)
    {
        std::uint64_t id = point.attach(std::move(cb));
        _detach = [&point, id] { point.detach(id); };
    }

    ProbeListener(const ProbeListener &) = delete;
    ProbeListener &operator=(const ProbeListener &) = delete;

    ProbeListener(ProbeListener &&other) noexcept
        : _detach(std::move(other._detach))
    {
        other._detach = nullptr;
    }

    ProbeListener &
    operator=(ProbeListener &&other) noexcept
    {
        release();
        _detach = std::move(other._detach);
        other._detach = nullptr;
        return *this;
    }

    ~ProbeListener() { release(); }

    /** Detach now (idempotent). */
    void
    release()
    {
        if (_detach) {
            _detach();
            _detach = nullptr;
        }
    }

    bool attached() const { return static_cast<bool>(_detach); }

  private:
    std::function<void()> _detach;
};

/**
 * Payload for packet-lifecycle probes. @ref when is the tick the
 * probe fired; @ref delay is nonzero only on `responded` and `hit`,
 * where it is the scheduled delivery delay (the response reaches the
 * requester at when + delay).
 */
struct PacketEvent
{
    const Packet *pkt = nullptr;
    Tick when = 0;
    Cycles delay = 0;
};

/**
 * Payload for the crossing-line duplicate-coherence probe: the word
 * whose duplicate was acted on, the crossing line holding that
 * duplicate, and which action ran.
 */
struct CrossingEvent
{
    Addr word = 0;
    OrientedLine cross;
    bool dirtyWriteback = false; ///< Duplicate was dirty: written back.
    bool evicted = false;        ///< Duplicate invalidated.
    Tick when = 0;
};

/**
 * Payload for the eviction probe. A line cache evicts one oriented
 * line (@ref addr is its base address); a tile cache evicts a whole
 * 2-D block frame (@ref addr is the tile's base address, @ref orient
 * is Row).
 */
struct EvictEvent
{
    Addr addr = 0;
    Orientation orient = Orientation::Row;
    unsigned presentWords = 0; ///< Valid words in the victim.
    unsigned dirtyWords = 0;   ///< Of those, dirty (written back).
    Tick when = 0;
};

/** Payload for gauge samples: the gauge's value after a change.
 *  Chrome traces show each such point as a counter track. */
struct CounterEvent
{
    Tick when = 0;
    double value = 0.0;
};

/** Payload for a resource busy span that starts at @ref when and
 *  lasts @ref duration ticks, serving @ref pkt. Chrome traces show
 *  each such point as a complete slice. */
struct SpanEvent
{
    const Packet *pkt = nullptr;
    Tick when = 0;
    Tick duration = 0;
};

/** Payload for event-queue probes: event @ref seq with priority
 *  @ref prio, due at tick @ref at, observed at tick @ref when (for
 *  an execution, when == at). */
struct QueueEvent
{
    Tick when = 0;
    Tick at = 0;
    std::uint64_t seq = 0;
    unsigned prio = 0;
};

// ---- Probe registry -------------------------------------------------
//
// The structs below are the authoritative catalog of probe points.
// mda-lint's OBS-2 rule parses the `ProbePoint<...> name;` member
// declarations here and requires every MDA_PROBE fire site to name
// one of them. Keep one declaration per line.

/** TraceCpu lifecycle probes (registered as "cpu.<name>"). */
struct CpuProbes
{
    /** Demand packet accepted by L1 (after any blocked-retry wait). */
    ProbePoint<PacketEvent> issued;
    /** Response delivered back to the CPU; end of packet life. */
    ProbePoint<PacketEvent> retired;
};

/** Cache-level probes ("l1."/"l2."/"l3." + name). */
struct CacheProbes
{
    /** Packet accepted into this level (post tag-latency dispatch is
     *  scheduled; fires at acceptance time). */
    ProbePoint<PacketEvent> accepted;
    /** Demand handled but deferred behind a busy line. */
    ProbePoint<PacketEvent> deferred;
    /** Demand hit; delay = response delay. */
    ProbePoint<PacketEvent> hit;
    /** Demand miss, counted once (after any deferral). */
    ProbePoint<PacketEvent> miss;
    /** Demand queued on an MSHR (fresh alloc or coalesce). */
    ProbePoint<PacketEvent> mshrQueued;
    /** MSHR entry retired by its fill (pkt = the fill). */
    ProbePoint<PacketEvent> mshrRetire;
    /** MSHR entries in use, sampled after each allocation (demand or
     *  prefetch) and after each fill. */
    ProbePoint<CounterEvent> mshrOccupancy;
    /** Line-fill request sent downstream. */
    ProbePoint<PacketEvent> fillSent;
    /** Line-fill response received from downstream. */
    ProbePoint<PacketEvent> fillRecv;
    /** Valid line (line cache) or block frame (tile cache) evicted. */
    ProbePoint<EvictEvent> evict;
    /** Dirty eviction pushed to the writeback queue. */
    ProbePoint<PacketEvent> writebackOut;
    /** Response scheduled toward the requester (delay = delivery). */
    ProbePoint<PacketEvent> responded;
    /** Tile-cache presence bits set, after each change. */
    ProbePoint<CounterEvent> presentWords;
    /** Crossing-orientation duplicate written back / evicted. */
    ProbePoint<CrossingEvent> dupAction;
};

/** Memory-controller probes ("mem." + name). */
struct MemProbes
{
    /** Request enqueued into a bank queue. */
    ProbePoint<PacketEvent> accepted;
    /** Requests in the accepting channel's queues, this one
     *  included, sampled at each enqueue. */
    ProbePoint<CounterEvent> queuedReqs;
    /** Request issued to its bank (leaves the queue). */
    ProbePoint<PacketEvent> issued;
    /** Bank service that opened a new row/column buffer: from issue
     *  until the data leaves the bus. */
    ProbePoint<SpanEvent> activate;
    /** Bank service served from an open buffer (same span). */
    ProbePoint<SpanEvent> bufferHit;
    /** Response scheduled on the bus (delay = bank + bus time). */
    ProbePoint<PacketEvent> responded;
};

/** Event-queue probes ("eventq." + name). */
struct QueueProbes
{
    /** Event scheduled (fires before it is queued). */
    ProbePoint<QueueEvent> schedule;
    /** Event about to execute. */
    ProbePoint<QueueEvent> execute;
};

} // namespace probe
} // namespace mda

/**
 * Fire @p point with @p __VA_ARGS__ if anyone is listening. The
 * listener check is the only cost on the no-listener path: argument
 * expressions are not evaluated. OBS-2 requires @p point's member
 * name to be declared in probe.hh.
 */
#define MDA_PROBE(point, ...)                                           \
    do {                                                                \
        if (MDA_UNLIKELY((point).listening()))                          \
            (point).fire(__VA_ARGS__);                                  \
    } while (0)

#endif // MDA_SIM_PROBE_HH
