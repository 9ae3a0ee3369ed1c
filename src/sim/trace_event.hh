/**
 * @file
 * Chrome trace-event (Perfetto-loadable) JSON emitter.
 *
 * An EventLog records one simulation's activity as trace events on
 * per-component tracks (one Chrome "thread" per component):
 *
 *  - packet lifetimes (issue -> hit/miss -> fill) as async b/e pairs
 *    keyed by the packet id, so overlapping in-flight requests render
 *    as separate slices;
 *  - instant events (hit/miss markers), complete slices (bank
 *    service) and counter tracks (MSHR occupancy, sparse-block
 *    presence bits, duplicate-coherence writebacks).
 *
 * The buffer is bounded: events past the cap are counted and dropped,
 * never resized, so tracing a long run cannot exhaust memory. One
 * simulated tick is encoded as one microsecond of trace time.
 *
 * Each System that records a trace owns its own log (filled by the
 * probe listener in harness/observe.hh), so cells of a parallel sweep
 * never share one. writeJson() merges the logs of a sweep into one
 * file, log i as Chrome process i + 1. Load the output in
 * https://ui.perfetto.dev or chrome://tracing.
 */

#ifndef MDA_SIM_TRACE_EVENT_HH
#define MDA_SIM_TRACE_EVENT_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "types.hh"

namespace mda::trace
{

/** Bounded recorder for Chrome trace-event JSON. */
class EventLog
{
  public:
    static constexpr std::size_t defaultCapacity = 1u << 20;

    /** Record at most @p max_events events; later ones are dropped. */
    explicit EventLog(std::size_t max_events = defaultCapacity)
        : _capacity(max_events)
    {}

    // ---- recording ----
    // Cold: these only run while tracing, so their call blocks are
    // kept out of the hot text of the probe listeners.

    /** Begin an async slice keyed by @p id (overlapping lifetimes). */
    __attribute__((cold)) void asyncBegin(const std::string &track,
                                          const std::string &name,
                                          std::uint64_t id, Tick ts);

    /** End the async slice keyed by @p id. */
    __attribute__((cold)) void asyncEnd(const std::string &track,
                                        const std::string &name,
                                        std::uint64_t id, Tick ts);

    /** A complete slice with a known duration ("X" phase). */
    __attribute__((cold)) void complete(const std::string &track,
                                        const std::string &name,
                                        Tick ts, Tick dur);

    /** A zero-duration marker ("i" phase). */
    __attribute__((cold)) void instant(const std::string &track,
                                       const std::string &name,
                                       Tick ts);

    /** Sample a counter track ("C" phase). */
    __attribute__((cold)) void counter(const std::string &track,
                                       const std::string &name,
                                       Tick ts, double value);

    /** Events currently buffered (metadata excluded). */
    std::size_t size() const { return _events.size(); }

    /** Events dropped because the buffer bound was reached. */
    std::uint64_t dropped() const { return _dropped; }

    std::size_t capacity() const { return _capacity; }

  private:
    friend void writeJson(std::ostream &os,
                          const std::vector<const EventLog *> &logs);

    struct Event
    {
        char ph = 'X';
        std::string name;
        unsigned tid = 0;
        Tick ts = 0;
        Tick dur = 0;         ///< "X" only.
        double value = 0.0;   ///< "C" only.
        std::uint64_t id = 0; ///< "b"/"e" only.
    };

    /** Stable per-track Chrome thread id (assigned on first use). */
    unsigned tidFor(const std::string &track);

    bool record(Event ev);

    /** Append this log's metadata and events as process @p pid;
     *  @p first tracks the array separator across logs. */
    void writeEvents(std::ostream &os, unsigned pid, bool &first) const;

    std::size_t _capacity;
    std::uint64_t _dropped = 0;
    std::vector<Event> _events;
    std::map<std::string, unsigned> _tracks;
};

/**
 * Write @p logs as one Chrome trace-event JSON array, log i as
 * process (pid) i + 1, and warn about any log that dropped events.
 * A single log is therefore always process 1.
 */
void writeJson(std::ostream &os, const std::vector<const EventLog *> &logs);

} // namespace mda::trace

#endif // MDA_SIM_TRACE_EVENT_HH
