/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global-per-simulation EventQueue orders callbacks by
 * (tick, priority, insertion sequence). Components capture what they
 * need in an InlineCallback (fixed inline storage, no heap allocation
 * on schedule) and the queue guarantees deterministic ordering so
 * simulations are exactly reproducible.
 *
 * Internally the queue is a hybrid of three structures tuned for the
 * simulator's scheduling mix:
 *
 *  - per-priority FIFO buckets for events scheduled AT the current
 *    tick (retry storms, CPU issue chains): insertion is an O(1)
 *    append, and because the global sequence counter is monotone the
 *    bucket is sorted by construction;
 *  - a calendar wheel for near-future events (issue +1, tag/data
 *    latencies, DRAM service times — virtually everything the
 *    simulator schedules): one slot per tick in a fixed window,
 *    insertion is an O(1) append and each slot is sorted once when
 *    its tick is reached (slots hold a handful of events and arrive
 *    almost sorted, so this is a near-no-op insertion sort);
 *  - a 4-ary min-heap on the packed (tick, priority, sequence) key
 *    for far-future events beyond the wheel window (stats intervals,
 *    occupancy samplers). The heap stays tiny, so its O(log n) sift
 *    cost is off the hot path entirely.
 *
 * Cross-structure ordering is exact: every event carries the packed
 * (priority, sequence) order key, the wheel drain merges heap events
 * that share the drained tick, and within the current tick the only
 * per-pop work is one key comparison between the bucket heads and the
 * sorted current-tick list.
 */

#ifndef MDA_SIM_EVENT_QUEUE_HH
#define MDA_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "callback.hh"
#include "logging.hh"
#include "probe.hh"
#include "types.hh"

namespace mda
{

/**
 * Relative ordering of events that fire on the same tick. Lower values
 * run first. Responses are drained before new requests are issued so a
 * resource freed this tick can be claimed this tick.
 */
enum class EventPriority : std::uint8_t
{
    Response = 0,  ///< Deliver data/completions first.
    Default  = 1,  ///< Most component activity.
    Cpu      = 2,  ///< CPU issue, after the memory system settles.
    Stats    = 3,  ///< Sampling/bookkeeping, observes settled state.
};

/**
 * Deterministic discrete-event scheduler.
 *
 * Events are one-shot InlineCallback callbacks. The queue is not
 * thread-safe; the whole simulator is single-threaded by design.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /** Register the schedule/execute probe points with @p pm as
     *  "eventq.schedule" / "eventq.execute". */
    void
    regProbes(probe::ProbeManager &pm)
    {
        pm.reg("eventq.schedule", &_probes.schedule);
        pm.reg("eventq.execute", &_probes.execute);
    }

    /**
     * Schedule @p fn to run at absolute tick @p when.
     *
     * Takes the callable by forwarding reference and constructs the
     * InlineCallback directly inside the queue's storage: a by-value
     * Callback parameter would cost two extra 64-byte moves per event
     * (conversion temporary, then parameter into slot), and this is
     * the hottest entry point in the simulator.
     *
     * @pre when >= curTick(); scheduling in the past is a bug.
     */
    template <typename Fn>
    void
    schedule(Tick when, Fn &&fn,
             EventPriority prio = EventPriority::Default)
    {
        mda_assert(when >= _curTick,
                   "event scheduled in the past (%llu < %llu)",
                   (unsigned long long)when,
                   (unsigned long long)_curTick);
        // Consulted directly (not cached at run() entry) so events
        // scheduled before the first run() slice — e.g. during system
        // construction — are observed too.
        if (MDA_UNLIKELY(_probes.schedule.listening()))
            traceSchedule(when, static_cast<unsigned>(prio));
        const std::uint64_t seq = _nextSeq++;
        const auto p = static_cast<unsigned>(prio);
        if (when == _curTick) {
            // Same-tick fast path: the global sequence counter is
            // monotone, so appending keeps each bucket FIFO-sorted.
            _now[p].items.emplace_back(seq, std::forward<Fn>(fn));
            ++_nowCount;
        } else if (when - _curTick < wheelSize) {
            // Strictly less than the window so a slot is never
            // appended to while it is the one being drained: a
            // delta-W event would alias the current tick's slot.
            const std::size_t s = when & wheelMask;
            if (_wheel[s].empty())
                _wheelOcc[s >> 6] |= std::uint64_t{1} << (s & 63);
            _wheel[s].push_back(
                WheelEvent{packOrder(p, seq),
                           allocCallback(std::forward<Fn>(fn))});
            ++_wheelCount;
        } else {
            heapEmplace(when, packOrder(p, seq),
                        std::forward<Fn>(fn));
        }
    }

    /** Schedule @p fn to run @p delta ticks from now. */
    template <typename Fn>
    void
    scheduleAfter(Tick delta, Fn &&fn,
                  EventPriority prio = EventPriority::Default)
    {
        schedule(_curTick + delta, std::forward<Fn>(fn), prio);
    }

    /** Whether any events remain. */
    bool
    empty() const
    {
        return _nowCount == 0 && _curHead == _cur.size() &&
               _wheelCount == 0 && _heap.empty();
    }

    /** Number of pending events. */
    std::size_t
    size() const
    {
        return _nowCount + (_cur.size() - _curHead) + _wheelCount +
               _heap.size();
    }

    /** Tick of the next pending event (maxTick if none). */
    Tick
    nextTick() const
    {
        if (_nowCount != 0 || _curHead != _cur.size())
            return _curTick;
        const Tick tw = nextWheelTick();
        const Tick th = _heap.empty() ? maxTick : _heap.front().when;
        return std::min(tw, th);
    }

    /**
     * Run events until the queue drains or @p limit ticks is exceeded.
     *
     * @param limit Do not execute events scheduled after this tick.
     * @return Number of events executed.
     */
    std::uint64_t
    run(Tick limit = maxTick)
    {
        // The execute probe is checked once per run() call and the
        // loop is split: the unobserved loop carries no per-event
        // observation work at all — this is the hottest loop in the
        // simulator. Listeners attached mid-run take effect at the
        // next run() slice.
        if (MDA_UNLIKELY(_probes.execute.listening()))
            return runTraced(limit);
        std::uint64_t executed = 0;
        while (executeOne<false>(limit))
            ++executed;
        return executed;
    }

    /** Execute exactly one event, if any. @return true if one ran. */
    bool
    step()
    {
        // Same shared execute path as run(): single-stepped tests get
        // the "time went backwards" assert and the execute probe too.
        if (MDA_UNLIKELY(_probes.execute.listening()))
            return executeOne<true>(maxTick);
        return executeOne<false>(maxTick);
    }

    /**
     * Jump simulated time forward to @p when without executing
     * anything (sampling fast-forward between measured windows).
     *
     * Only legal while the queue is empty: pending wheel events are
     * addressed modulo the window, so teleporting time past them
     * would corrupt the slot-to-tick mapping.
     */
    void
    advanceTo(Tick when)
    {
        mda_assert(empty(), "advanceTo with pending events");
        mda_assert(when >= _curTick, "advanceTo into the past");
        _curTick = when;
    }

    /** Discard all pending events and reset time to zero. */
    void
    reset()
    {
        _heap.clear();
        _cbSlab.clear();
        _cbFree.clear();
        for (NowBucket &bucket : _now) {
            bucket.items.clear();
            bucket.head = 0;
        }
        _nowCount = 0;
        for (std::vector<WheelEvent> &slot : _wheel)
            slot.clear();
        _wheelOcc.fill(0);
        _wheelCount = 0;
        _cur.clear();
        _curHead = 0;
        _curTick = 0;
        _nextSeq = 0;
    }

  private:
    /** Priority and sequence packed into one comparable word. seq is
     *  process-monotone and cannot realistically reach 2^56. */
    static std::uint64_t
    packOrder(unsigned prio, std::uint64_t seq)
    {
        return (static_cast<std::uint64_t>(prio) << seqBits) | seq;
    }

    static constexpr unsigned seqBits = 56;
    static constexpr unsigned numPriorities = 4;
    static constexpr std::size_t heapArity = 4;
    /** Calendar window, in ticks. Covers every latency the memory
     *  system schedules in practice; rarer far-future events (stats
     *  intervals, heartbeat slices) overflow to the heap. */
    static constexpr std::size_t wheelSize = 1024;
    static constexpr Tick wheelMask = wheelSize - 1;
    static constexpr std::size_t wheelWords = wheelSize / 64;

    /**
     * Heap node: ordering key plus a slot index into the callback
     * slab. Keeping the 64-byte callbacks out of the heap nodes cuts
     * each sift move from 80 bytes to 24 — the heap's memory traffic
     * is almost entirely sift moves.
     */
    struct HeapKey
    {
        Tick when;
        std::uint64_t order;  ///< packOrder(prio, seq)
        std::uint32_t slot;   ///< index into _cbSlab
    };

    /** Wheel entry: the tick is implied by the slot, so only the
     *  order key and the callback's slab index are stored. */
    struct WheelEvent
    {
        std::uint64_t order;  ///< packOrder(prio, seq)
        std::uint32_t slot;   ///< index into _cbSlab
    };

    struct NowEvent
    {
        std::uint64_t seq;
        Callback cb;

        template <typename Fn>
        NowEvent(std::uint64_t s, Fn &&fn)
            : seq(s), cb(std::forward<Fn>(fn))
        {
        }
    };

    /** FIFO of same-tick events of one priority. Popped entries leave
     *  the storage in place (head index) so a drain-refill cycle never
     *  reallocates. */
    struct NowBucket
    {
        std::vector<NowEvent> items;
        std::size_t head = 0;

        bool drained() const { return head == items.size(); }
    };

    static bool
    keyLess(Tick a_when, std::uint64_t a_order, const HeapKey &b)
    {
        if (a_when != b.when)
            return a_when < b.when;
        return a_order < b.order;
    }

    /** Construct the callback in a stable slab slot and return its
     *  index. Slot choice never affects event ordering (the order key
     *  carries it), and the free list is LIFO by execution order —
     *  simulation state, never addresses. */
    template <typename Fn>
    std::uint32_t
    allocCallback(Fn &&fn)
    {
        std::uint32_t slot;
        if (!_cbFree.empty()) {
            slot = _cbFree.back();
            _cbFree.pop_back();
            Callback *dst = &_cbSlab[slot];
            dst->~Callback();  // moved-from holder: no-op destroy
            ::new (static_cast<void *>(dst))
                Callback(std::forward<Fn>(fn));
        } else {
            slot = static_cast<std::uint32_t>(_cbSlab.size());
            _cbSlab.emplace_back(std::forward<Fn>(fn));
        }
        return slot;
    }

    template <typename Fn>
    void
    heapEmplace(Tick when, std::uint64_t order, Fn &&fn)
    {
        const std::uint32_t slot =
            allocCallback(std::forward<Fn>(fn));
        _heap.push_back(HeapKey{when, order, slot});
        std::size_t i = _heap.size() - 1;
        if (i == 0 ||
            !keyLess(_heap[i].when, _heap[i].order,
                     _heap[(i - 1) / heapArity]))
            return;
        HeapKey hole = _heap[i];
        do {
            const std::size_t parent = (i - 1) / heapArity;
            if (!keyLess(hole.when, hole.order, _heap[parent]))
                break;
            _heap[i] = _heap[parent];
            i = parent;
        } while (i != 0);
        _heap[i] = hole;
    }

    /** Remove and return the heap minimum's key. @pre !_heap.empty()
     *  The callback stays in its slab slot; the caller moves it out
     *  and releases the slot. */
    HeapKey
    heapPop()
    {
        HeapKey top = _heap.front();
        HeapKey tail = _heap.back();
        _heap.pop_back();
        const std::size_t n = _heap.size();
        if (n != 0) {
            std::size_t i = 0;
            for (;;) {
                const std::size_t first = i * heapArity + 1;
                if (first >= n)
                    break;
                const std::size_t fence =
                    std::min(first + heapArity, n);
                std::size_t best = first;
                for (std::size_t c = first + 1; c < fence; ++c) {
                    if (keyLess(_heap[c].when, _heap[c].order,
                                _heap[best]))
                        best = c;
                }
                if (!keyLess(_heap[best].when, _heap[best].order,
                             tail))
                    break;
                _heap[i] = _heap[best];
                i = best;
            }
            _heap[i] = tail;
        }
        return top;
    }

    /**
     * Tick of the earliest wheel event (maxTick if none).
     *
     * A circular scan of the occupancy bitmap starting just past the
     * current tick's position enumerates slots in increasing distance;
     * the slot sharing the current tick's position is empty by
     * construction (delta-W events go to the heap, and the slot was
     * drained when this tick was reached), so the first set bit found
     * is the minimum.
     */
    Tick
    nextWheelTick() const
    {
        if (_wheelCount == 0)
            return maxTick;
        const std::size_t base = (_curTick + 1) & wheelMask;
        std::size_t w = base >> 6;
        std::uint64_t bits =
            _wheelOcc[w] & (~std::uint64_t{0} << (base & 63));
        for (;;) {
            if (bits != 0) {
                const std::size_t s =
                    (w << 6) | static_cast<std::size_t>(
                                   std::countr_zero(bits));
                const Tick d = (s - _curTick) & wheelMask;
                mda_assert(d != 0, "wheel event at the current tick");
                return _curTick + d;
            }
            w = (w + 1) & (wheelWords - 1);
            bits = _wheelOcc[w];
        }
    }

    /**
     * Advance time to the earliest pending tick (if <= @p limit) and
     * stage that tick's events, sorted by order key, into _cur.
     *
     * Heap events sharing the tick are merged here, so during
     * execution the heap front is always strictly in the future and
     * never consulted on the per-event path.
     *
     * @pre no executable work remains at the current tick.
     * @return false (time unchanged) if the next tick exceeds @p limit
     *         or nothing is pending.
     */
    bool
    advanceToNext(Tick limit)
    {
        if (_wheelCount == 0 && _heap.empty())
            return false;
        const Tick tw = nextWheelTick();
        const Tick th = _heap.empty() ? maxTick : _heap.front().when;
        const Tick t = std::min(tw, th);
        if (t > limit)
            return false;
        mda_assert(t > _curTick, "time went backwards");
        _curTick = t;
        _cur.clear();
        _curHead = 0;
        if (t == tw) {
            std::vector<WheelEvent> &slot = _wheel[t & wheelMask];
            _cur.swap(slot);
            _wheelCount -= _cur.size();
            _wheelOcc[(t & wheelMask) >> 6] &=
                ~(std::uint64_t{1} << (t & 63));
        }
        while (!_heap.empty() && _heap.front().when == t) {
            const HeapKey key = heapPop();
            _cur.push_back(WheelEvent{key.order, key.slot});
        }
        // Appends arrive in sequence order per priority, so the list
        // is almost always sorted already and this degenerates to one
        // verification pass.
        if (_cur.size() > 1) {
            std::sort(_cur.begin(), _cur.end(),
                      [](const WheelEvent &a, const WheelEvent &b) {
                          return a.order < b.order;
                      });
        }
        return true;
    }

    /**
     * Execute the globally earliest event if its tick is <= @p limit.
     *
     * Bucket and _cur events are all at _curTick, which is < every
     * heap/wheel tick, so the cross-structure ordering decision
     * reduces to one order-key comparison.
     *
     * @return true if an event ran.
     */
    template <bool Traced>
    bool
    executeOne(Tick limit)
    {
        if (_nowCount == 0 && _curHead == _cur.size()) {
            if (!advanceToNext(limit))
                return false;
        } else if (MDA_UNLIKELY(_curTick > limit)) {
            return false;
        }
        if (_nowCount != 0) {
            unsigned p = 0;
            while (_now[p].drained())
                ++p;
            NowBucket &bucket = _now[p];
            const std::uint64_t seq = bucket.items[bucket.head].seq;
            if (_curHead != _cur.size() &&
                _cur[_curHead].order < packOrder(p, seq))
                return executeCur<Traced>();
            Callback cb = std::move(bucket.items[bucket.head].cb);
            if (++bucket.head == bucket.items.size()) {
                bucket.items.clear();
                bucket.head = 0;
            }
            --_nowCount;
            if constexpr (Traced)
                traceExecute(seq, p);
            cb();
            return true;
        }
        return executeCur<Traced>();
    }

    /** Execute the head of the staged current-tick list.
     *  @pre _curHead != _cur.size() */
    template <bool Traced>
    bool
    executeCur()
    {
        // Move the callback out and release its slot before running,
        // so the callback can safely schedule further events (and
        // even reset() the queue) without touching live slab state.
        const WheelEvent ev = _cur[_curHead++];
        Callback cb = std::move(_cbSlab[ev.slot]);
        _cbFree.push_back(ev.slot);
        if constexpr (Traced) {
            traceExecute(ev.order & ((std::uint64_t{1} << seqBits) - 1),
                         static_cast<unsigned>(ev.order >> seqBits));
        }
        cb();
        return true;
    }

    /** Fire the schedule probe. Out of line, with scalar arguments,
     *  so the hottest entry point carries no payload construction. */
    __attribute__((cold, noinline)) void
    traceSchedule(Tick when, unsigned prio)
    {
        _probes.schedule.fire(
            probe::QueueEvent{_curTick, when, _nextSeq, prio});
    }

    __attribute__((cold, noinline)) void
    traceExecute(std::uint64_t seq, unsigned prio)
    {
        MDA_PROBE(_probes.execute,
                  probe::QueueEvent{_curTick, _curTick, seq, prio});
    }

    /** run() firing the execute probe per event (cold path). */
    __attribute__((cold, noinline)) std::uint64_t
    runTraced(Tick limit)
    {
        std::uint64_t executed = 0;
        while (executeOne<true>(limit))
            ++executed;
        return executed;
    }

    std::vector<HeapKey> _heap;
    /** Callback storage for wheel and heap events, indexed by slot.
     *  Slots are stable while their event is pending. */
    std::vector<Callback> _cbSlab;
    /** Recycled slab slots (LIFO by execution order). */
    std::vector<std::uint32_t> _cbFree;
    std::array<NowBucket, numPriorities> _now;
    std::size_t _nowCount = 0;
    /** Calendar slots: pending events for tick T live at T mod W. */
    std::array<std::vector<WheelEvent>, wheelSize> _wheel;
    /** One occupancy bit per wheel slot, for next-tick scans. */
    std::array<std::uint64_t, wheelWords> _wheelOcc{};
    std::size_t _wheelCount = 0;
    /** The current tick's staged events, sorted by order key. */
    std::vector<WheelEvent> _cur;
    std::size_t _curHead = 0;
    Tick _curTick = 0;
    std::uint64_t _nextSeq = 0;
    probe::QueueProbes _probes;
};

} // namespace mda

#endif // MDA_SIM_EVENT_QUEUE_HH
