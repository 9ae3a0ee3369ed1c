/**
 * @file
 * The request/response protocol connecting hierarchy levels.
 *
 * The hierarchy is a linear chain (CPU -> L1 -> ... -> LLC -> memory
 * controller). Each level implements MemDevice toward the level above
 * and holds a MemClient pointer to deliver responses upward.
 *
 * Flow control is gem5-like: tryRequest() either consumes the packet
 * (returns true) or rejects it (returns false), in which case the
 * device *must* later call recvRetry() on its client exactly once when
 * space frees; the client then re-sends. Writebacks receive no
 * response but obey the same flow control.
 */

#ifndef MDA_SIM_PORT_HH
#define MDA_SIM_PORT_HH

#include "packet.hh"

namespace mda
{

/** Upward-facing interface: receives responses and retry signals. */
class MemClient
{
  public:
    virtual ~MemClient() = default;

    /** A response (same packet, isResponse set) arrives from below. */
    virtual void recvResponse(PacketPtr pkt) = 0;

    /** The device below has space again; re-send the blocked packet. */
    virtual void recvRetry() = 0;
};

/**
 * One access applied functionally: state effects only, no timing.
 *
 * Used by sampled simulation's fast-forward phase to keep cache
 * contents (tags, recency, dirty/valid masks, duplicate-coherence
 * state) warm between measured windows. Carries no payload — data
 * correctness is the checker's concern, and sampling forbids the
 * checker.
 */
struct FunctionalReq
{
    OrientedLine line;       ///< Accessed line (scalar: containing).
    Addr addr = 0;           ///< Scalar word address (!isLine only).
    Addr pc = 0;             ///< Issuing PC (trains the prefetcher).
    std::uint8_t wordMask = 0x01; ///< Words touched (line ops).
    bool isLine = false;
    bool isWrite = false;

    /** The full-line read a missing level sends below to fill @p l. */
    static FunctionalReq
    fill(const OrientedLine &l)
    {
        return {l, l.baseAddr(), 0, 0xff, true, false};
    }
};

/** Downward-facing interface: accepts requests from the level above. */
class MemDevice
{
  public:
    virtual ~MemDevice() = default;

    /**
     * Offer @p pkt to this device.
     *
     * @param pkt Request; moved-from on success, untouched on failure.
     * @return True if accepted; false if the device is full, in which
     *         case a recvRetry() will follow.
     */
    virtual bool tryRequest(PacketPtr &pkt) = 0;

    /** Connect the upstream client that receives responses/retries. */
    virtual void setUpstream(MemClient *client) = 0;

    /**
     * Apply @p req's state effects immediately — replacement, dirty
     * bits, duplicate coherence — bypassing timing, flow control,
     * MSHRs, and statistics. Misses recurse into the level below.
     * Main memory keeps no access-dependent state, so the default
     * no-op terminates the chain.
     *
     * @pre The timed machinery is idle (no in-flight transactions):
     *      fast-forward runs strictly between drained windows.
     */
    virtual void functionalAccess(const FunctionalReq &req)
    {
        (void)req;
    }

    /**
     * Functional counterpart of a writeback arriving from above:
     * merge @p mask's words of @p line as dirty, allocating like the
     * timed writeback path would. Same default as functionalAccess().
     */
    virtual void
    functionalWriteback(const OrientedLine &line, std::uint8_t mask)
    {
        (void)line;
        (void)mask;
    }
};

} // namespace mda

#endif // MDA_SIM_PORT_HH
