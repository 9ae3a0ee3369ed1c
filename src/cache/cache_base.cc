#include "cache_base.hh"

#include <bit>

namespace mda
{

CacheBase::CacheBase(const std::string &obj_name, EventQueue &eq,
                     stats::StatGroup &sg, const CacheConfig &config)
    : SimObject(obj_name, eq, sg),
      _config(config),
      _mshr(config.mshrs, config.targetsPerMshr)
{
    regScalar("demandAccesses", &_demandAccesses,
              "demand accesses (reads + writes)");
    regScalar("demandHits", &_demandHits, "demand hits");
    regScalar("demandMisses", &_demandMisses, "demand misses");
    regScalar("readHits", &_readHits, "read hits");
    regScalar("readMisses", &_readMisses, "read misses");
    regScalar("writeHits", &_writeHits, "write hits");
    regScalar("writeMisses", &_writeMisses, "write misses");
    regScalar("vectorHits", &_vectorHits, "SIMD/line hits");
    regScalar("vectorMisses", &_vectorMisses, "SIMD/line misses");
    regScalar("misOrientedHits", &_misOrientedHits,
              "scalar hits served from the non-preferred orientation");
    regScalar("partialHits", &_partialHits,
              "line accesses with only part of the words present");
    regScalar("mshrCoalesced", &_mshrCoalesced,
              "accesses coalesced into an existing MSHR entry");
    regScalar("deferrals", &_deferrals,
              "accesses deferred for overlapping-word ordering");
    regScalar("writebacksIn", &_writebacksIn,
              "writebacks received from above");
    regScalar("writebacksOut", &_writebacksOut,
              "writebacks sent downstream");
    regScalar("bytesWrittenBack", &_bytesWrittenBack,
              "bytes written back downstream");
    regScalar("fills", &_fills, "line fills received");
    regScalar("fillBytes", &_fillBytes, "bytes filled from below");
    regScalar("prefetchesIssued", &_prefetchesIssued,
              "prefetch fills issued");
    regScalar("prefetchesUseful", &_prefetchesUseful,
              "prefetched lines later hit by demand");
    regScalar("extraTagAccesses", &_extraTagAccesses,
              "additional tag probes (cross-orientation checks)");
    regScalar("evictions", &_evictions, "valid lines evicted");
    regDistribution("hitLatency", &_hitLatency,
                    "demand-hit response latency (cycles, 1-in-16 "
                    "sampled)");
    regDistribution("missLatency", &_missLatency,
                    "demand-miss fill round trip (cycles, 1-in-4 "
                    "sampled)");
}

void
CacheBase::regProbes(probe::ProbeManager &pm)
{
    pm.reg(name() + ".accepted", &_probes.accepted);
    pm.reg(name() + ".deferred", &_probes.deferred);
    pm.reg(name() + ".hit", &_probes.hit);
    pm.reg(name() + ".miss", &_probes.miss);
    pm.reg(name() + ".mshrQueued", &_probes.mshrQueued);
    pm.reg(name() + ".mshrRetire", &_probes.mshrRetire);
    pm.reg(name() + ".mshrOccupancy", &_probes.mshrOccupancy);
    pm.reg(name() + ".fillSent", &_probes.fillSent);
    pm.reg(name() + ".fillRecv", &_probes.fillRecv);
    pm.reg(name() + ".evict", &_probes.evict);
    pm.reg(name() + ".writebackOut", &_probes.writebackOut);
    pm.reg(name() + ".responded", &_probes.responded);
    pm.reg(name() + ".presentWords", &_probes.presentWords);
    pm.reg(name() + ".dupAction", &_probes.dupAction);
}

std::vector<std::string>
CacheBase::checkDrained() const
{
    std::vector<std::string> violations;
    _mshr.forEach([&](const MshrEntry &entry) {
        violations.push_back(
            name() + ": MSHR entry for " +
            orientName(entry.line.orient) + " line id " +
            std::to_string(entry.line.id) + " with " +
            std::to_string(entry.targets.size()) +
            " target(s) leaked after drain");
    });
    if (!_writeBuffer.empty()) {
        violations.push_back(
            name() + ": " + std::to_string(_writeBuffer.size()) +
            " writeback(s) stuck in the write buffer after drain");
    }
    if (!_deferred.empty()) {
        violations.push_back(
            name() + ": " + std::to_string(_deferred.size()) +
            " deferred packet(s) never replayed");
    }
    if (_inFlightLookups != 0) {
        violations.push_back(
            name() + ": " + std::to_string(_inFlightLookups) +
            " accepted lookup(s) never dispatched");
    }
    return violations;
}

bool
CacheBase::canAccept() const
{
    // Count lookups already accepted but not yet handled: each could
    // allocate an MSHR entry, so reserve space for them.
    return _mshr.size() + _inFlightLookups < _config.mshrs &&
           _writeBuffer.size() < _config.writeBufferSize &&
           _deferred.size() < maxDeferred;
}

bool
CacheBase::tryRequest(PacketPtr &pkt)
{
    if (!canAccept()) {
        _upstreamBlocked = true;
        return false;
    }
    MDA_PROBE(_probes.accepted,
              probe::PacketEvent{pkt.get(), curTick(), 0});
    // Dispatch after the tag-lookup latency. Constant latency plus
    // FIFO event ordering preserves arrival order at the handlers.
    auto *raw = pkt.release();
    ++_inFlightLookups;
    eventq().scheduleAfter(_config.tagLatency, [this, raw] {
        PacketPtr p(raw);
        --_inFlightLookups;
        if (p->cmd == MemCmd::Writeback) {
            ++_writebacksIn;
            handleWriteback(std::move(p));
        } else {
            ++_demandAccesses;
            handleDemand(std::move(p));
        }
        // Dispatching released this lookup's reserved MSHR slot (and
        // the handler may have freed more); without a retry here an
        // upstream rejected against that reservation would wait for a
        // recvRetry that never comes once the queues drain.
        maybeUnblockUpstream();
    });
    return true;
}

void
CacheBase::recvResponse(PacketPtr pkt)
{
    mda_assert(pkt->isResponse && pkt->isLineFill,
               "cache received a non-fill response");
    ++_fills;
    _fillBytes += std::popcount(pkt->wordMask) * wordBytes;
    MDA_PROBE(_probes.fillRecv,
              probe::PacketEvent{pkt.get(), curTick(), 0});
    handleFill(std::move(pkt));
    sampleMshrOccupancy();
    replayDeferred();
    maybeUnblockUpstream();
}

void
CacheBase::recvRetry()
{
    trySendQueues();
}

void
CacheBase::defer(PacketPtr pkt)
{
    ++_deferrals;
    MDA_PROBE(_probes.deferred,
              probe::PacketEvent{pkt.get(), curTick(), 0});
    _deferred.push_back(std::move(pkt));
}

void
CacheBase::allocateMiss(PacketPtr pkt, const OrientedLine &line,
                        MshrEntry *entry)
{
    // The caller just looked @p line up in the MSHR (every miss path
    // does, to make its defer decision) and passes the result in so
    // the file is not scanned a second time. Slot storage is stable,
    // so the pointer survives the bookkeeping between the lookup and
    // this call.
    if (entry) {
        if (!_mshr.canTarget(*entry)) {
            defer(std::move(pkt));
            return;
        }
        if (entry->isPrefetch) {
            // A demand arrived for an in-flight prefetch.
            entry->isPrefetch = false;
            ++_prefetchesUseful;
        }
        ++_mshrCoalesced;
        MDA_PROBE(_probes.mshrQueued,
                  probe::PacketEvent{pkt.get(), curTick(), 0});
        entry->targets.push_back(std::move(pkt));
        return;
    }
    if (_mshr.full()) {
        // Replay/burst overflow: park until a fill retires an entry.
        defer(std::move(pkt));
        return;
    }
    MshrEntry &fresh = _mshr.alloc(line, false, curTick());
    fresh.pc = pkt->pc;
    MDA_PROBE(_probes.mshrQueued,
              probe::PacketEvent{pkt.get(), curTick(), 0});
    sampleMshrOccupancy();
    fresh.targets.push_back(std::move(pkt));
    trySendQueues();
}

void
CacheBase::issuePrefetch(const OrientedLine &line)
{
    // overlaps() covers both "already in flight" (equal lines
    // intersect) and "crosses an in-flight line" in a single scan.
    if (_mshr.full() || _mshr.overlaps(line))
        return;
    _mshr.alloc(line, true, curTick());
    ++_prefetchesIssued;
    sampleMshrOccupancy();
    trySendQueues();
}

void
CacheBase::pushWriteback(PacketPtr wb)
{
    mda_assert(wb->cmd == MemCmd::Writeback, "not a writeback");
    ++_writebacksOut;
    _bytesWrittenBack += std::popcount(wb->wordMask) * wordBytes;
    MDA_PROBE(_probes.writebackOut,
              probe::PacketEvent{wb.get(), curTick(), 0});
    _writeBuffer.push_back(std::move(wb));
    trySendQueues();
}

void
CacheBase::respond(PacketPtr pkt, Cycles delay)
{
    if (!pkt->isResponse)
        pkt->makeResponse();
    // Fired at schedule time with the delivery delay, so a listener
    // sees both when the level finished (curTick()) and when the
    // requester will (curTick() + delay).
    MDA_PROBE(_probes.responded,
              probe::PacketEvent{pkt.get(), curTick(), delay});
    auto *raw = pkt.release();
    eventq().scheduleAfter(
        delay,
        [this, raw] {
            PacketPtr p(raw);
            mda_assert(_upstream, "response with no upstream");
            _upstream->recvResponse(std::move(p));
        },
        EventPriority::Response);
}

void
CacheBase::replayDeferred()
{
    if (_deferred.empty())
        return;
    std::deque<PacketPtr> pending;
    pending.swap(_deferred);
    for (auto &pkt : pending) {
        // Re-run through the handler; still-conflicting packets will
        // re-defer themselves (preserving relative order).
        if (pkt->cmd == MemCmd::Writeback)
            handleWriteback(std::move(pkt));
        else
            handleDemand(std::move(pkt));
    }
    maybeUnblockUpstream();
}

void
CacheBase::trySendQueues()
{
    mda_assert(_downstream, "cache with no downstream");
    // Writebacks drain strictly in order.
    while (!_writeBuffer.empty()) {
        if (!_downstream->tryRequest(_writeBuffer.front()))
            return; // downstream will retry us
        _writeBuffer.pop_front();
        maybeUnblockUpstream();
    }
    // Fills may go once no queued writeback overlaps them; with an
    // empty write buffer that is vacuously true.
    _mshr.visitUnsent([this](MshrEntry &entry) {
        auto fill = Packet::makeLineFill(entry.line, entry.isPrefetch,
                                         curTick(), packetPool());
        fill->pc = entry.pc;
        // The raw pointer stays valid past tryRequest: on acceptance
        // the downstream owns the packet (queued or scheduled), and
        // the probe fires before any of its events can run.
        const Packet *sent = fill.get();
        if (!_downstream->tryRequest(fill))
            return false; // downstream will retry us
        MDA_PROBE(_probes.fillSent,
                  probe::PacketEvent{sent, curTick(), 0});
        return true;      // the MSHR file marks the entry sent
    });
}

void
CacheBase::maybeUnblockUpstream()
{
    if (_upstreamBlocked && canAccept() && _upstream) {
        _upstreamBlocked = false;
        _upstream->recvRetry();
    }
}

} // namespace mda
