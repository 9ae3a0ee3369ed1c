#include "mda_memory.hh"

#include <bit>


namespace mda
{

MdaMemory::MdaMemory(const std::string &obj_name, EventQueue &eq,
                     stats::StatGroup &sg,
                     const MemTimingParams &timing,
                     const MemTopologyParams &topo)
    : SimObject(obj_name, eq, sg),
      _timing(timing),
      _topo(topo),
      _decoder(topo),
      _channels(topo.channels),
      _banks(topo.totalBanks())
{
    regScalar("readReqs", &_readReqs, "read requests accepted");
    regScalar("writeReqs", &_writeReqs, "write requests accepted");
    regScalar("rowAccesses", &_rowAccesses, "row-mode accesses");
    regScalar("colAccesses", &_colAccesses, "column-mode accesses");
    regScalar("rowBufHits", &_rowBufHits, "row buffer hits");
    regScalar("colBufHits", &_colBufHits, "column buffer hits");
    regScalar("bufMisses", &_bufMisses, "buffer misses (activations)");
    regScalar("bytesRead", &_bytesRead, "bytes read from memory");
    regScalar("bytesWritten", &_bytesWritten, "bytes written to memory");
    regScalar("busBusyCycles", &_busBusy, "channel bus busy cycles");
    regDistribution("queueLatency", &_queueLatency,
                    "enqueue-to-issue latency");
}

void
MdaMemory::regProbes(probe::ProbeManager &pm)
{
    pm.reg(name() + ".accepted", &_probes.accepted);
    pm.reg(name() + ".queuedReqs", &_probes.queuedReqs);
    pm.reg(name() + ".issued", &_probes.issued);
    pm.reg(name() + ".activate", &_probes.activate);
    pm.reg(name() + ".bufferHit", &_probes.bufferHit);
    pm.reg(name() + ".responded", &_probes.responded);
}

Cycles
MdaMemory::burstCycles(const Packet &pkt) const
{
    // A full line occupies the bus for one burst; sub-line transfers
    // (scalar fills, partial writebacks) use a chopped burst.
    unsigned words = std::popcount(pkt.wordMask);
    if (!pkt.isLine() || words <= lineWords / 2) {
        Cycles half = _timing.tBurst / 2;
        return half > 0 ? half : 1;
    }
    return _timing.tBurst;
}

bool
MdaMemory::tryRequest(PacketPtr &pkt)
{
    DecodedAddr dec = _decoder.decode(pkt->addr);
    Channel &channel = _channels[dec.channel];
    bool is_write = (pkt->cmd != MemCmd::Read);
    auto &queue = is_write ? channel.writeQ : channel.readQ;
    unsigned capacity =
        is_write ? _topo.writeQueueSize : _topo.readQueueSize;
    if (queue.size() >= capacity) {
        _upstreamBlocked = true;
        return false;
    }

    // Functional effect at arrival order (see file comment).
    if (is_write) {
        _store.applyPacket(*pkt);
        ++_writeReqs;
        _bytesWritten += pkt->isLine()
                             ? std::popcount(pkt->wordMask) * wordBytes
                             : wordBytes;
    } else {
        _store.fillPacket(*pkt);
        ++_readReqs;
        _bytesRead += pkt->isLine()
                          ? std::popcount(pkt->wordMask) * wordBytes
                          : wordBytes;
    }
    if (pkt->orient == Orientation::Row)
        ++_rowAccesses;
    else
        ++_colAccesses;

    MDA_PROBE(_probes.accepted,
              probe::PacketEvent{pkt.get(), curTick(), 0});
    MDA_PROBE(_probes.queuedReqs,
              probe::CounterEvent{
                  curTick(), static_cast<double>(channel.readQ.size() +
                                                 channel.writeQ.size() +
                                                 1)});

    QueuedReq req;
    req.flatBank = dec.flatBank;
    req.bufTag = (pkt->orient == Orientation::Row) ? dec.physRow
                                                   : dec.physCol;
    req.enqueueTick = curTick();
    req.needsResponse = (pkt->cmd != MemCmd::Writeback);
    req.pkt = std::move(pkt);
    queue.push_back(std::move(req));

    unsigned ch = dec.channel;
    scheduleChannel(ch, curTick());
    return true;
}

void
MdaMemory::scheduleChannel(unsigned ch, Tick when)
{
    eventq().schedule(when, [this, ch] { processChannel(ch); });
}

void
MdaMemory::maybeUnblockUpstream()
{
    if (_upstreamBlocked && _upstream) {
        _upstreamBlocked = false;
        _upstream->recvRetry();
    }
}

void
MdaMemory::processChannel(unsigned ch)
{
    Channel &channel = _channels[ch];
    Tick now = curTick();
    Tick next_wake = maxTick;

    while (true) {
        // WQF drain mode.
        if (channel.writeQ.size() >= _topo.writeHighWatermark)
            channel.draining = true;
        if (channel.draining &&
            channel.writeQ.size() <= _topo.writeLowWatermark)
            channel.draining = false;

        bool serve_write;
        if (channel.draining) {
            serve_write = !channel.writeQ.empty();
        } else if (!channel.readQ.empty()) {
            serve_write = false;
        } else if (!channel.writeQ.empty()) {
            serve_write = true;
        } else {
            break; // both empty
        }

        auto &queue = serve_write ? channel.writeQ : channel.readQ;

        // FR-FCFS: first ready buffer-hit, else first ready request.
        std::size_t pick = queue.size();
        std::size_t first_ready = queue.size();
        for (std::size_t n = 0; n < queue.size(); ++n) {
            const QueuedReq &req = queue[n];
            Bank &bank = _banks[req.flatBank];
            if (bank.busyUntil > now) {
                next_wake = std::min(next_wake, bank.busyUntil);
                continue;
            }
            if (first_ready == queue.size())
                first_ready = n;
            auto &bufs = (req.pkt->orient == Orientation::Row)
                             ? bank.openRows
                             : bank.openCols;
            bool hit = bank.probe(
                bufs, static_cast<std::int64_t>(req.bufTag), false);
            if (hit) {
                pick = n;
                break;
            }
        }
        if (pick == queue.size())
            pick = first_ready;
        if (pick == queue.size())
            break; // nothing issuable now

        QueuedReq req = std::move(queue[pick]);
        queue.erase(queue.begin() +
                    static_cast<std::ptrdiff_t>(pick));
        maybeUnblockUpstream();
        issue(channel, std::move(req));
    }

    if (next_wake != maxTick)
        scheduleChannel(ch, next_wake);
}

void
MdaMemory::issue(Channel &channel, QueuedReq req)
{
    Tick now = curTick();
    Bank &bank = _banks[req.flatBank];
    Packet &pkt = *req.pkt;
    bool is_col = (pkt.orient == Orientation::Col);
    bool is_write = (pkt.cmd != MemCmd::Read);

    auto tag = static_cast<std::int64_t>(req.bufTag);
    auto &bufs = is_col ? bank.openCols : bank.openRows;
    bool hit = bank.probe(bufs, tag, true);
    Cycles lat = hit ? _timing.tCas : _timing.tActivate + _timing.tCas;
    if (is_col)
        lat += _timing.tColDecode;

    if (hit) {
        if (is_col)
            ++_colBufHits;
        else
            ++_rowBufHits;
    } else {
        ++_bufMisses;
        bank.open(bufs, tag, _topo.subRowBuffers);
    }
    // Writes dirty the mat under the *other* buffers' windows too;
    // conservatively invalidate them so stale buffer data is never
    // served (the crossing word is shared).
    if (is_write)
        (is_col ? bank.openRows : bank.openCols).clear();

    Tick data_ready = now + lat;
    bank.busyUntil =
        data_ready + (is_write ? _timing.tWriteRecovery : 0);

    Cycles burst = burstCycles(pkt);
    Tick bus_start = std::max(data_ready, channel.busUntil);
    channel.busUntil = bus_start + burst;
    _busBusy += static_cast<double>(burst);
    _queueLatency.sample(static_cast<double>(now - req.enqueueTick));
    MDA_PROBE(_probes.issued, probe::PacketEvent{&pkt, now, 0});
    const Tick done = bus_start + burst;
    MDA_PROBE(hit ? _probes.bufferHit : _probes.activate,
              probe::SpanEvent{&pkt, now, done - now});

    if (req.needsResponse) {
        MDA_PROBE(_probes.responded,
                  probe::PacketEvent{&pkt, now, done - now});
        // Hand the packet back to the upstream client at completion.
        // The pool membership (if any) rides inside the packet, so
        // re-wrapping the raw pointer below restores the exact
        // recycle-vs-free semantics of the original PacketPtr.
        auto *raw = req.pkt.release();
        eventq().schedule(
            done,
            [this, raw] {
                PacketPtr response(raw);
                response->makeResponse();
                mda_assert(_upstream, "response with no upstream");
                _upstream->recvResponse(std::move(response));
            },
            EventPriority::Response);
    }
}

} // namespace mda
