#include "trace_cpu.hh"

namespace mda
{

TraceCpu::TraceCpu(const std::string &obj_name, EventQueue &eq,
                   stats::StatGroup &sg, trace::TraceSource &src,
                   MemDevice &l1, const CpuParams &params)
    : SimObject(obj_name, eq, sg), _src(src), _l1(l1), _params(params)
{
    regScalar("ops", &_ops, "memory operations issued");
    regScalar("vectorOps", &_vectorOps, "SIMD operations issued");
    regScalar("readOps", &_readOps, "read operations");
    regScalar("writeOps", &_writeOps, "write operations");
    regScalar("colOps", &_colOps, "column-preference operations");
    regScalar("stallWindowFull", &_stallWindowFull,
              "issue stalls: outstanding window full");
    regScalar("stallRetry", &_stallRetry,
              "issue stalls: L1 busy (retry)");
    regScalar("computeCycles", &_computeCycles,
              "non-memory cycles consumed");
    regScalar("checkFailures", &_checkFailures,
              "functional check mismatches");
    regDistribution("loadLatency", &_loadLatency,
                    "demand access round-trip latency");
}

void
TraceCpu::regProbes(probe::ProbeManager &pm)
{
    pm.reg(name() + ".issued", &_probes.issued);
    pm.reg(name() + ".retired", &_probes.retired);
}

void
TraceCpu::start()
{
    scheduleIssue(curTick());
}

void
TraceCpu::scheduleIssue(Tick when)
{
    if (_issueScheduled)
        return;
    _issueScheduled = true;
    eventq().schedule(when, [this] {
        _issueScheduled = false;
        issue();
    }, EventPriority::Cpu);
}

PacketPtr
TraceCpu::makePacket(const compiler::TraceOp &op)
{
    PacketPtr pkt;
    MemCmd cmd = op.isWrite ? MemCmd::Write : MemCmd::Read;
    if (op.isVector) {
        OrientedLine line = OrientedLine::containing(op.addr, op.orient);
        pkt = Packet::makeVector(cmd, line, op.pc, curTick(),
                                 packetPool());
        pkt->wordMask = op.wordMask;
    } else {
        pkt = Packet::makeScalar(cmd, op.addr, op.orient, op.pc,
                                 curTick(), packetPool());
    }

    if (_params.checkData) {
        if (op.isWrite) {
            // Unique values, applied to the reference in issue order.
            if (op.isVector) {
                OrientedLine line = pkt->line();
                for (unsigned k = 0; k < lineWords; ++k) {
                    if (!(op.wordMask & (1u << k)))
                        continue;
                    std::uint64_t v = _nextValue++;
                    pkt->setWord(k, v);
                    _reference.writeWord(line.wordAddr(k), v);
                }
                pkt->wordMask = op.wordMask;
            } else {
                std::uint64_t v = _nextValue++;
                pkt->setWord(0, v);
                _reference.writeWord(pkt->addr, v);
            }
        } else {
            // Snapshot expected read values at issue.
            std::vector<std::uint64_t> expected;
            if (op.isVector) {
                OrientedLine line = pkt->line();
                for (unsigned k = 0; k < lineWords; ++k) {
                    expected.push_back(
                        (op.wordMask & (1u << k))
                            ? _reference.readWord(line.wordAddr(k))
                            : 0);
                }
            } else {
                expected.push_back(_reference.readWord(pkt->addr));
            }
            _expected.emplace(pkt->id, std::move(expected));
        }
    }
    return pkt;
}

std::uint64_t
TraceCpu::fastForward(std::uint64_t count)
{
    mda_assert(_outstanding == 0 && !_blockedPkt && !_waitingRetry,
               "fast-forward with timed work in flight");
    std::uint64_t applied = 0;
    while (applied < count) {
        if (!_havePending) {
            if (!_src.next(_pendingOp)) {
                _traceDone = true;
                _finishTick = curTick();
                break;
            }
            _havePending = true;
        }
        FunctionalReq req;
        req.line = OrientedLine::containing(_pendingOp.addr,
                                            _pendingOp.orient);
        req.addr = _pendingOp.addr;
        req.pc = _pendingOp.pc;
        req.isLine = _pendingOp.isVector;
        req.wordMask =
            _pendingOp.isVector ? _pendingOp.wordMask : 0x01;
        req.isWrite = _pendingOp.isWrite;
        _l1.functionalAccess(req);
        _havePending = false;
        ++applied;
    }
    _ffOps += applied;
    return applied;
}

void
TraceCpu::issue()
{
    // A spent window budget silences the issue path (sampling): the
    // in-flight window drains and the event queue goes quiescent.
    while (_issueBudget != 0) {
        if (!_havePending) {
            if (!_src.next(_pendingOp)) {
                _traceDone = true;
                if (_outstanding == 0)
                    _finishTick = curTick();
                return;
            }
            _havePending = true;
            // Dependent compute delay before this op can issue.
            if (_pendingOp.computeCycles > 0) {
                _computeCycles += _pendingOp.computeCycles;
                scheduleIssue(curTick() + _pendingOp.computeCycles);
                return;
            }
        }
        if (_outstanding >= _params.maxOutstanding) {
            ++_stallWindowFull;
            return; // resumed by the next response
        }
        // Re-send a previously rejected packet as-is so the checker's
        // reference updates are applied exactly once.
        PacketPtr pkt = _blockedPkt ? std::move(_blockedPkt)
                                    : makePacket(_pendingOp);
        // Accepted packets survive inside the L1's scheduled lookup,
        // so a pointer captured here stays valid for the probe below.
        const Packet *sent = pkt.get();
        if (!_l1.tryRequest(pkt)) {
            ++_stallRetry;
            _blockedPkt = std::move(pkt);
            _waitingRetry = true;
            return;
        }
        MDA_PROBE(_probes.issued,
                  probe::PacketEvent{sent, curTick(), 0});
        ++_ops;
        ++_outstanding;
        --_issueBudget;
        if (MDA_UNLIKELY(_issueBudget == _hookAt) && _budgetHook) {
            // Detach first: the hook may install its successor.
            auto hook = std::move(_budgetHook);
            _budgetHook = nullptr;
            hook();
        }
        if (_pendingOp.isVector)
            ++_vectorOps;
        (_pendingOp.isWrite ? _writeOps : _readOps) += 1;
        if (_pendingOp.orient == Orientation::Col)
            ++_colOps;
        _havePending = false;
        // One issue per cycle.
        scheduleIssue(curTick() + 1);
        return;
    }
}

void
TraceCpu::recvResponse(PacketPtr pkt)
{
    mda_assert(_outstanding > 0, "response with nothing outstanding");
    --_outstanding;
    MDA_PROBE(_probes.retired,
              probe::PacketEvent{pkt.get(), curTick(), 0});
    _loadLatency.sample(
        static_cast<double>(curTick() - pkt->issueTick));

    if (_params.checkData && pkt->cmd == MemCmd::Read) {
        auto it = _expected.find(pkt->id);
        mda_assert(it != _expected.end(), "unexpected read response");
        const auto &expected = it->second;
        if (pkt->isLine()) {
            for (unsigned k = 0; k < lineWords; ++k) {
                if (!(pkt->wordMask & (1u << k)))
                    continue;
                if (pkt->word(k) != expected[k]) {
                    ++_checkFailures;
                    warn("data mismatch at %#llx word %u: got %llu "
                         "want %llu",
                         (unsigned long long)pkt->addr, k,
                         (unsigned long long)pkt->word(k),
                         (unsigned long long)expected[k]);
                }
            }
        } else if (pkt->word(0) != expected[0]) {
            ++_checkFailures;
            warn("data mismatch at %#llx: got %llu want %llu",
                 (unsigned long long)pkt->addr,
                 (unsigned long long)pkt->word(0),
                 (unsigned long long)expected[0]);
        }
        _expected.erase(it);
    }

    if (_traceDone && _outstanding == 0) {
        _finishTick = curTick();
        return;
    }
    if (!_waitingRetry)
        scheduleIssue(curTick());
}

void
TraceCpu::recvRetry()
{
    _waitingRetry = false;
    scheduleIssue(curTick());
}

} // namespace mda
