#include "tile_cache.hh"

#include <bit>

namespace mda
{

TileCache::TileCache(const std::string &obj_name, EventQueue &eq,
                     stats::StatGroup &sg, const CacheConfig &config,
                     TileFillPolicy fill)
    : CacheBase(obj_name, eq, sg, config),
      _sets(config.numTileSets()),
      _setMod(config.numTileSets()),
      _fill(fill),
      _storage(config.numTileSets(), config.ways)
{
    regScalar("denseBlockStreams", &_denseBlockStreams,
              "whole 2-D blocks streamed by the dense fill policy");
    regScalar("writeValidates", &_writeValidates,
              "words validated by writes without a fetch");
    regScalar("sparseLineFills", &_sparseLineFills,
              "oriented lines filled into sparse 2-D blocks");
    regScalar("writebackBytesElided", &_writebackBytesElided,
              "bytes never written back (words never filled)");
    regScalar("frameEvictions", &_frameEvictions,
              "2-D block frames evicted");
    regScalar("wordsPresent", &_wordsPresent,
              "sparse-block presence bits currently set",
              stats::StatKind::Gauge);
}

void
TileCache::notePresenceDelta(std::int64_t delta)
{
    _presentWords = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(_presentWords) + delta);
    _wordsPresent = static_cast<double>(_presentWords);
    MDA_PROBE(_probes.presentWords,
              probe::CounterEvent{
                  curTick(), static_cast<double>(_presentWords)});
}

std::vector<std::string>
TileCache::checkInvariants() const
{
    std::vector<std::string> violations;
    std::uint64_t present = 0;
    for (std::uint64_t s = 0; s < _sets; ++s) {
        for (unsigned w = 0; w < _config.ways; ++w) {
            StorageSlot slot = _storage.slotOf(s, w);
            std::string where = name() + ": set " + std::to_string(s) +
                                " way " + std::to_string(w);
            if (!_storage.valid(slot)) {
                if (_storage.wordValid(slot) != 0 ||
                    _storage.wordDirty(slot) != 0) {
                    violations.push_back(
                        where + ": invalid frame with presence/dirty "
                                "bits set");
                }
                continue;
            }
            std::uint64_t tile = _storage.tile(slot);
            if (_storage.wordDirty(slot) & ~_storage.wordValid(slot)) {
                violations.push_back(
                    where + " (tile " + std::to_string(tile) +
                    "): dirty bits on absent words (dirty " +
                    std::to_string(_storage.wordDirty(slot)) +
                    ", valid " +
                    std::to_string(_storage.wordValid(slot)) + ")");
            }
            present += std::popcount(_storage.wordValid(slot));
            for (unsigned w2 = w + 1; w2 < _config.ways; ++w2) {
                StorageSlot other = _storage.slotOf(s, w2);
                if (_storage.valid(other) &&
                    _storage.tile(other) == tile) {
                    violations.push_back(
                        where + ": duplicate frames for tile " +
                        std::to_string(tile));
                }
            }
        }
    }
    if (present != _presentWords) {
        violations.push_back(
            name() + ": presence-bit counter " +
            std::to_string(_presentWords) +
            " != recounted population " + std::to_string(present));
    }
    return violations;
}

std::uint64_t
TileCache::setFor(std::uint64_t tile) const
{
    // Same index hashing rationale as LineCache::setFor: narrow tile
    // bands (HTAP fields) would otherwise collapse into a few sets.
    return _setMod.mod((tile * 0x9e3779b97f4a7c15ULL) >> 24);
}

StorageSlot
TileCache::find(std::uint64_t tile)
{
    return _storage.find(setFor(tile), tile);
}

bool
TileCache::pinned(std::uint64_t tile) const
{
    return _mshr.pinsTile(tile);
}

StorageSlot
TileCache::allocFrame(std::uint64_t tile)
{
    if (StorageSlot hit = find(tile); hit != kNoSlot)
        return hit;
    std::uint64_t set = setFor(tile);
    StorageSlot victim = kNoSlot;
    for (unsigned w = 0; w < _config.ways; ++w) {
        StorageSlot slot = _storage.slotOf(set, w);
        if (!_storage.valid(slot)) {
            victim = slot;
            break;
        }
        if (pinned(_storage.tile(slot)))
            continue;
        if (victim == kNoSlot ||
            _storage.lruStamp(slot) < _storage.lruStamp(victim))
            victim = slot;
    }
    if (victim == kNoSlot)
        return kNoSlot; // every way pinned by in-flight fills
    if (_storage.valid(victim))
        evictFrame(victim);
    _storage.installFrame(victim, tile);
    return victim;
}

void
TileCache::evictFrame(StorageSlot slot)
{
    ++_frameEvictions;
    ++_evictions;
    std::uint64_t tile = _storage.tile(slot);
    std::uint64_t word_valid = _storage.wordValid(slot);
    std::uint64_t word_dirty = _storage.wordDirty(slot);
    MDA_PROBE(_probes.evict,
              probe::EvictEvent{
                  tileBase(tile), Orientation::Row,
                  static_cast<unsigned>(std::popcount(word_valid)),
                  static_cast<unsigned>(std::popcount(word_dirty)),
                  curTick()});
    notePresenceDelta(-std::popcount(word_valid));
    // Per-row partial writebacks of the dirty words; rows with no
    // dirty words move nothing. Words never filled are never written
    // back — the sparse design's writeback elision.
    std::uint64_t never_filled =
        ~word_valid & ~0ULL; // bits of absent words
    _writebackBytesElided +=
        std::popcount(never_filled) * wordBytes;
    for (unsigned r = 0; r < tileLines; ++r) {
        std::uint8_t mask = 0;
        for (unsigned c = 0; c < lineWords; ++c)
            if (word_dirty & (1ULL << tileWordBit(r, c)))
                mask |= static_cast<std::uint8_t>(1u << c);
        if (!mask)
            continue;
        OrientedLine row(Orientation::Row, (tile << 3) | r);
        auto wb = Packet::makeWriteback(row, mask, curTick(),
                                        packetPool());
        for (unsigned c = 0; c < lineWords; ++c)
            if (mask & (1u << c))
                wb->setWord(c, _storage.word(slot, tileWordBit(r, c)));
        wb->wordMask = mask;
        pushWriteback(std::move(wb));
    }
    _storage.invalidate(slot);
}

void
TileCache::copyOut(StorageSlot slot, Packet &pkt)
{
    if (!pkt.isLine()) {
        unsigned bit = tileWordBit(tileRowOf(pkt.addr),
                                   tileColOf(pkt.addr));
        pkt.setWord(0, _storage.word(slot, bit));
        pkt.wordMask = 0x01;
        return;
    }
    OrientedLine line = pkt.line();
    for (unsigned k = 0; k < lineWords; ++k) {
        if (!(pkt.wordMask & (1u << k)))
            continue;
        unsigned bit = (line.orient == Orientation::Row)
                           ? tileWordBit(line.index(), k)
                           : tileWordBit(k, line.index());
        pkt.setWord(k, _storage.word(slot, bit));
    }
}

void
TileCache::performWrite(StorageSlot slot, const Packet &pkt)
{
    if (!pkt.isLine()) {
        unsigned bit = tileWordBit(tileRowOf(pkt.addr),
                                   tileColOf(pkt.addr));
        _storage.setWord(slot, bit, pkt.word(0));
        std::uint64_t m = 1ULL << bit;
        unsigned fresh =
            std::popcount(m & ~_storage.wordValid(slot));
        _writeValidates += fresh;
        _storage.orWordValid(slot, m);
        _storage.orWordDirty(slot, m);
        if (fresh)
            notePresenceDelta(fresh);
        return;
    }
    OrientedLine line = pkt.line();
    unsigned validated = 0;
    for (unsigned k = 0; k < lineWords; ++k) {
        if (!(pkt.wordMask & (1u << k)))
            continue;
        unsigned bit = (line.orient == Orientation::Row)
                           ? tileWordBit(line.index(), k)
                           : tileWordBit(k, line.index());
        _storage.setWord(slot, bit, pkt.word(k));
        std::uint64_t m = 1ULL << bit;
        validated += std::popcount(m & ~_storage.wordValid(slot));
        _storage.orWordValid(slot, m);
        _storage.orWordDirty(slot, m);
    }
    _writeValidates += validated;
    if (validated)
        notePresenceDelta(validated);
}

void
TileCache::handleDemand(PacketPtr pkt)
{
    bool is_write = (pkt->cmd == MemCmd::Write);
    OrientedLine line = pkt->line();
    std::uint64_t tile = line.tile();
    std::uint64_t needed =
        pkt->isLine()
            ? tileMaskFor(line, pkt->wordMask)
            : (1ULL << tileWordBit(tileRowOf(pkt->addr),
                                   tileColOf(pkt->addr)));

    StorageSlot entry = find(tile);

    if (is_write) {
        // Word-granular write-validate: no fetch is ever needed.
        bool had_words =
            entry != kNoSlot &&
            (_storage.wordValid(entry) & needed) == needed;
        if (entry == kNoSlot) {
            entry = allocFrame(tile);
            if (entry == kNoSlot) {
                defer(std::move(pkt));
                return;
            }
        }
        (had_words ? _writeHits : _writeMisses) += 1;
        (had_words ? _demandHits : _demandMisses) += 1;
        if (pkt->isLine())
            (had_words ? _vectorHits : _vectorMisses) += 1;
        performWrite(entry, *pkt);
        _storage.touch(entry);
        Cycles delay =
            _config.hitLatency() + _writePenalty + pkt->extraLatency;
        if (had_words) {
            respondHit(std::move(pkt), delay);
        } else {
            MDA_PROBE(_probes.miss,
                      probe::PacketEvent{pkt.get(), curTick(), 0});
            respond(std::move(pkt), delay);
        }
        return;
    }

    // ---- read ----
    if (entry != kNoSlot &&
        (_storage.wordValid(entry) & needed) == needed) {
        ++_demandHits;
        ++_readHits;
        if (pkt->isLine())
            ++_vectorHits;
        copyOut(entry, *pkt);
        _storage.touch(entry);
        Cycles delay = _config.hitLatency() + pkt->extraLatency;
        respondHit(std::move(pkt), delay);
        return;
    }
    if (entry != kNoSlot && (_storage.wordValid(entry) & needed) != 0)
        ++_partialHits;

    // Defer decisions precede miss accounting (count-once).
    MshrEntry *inflight = _mshr.find(line);
    if (!inflight) {
        if (_mshr.full()) {
            defer(std::move(pkt));
            return;
        }
        // Reserve (and pin) the frame before requesting the fill.
        entry = allocFrame(tile);
        if (entry == kNoSlot) {
            defer(std::move(pkt));
            return;
        }
    } else if (!_mshr.canTarget(*inflight)) {
        defer(std::move(pkt));
        return;
    }

    ++_demandMisses;
    ++_readMisses;
    if (pkt->isLine())
        ++_vectorMisses;
    MDA_PROBE(_probes.miss, probe::PacketEvent{pkt.get(), curTick(), 0});

    bool fresh_entry = (inflight == nullptr);
    allocateMiss(std::move(pkt), line, inflight);
    // Stream the rest of the block after the demand line has its
    // entry; prefetches that no longer fit are dropped (best effort).
    if (fresh_entry && _fill == TileFillPolicy::Dense)
        streamBlock(line);
}

void
TileCache::streamBlock(const OrientedLine &line)
{
    // Dense fill: the remaining same-orientation lines of the block
    // follow the demand fill (critical row/column first). Modeled as
    // prefetch fills; already-valid words are skipped at merge time.
    ++_denseBlockStreams;
    for (unsigned idx = 0; idx < tileLines; ++idx) {
        if (idx == line.index())
            continue;
        OrientedLine sibling(line.orient, (line.tile() << 3) | idx);
        issuePrefetch(sibling);
    }
}

// ---- functional (fast-forward) path ----------------------------------
//
// State-only mirrors of the timed handlers for sampled simulation's
// fast-forward phase. No packets, MSHRs, latencies, or counters;
// the presence gauge (simulation state, audited by checkInvariants)
// is kept in sync. Timed-mode resource limits do not apply: frames
// are never pinned (no fills in flight) and dense block streams
// always complete instead of being dropped on MSHR pressure.

StorageSlot
TileCache::functionalAllocFrame(std::uint64_t tile)
{
    if (StorageSlot hit = find(tile); hit != kNoSlot)
        return hit;
    std::uint64_t set = setFor(tile);
    StorageSlot victim = _storage.slotOf(set, 0);
    for (unsigned w = 0; w < _config.ways; ++w) {
        StorageSlot slot = _storage.slotOf(set, w);
        if (!_storage.valid(slot)) {
            victim = slot;
            break;
        }
        if (_storage.lruStamp(slot) < _storage.lruStamp(victim))
            victim = slot;
    }
    if (_storage.valid(victim))
        functionalEvictFrame(victim);
    _storage.installFrame(victim, tile);
    return victim;
}

void
TileCache::functionalEvictFrame(StorageSlot slot)
{
    std::uint64_t tile = _storage.tile(slot);
    std::uint64_t word_valid = _storage.wordValid(slot);
    std::uint64_t word_dirty = _storage.wordDirty(slot);
    notePresenceDelta(-std::popcount(word_valid));
    for (unsigned r = 0; r < tileLines; ++r) {
        std::uint8_t mask = 0;
        for (unsigned c = 0; c < lineWords; ++c)
            if (word_dirty & (1ULL << tileWordBit(r, c)))
                mask |= static_cast<std::uint8_t>(1u << c);
        if (!mask)
            continue;
        OrientedLine row(Orientation::Row, (tile << 3) | r);
        _downstream->functionalWriteback(row, mask);
    }
    _storage.invalidate(slot);
}

void
TileCache::functionalFillLine(const OrientedLine &line,
                              StorageSlot slot)
{
    FunctionalReq down;
    down.line = line;
    down.addr = line.baseAddr();
    down.wordMask = 0xff;
    down.isLine = true;
    _downstream->functionalAccess(down);
    std::uint64_t fill =
        tileMaskFor(line, 0xff) & ~_storage.wordValid(slot);
    if (fill) {
        _storage.orWordValid(slot, fill);
        notePresenceDelta(std::popcount(fill));
    }
}

void
TileCache::functionalAccess(const FunctionalReq &req)
{
    OrientedLine line = req.line;
    std::uint64_t tile = line.tile();
    std::uint64_t needed =
        req.isLine
            ? tileMaskFor(line, req.wordMask)
            : (1ULL << tileWordBit(tileRowOf(req.addr),
                                   tileColOf(req.addr)));

    if (req.isWrite) {
        // Word-granular write-validate: no fetch is ever needed.
        StorageSlot entry = functionalAllocFrame(tile);
        std::uint64_t fresh = needed & ~_storage.wordValid(entry);
        _storage.orWordValid(entry, needed);
        _storage.orWordDirty(entry, needed);
        if (fresh)
            notePresenceDelta(std::popcount(fresh));
        _storage.touch(entry);
        return;
    }

    StorageSlot entry = find(tile);
    if (entry != kNoSlot &&
        (_storage.wordValid(entry) & needed) == needed) {
        _storage.touch(entry);
        return;
    }
    entry = functionalAllocFrame(tile);
    functionalFillLine(line, entry);
    _storage.touch(entry);
    if (_fill == TileFillPolicy::Dense) {
        for (unsigned idx = 0; idx < tileLines; ++idx) {
            if (idx == line.index())
                continue;
            OrientedLine sibling(line.orient, (tile << 3) | idx);
            functionalFillLine(sibling, entry);
        }
    }
}

void
TileCache::functionalWriteback(const OrientedLine &line,
                               std::uint8_t mask)
{
    StorageSlot entry = functionalAllocFrame(line.tile());
    bool was_absent = (_storage.wordValid(entry) == 0);
    std::uint64_t words = tileMaskFor(line, mask);
    std::uint64_t fresh = words & ~_storage.wordValid(entry);
    _storage.orWordValid(entry, words);
    _storage.orWordDirty(entry, words);
    if (fresh)
        notePresenceDelta(std::popcount(fresh));
    _storage.touch(entry);
    if (_fill == TileFillPolicy::Dense && was_absent) {
        for (unsigned idx = 0; idx < tileLines; ++idx) {
            if (idx == line.index())
                continue;
            OrientedLine sibling(line.orient,
                                 (line.tile() << 3) | idx);
            functionalFillLine(sibling, entry);
        }
    }
}

void
TileCache::handleWriteback(PacketPtr pkt)
{
    OrientedLine line = pkt->line();
    StorageSlot entry = allocFrame(line.tile());
    if (entry == kNoSlot) {
        defer(std::move(pkt));
        return;
    }
    // Sparse merge: the writeback's words become valid + dirty with
    // no read fill — the 2P2L sparse advantage for upper-level
    // writebacks that miss (paper Section IV-C, Design 2). The dense
    // policy instead pays to stream in the rest of the block.
    bool was_absent = (_storage.wordValid(entry) == 0);
    performWrite(entry, *pkt);
    _storage.touch(entry);
    if (_fill == TileFillPolicy::Dense && was_absent)
        streamBlock(pkt->line());
}

void
TileCache::handleFill(PacketPtr pkt)
{
    OrientedLine line = pkt->line();
    mda_assert(pkt->wordMask == 0xff, "partial line fill");
    MshrEntry retired = _mshr.retire(line);
    noteMissLatency(retired);
    MDA_PROBE(_probes.mshrRetire,
              probe::PacketEvent{pkt.get(), curTick(), 0});
    auto targets = std::move(retired.targets);

    StorageSlot entry = find(line.tile());
    mda_assert(entry != kNoSlot,
               "fill arrived for an unpinned/absent frame");
    ++_sparseLineFills;

    // Only absent words take the fill data: any word validated by a
    // write while the fill was in flight is newer than memory.
    unsigned filled = 0;
    for (unsigned k = 0; k < lineWords; ++k) {
        unsigned bit = (line.orient == Orientation::Row)
                           ? tileWordBit(line.index(), k)
                           : tileWordBit(k, line.index());
        std::uint64_t m = 1ULL << bit;
        if (_storage.wordValid(entry) & m)
            continue;
        _storage.setWord(entry, bit, pkt->word(k));
        _storage.orWordValid(entry, m);
        ++filled;
    }
    if (filled)
        notePresenceDelta(filled);
    _storage.touch(entry);

    for (auto &target : targets) {
        mda_assert(target->cmd == MemCmd::Read,
                   "write target in a TileCache MSHR");
        copyOut(entry, *target);
        Cycles delay = _config.dataLatency + target->extraLatency;
        respond(std::move(target), delay);
    }
    trySendQueues();
}

} // namespace mda
