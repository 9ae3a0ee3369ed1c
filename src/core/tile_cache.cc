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

namespace
{

/** Tile-mask bit of the word holding scalar address @p addr. */
unsigned
scalarBit(Addr addr)
{
    return tileWordBit(tileRowOf(addr), tileColOf(addr));
}

/** Tile-mask words an access touches: a line's @p word_mask, or the
 *  one word of a scalar at @p addr. */
std::uint64_t
accessWords(const OrientedLine &line, Addr addr, bool is_line,
            std::uint8_t word_mask)
{
    return is_line ? tileMaskFor(line, word_mask)
                   : (1ULL << scalarBit(addr));
}

/** Call @p fn on each other same-orientation line of @p line's
 *  block (the dense fill's stream). */
template <class Fn>
void
forEachSibling(const OrientedLine &line, Fn &&fn)
{
    for (unsigned idx = 0; idx < tileLines; ++idx)
        if (idx != line.index())
            fn(OrientedLine(line.orient, (line.tile() << 3) | idx));
}

} // namespace

// The timed handlers and the fast-forward entry points share every
// state transition below; each passes a Path saying where dirty words
// leaving this level go, what a dense block stream does, and doing its
// own accounting. Fast-forward's deliberate differences are listed in
// cache_base.hh.

struct TileCache::TimedPath
{
    TileCache &c;

    void
    spill(StorageSlot slot, const OrientedLine &row,
          std::uint8_t mask) const
    {
        auto wb = Packet::makeWriteback(row, mask, c.curTick(),
                                        c.packetPool());
        for (unsigned k = 0; k < lineWords; ++k)
            if (mask & (1u << k))
                wb->setWord(k, c._storage.word(slot, tileWordBit(row, k)));
        wb->wordMask = mask;
        c.pushWriteback(std::move(wb));
    }

    void
    noteEvict(StorageSlot slot) const
    {
        ++c._frameEvictions;
        ++c._evictions;
        std::uint64_t word_valid = c._storage.wordValid(slot);
        MDA_PROBE(c._probes.evict,
                  probe::EvictEvent{
                      tileBase(c._storage.tile(slot)), Orientation::Row,
                      static_cast<unsigned>(std::popcount(word_valid)),
                      static_cast<unsigned>(
                          std::popcount(c._storage.wordDirty(slot))),
                      c.curTick()});
        // Words never filled are never written back — the sparse
        // design's writeback elision.
        c._writebackBytesElided += std::popcount(~word_valid) * wordBytes;
    }

    /** Dense fill: the rest of the block follows the demand fill as
     *  prefetch fills (dropped if they no longer fit); words already
     *  valid are skipped when each merges. */
    void
    streamBlock(const OrientedLine &line, StorageSlot) const
    {
        ++c._denseBlockStreams;
        forEachSibling(line, [this](const OrientedLine &sibling) {
            c.issuePrefetch(sibling);
        });
    }
};

struct TileCache::FunctionalPath
{
    TileCache &c;

    void
    spill(StorageSlot, const OrientedLine &row, std::uint8_t mask) const
    {
        c._downstream->functionalWriteback(row, mask);
    }

    void noteEvict(StorageSlot) const {}

    /** A miss: fetch @p line from below, merge its absent words. */
    void
    fill(const OrientedLine &line, StorageSlot slot) const
    {
        c._downstream->functionalAccess(FunctionalReq::fill(line));
        c.fillAbsent(slot, line, [](unsigned, unsigned) {});
    }

    void
    streamBlock(const OrientedLine &line, StorageSlot slot) const
    {
        forEachSibling(line, [&](const OrientedLine &sibling) {
            fill(sibling, slot);
        });
    }
};

template <class Path>
StorageSlot
TileCache::allocFrame(std::uint64_t tile, Path path)
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
        if (_mshr.pinsTile(_storage.tile(slot)))
            continue;
        if (victim == kNoSlot ||
            _storage.lruStamp(slot) < _storage.lruStamp(victim))
            victim = slot;
    }
    if (victim == kNoSlot)
        return kNoSlot; // every way pinned by in-flight fills
    if (_storage.valid(victim))
        evictFrame(victim, path);
    _storage.installFrame(victim, tile);
    return victim;
}

template <class Path>
void
TileCache::evictFrame(StorageSlot slot, Path path)
{
    path.noteEvict(slot);
    notePresenceDelta(-std::popcount(_storage.wordValid(slot)));
    // Per-row partial writebacks of the dirty words; rows with no
    // dirty words move nothing. Row r's words are byte r of the mask.
    std::uint64_t tile = _storage.tile(slot);
    std::uint64_t word_dirty = _storage.wordDirty(slot);
    for (unsigned r = 0; r < tileLines; ++r) {
        auto mask = static_cast<std::uint8_t>(
            word_dirty >> tileWordBit(r, 0));
        if (mask)
            path.spill(slot, OrientedLine(Orientation::Row,
                                          (tile << 3) | r),
                       mask);
    }
    _storage.invalidate(slot);
}

template <class Path, class Write>
bool
TileCache::absorbWriteback(const OrientedLine &line, Path path,
                           Write &&write)
{
    StorageSlot entry = allocFrame(line.tile(), path);
    if (entry == kNoSlot)
        return false;
    // Sparse merge: the writeback's words become valid + dirty with
    // no read fill — the 2P2L sparse advantage for upper-level
    // writebacks that miss (paper Section IV-C, Design 2). The dense
    // policy instead pays to stream in the rest of the block.
    bool was_absent = (_storage.wordValid(entry) == 0);
    write(entry);
    _storage.touch(entry);
    if (_fill == TileFillPolicy::Dense && was_absent)
        path.streamBlock(line, entry);
    return true;
}

template <class OnWord>
void
TileCache::fillAbsent(StorageSlot slot, const OrientedLine &line,
                      OnWord &&on_word)
{
    // Only absent words take the fill data: any word validated by a
    // write while the fill was in flight is newer than memory.
    std::uint64_t absent =
        tileMaskFor(line, 0xff) & ~_storage.wordValid(slot);
    if (!absent)
        return;
    for (unsigned k = 0; k < lineWords; ++k) {
        unsigned bit = tileWordBit(line, k);
        if (absent & (1ULL << bit))
            on_word(bit, k);
    }
    _storage.orWordValid(slot, absent);
    notePresenceDelta(std::popcount(absent));
}

unsigned
TileCache::validateWords(StorageSlot slot, std::uint64_t words)
{
    auto fresh = static_cast<unsigned>(
        std::popcount(words & ~_storage.wordValid(slot)));
    _storage.orWordValid(slot, words);
    _storage.orWordDirty(slot, words);
    if (fresh)
        notePresenceDelta(fresh);
    return fresh;
}

void
TileCache::copyOut(StorageSlot slot, Packet &pkt)
{
    if (!pkt.isLine()) {
        pkt.setWord(0, _storage.word(slot, scalarBit(pkt.addr)));
        pkt.wordMask = 0x01;
        return;
    }
    OrientedLine line = pkt.line();
    for (unsigned k = 0; k < lineWords; ++k)
        if (pkt.wordMask & (1u << k))
            pkt.setWord(k, _storage.word(slot, tileWordBit(line, k)));
}

void
TileCache::performWrite(StorageSlot slot, const Packet &pkt)
{
    OrientedLine line = pkt.line();
    if (!pkt.isLine()) {
        _storage.setWord(slot, scalarBit(pkt.addr), pkt.word(0));
    } else {
        for (unsigned k = 0; k < lineWords; ++k)
            if (pkt.wordMask & (1u << k))
                _storage.setWord(slot, tileWordBit(line, k), pkt.word(k));
    }
    _writeValidates += validateWords(
        slot, accessWords(line, pkt.addr, pkt.isLine(), pkt.wordMask));
}

void
TileCache::handleDemand(PacketPtr pkt)
{
    const TimedPath timed{*this};
    bool is_write = (pkt->cmd == MemCmd::Write);
    OrientedLine line = pkt->line();
    std::uint64_t tile = line.tile();
    std::uint64_t needed =
        accessWords(line, pkt->addr, pkt->isLine(), pkt->wordMask);

    StorageSlot entry = find(tile);

    if (is_write) {
        // Word-granular write-validate: no fetch is ever needed.
        bool had_words =
            entry != kNoSlot &&
            (_storage.wordValid(entry) & needed) == needed;
        if (entry == kNoSlot) {
            entry = allocFrame(tile, timed);
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
        entry = allocFrame(tile, timed);
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
    // entry.
    if (fresh_entry && _fill == TileFillPolicy::Dense)
        timed.streamBlock(line, entry);
}

void
TileCache::handleWriteback(PacketPtr pkt)
{
    // Every way pinned by in-flight fills: retry after one retires.
    if (!absorbWriteback(pkt->line(), TimedPath{*this},
                         [&](StorageSlot slot) {
                             performWrite(slot, *pkt);
                         }))
        defer(std::move(pkt));
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
    fillAbsent(entry, line, [&](unsigned bit, unsigned k) {
        _storage.setWord(entry, bit, pkt->word(k));
    });
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

void
TileCache::functionalAccess(const FunctionalReq &req)
{
    const FunctionalPath path{*this};
    OrientedLine line = req.line;
    std::uint64_t needed =
        accessWords(line, req.addr, req.isLine, req.wordMask);

    if (req.isWrite) {
        // Word-granular write-validate: no fetch is ever needed.
        StorageSlot entry = allocFrame(line.tile(), path);
        validateWords(entry, needed);
        _storage.touch(entry);
        return;
    }

    StorageSlot entry = find(line.tile());
    if (entry != kNoSlot &&
        (_storage.wordValid(entry) & needed) == needed) {
        _storage.touch(entry);
        return;
    }
    entry = allocFrame(line.tile(), path);
    path.fill(line, entry);
    _storage.touch(entry);
    if (_fill == TileFillPolicy::Dense)
        path.streamBlock(line, entry);
}

void
TileCache::functionalWriteback(const OrientedLine &line,
                               std::uint8_t mask)
{
    absorbWriteback(line, FunctionalPath{*this}, [&](StorageSlot slot) {
        validateWords(slot, tileMaskFor(line, mask));
    });
}

} // namespace mda
