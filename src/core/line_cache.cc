#include "line_cache.hh"

#include <bit>
#include <cstring>
#include <map>

namespace mda
{

LineCache::LineCache(const std::string &obj_name, EventQueue &eq,
                     stats::StatGroup &sg, const CacheConfig &config,
                     LineMapping mapping)
    : CacheBase(obj_name, eq, sg, config),
      _mapping(mapping),
      _storage(config.numSets(), config.ways),
      _setMod(config.numSets()),
      _prefetcher(config.prefetchDegree)
{
    regScalar("dupWritebacks", &_dupWritebacks,
              "crossing-line dirty words written back (Fig. 9)");
    regScalar("dupEvictions", &_dupEvictions,
              "duplicate copies evicted on writes (Fig. 9)");
    regScalar("fullLineWriteAllocs", &_fullLineWriteAllocs,
              "full-line vector writes allocated without a fetch");
    regScalar("gatherHits", &_gatherHits,
              "line requests assembled from crossing lines");
}

std::uint64_t
LineCache::setFor(const OrientedLine &line) const
{
    // The baseline indexes conventionally (low line-address bits),
    // inheriting the classic pathology of power-of-two-strided walks:
    // a row-major matrix column maps to a few sets and thrashes. The
    // 2-D designs cannot index that way at all — under the tiled
    // layout consecutive lines of a logical row or column differ by 8
    // in line id, and narrow workloads (the HTAP fields) touch only a
    // thin band of tile columns — so they realize Fig. 8's composed
    // index as a hash of the tile ("index high") bits, spreading the
    // intra-tile index in Different-Set mode.
    if (_mapping == LineMapping::OneD)
        return _setMod.mod(line.id);
    std::uint64_t tile_hash =
        (line.tile() * 0x9e3779b97f4a7c15ULL) >> 24;
    if (_mapping == LineMapping::TwoDSameSet)
        return _setMod.mod(tile_hash);
    return _setMod.mod(tile_hash ^ (line.index() * 0x9e3779b9ULL));
}

StorageSlot
LineCache::lookup(const OrientedLine &line)
{
    return _storage.find(setFor(line), line);
}

std::vector<std::string>
LineCache::checkInvariants() const
{
    std::vector<std::string> violations;
    auto describe = [this](StorageSlot s) {
        OrientedLine l = _storage.line(s);
        return std::string(orientName(l.orient)) + " line id " +
               std::to_string(l.id);
    };

    // One sweep collects every valid slot, a copy count per covered
    // word, and the orientation occupancy tallies.
    // std::map, not unordered_map: this is a cold diagnostic path
    // and DET-2 keeps ordered iteration the default everywhere a
    // container could feed output.
    std::vector<StorageSlot> valid;
    std::map<Addr, unsigned> copies;
    std::uint64_t rows = 0, cols = 0;
    for (std::uint64_t set = 0; set < _storage.numSets(); ++set) {
        for (unsigned w = 0; w < _storage.ways(); ++w) {
            StorageSlot s = _storage.slotOf(set, w);
            if (!_storage.valid(s)) {
                if (_storage.dirtyMask(s) != 0) {
                    violations.push_back(
                        name() + ": invalid frame (set " +
                        std::to_string(set) + " way " +
                        std::to_string(w) + ") carries dirty mask " +
                        std::to_string(_storage.dirtyMask(s)));
                }
                continue;
            }
            OrientedLine line = _storage.line(s);
            for (StorageSlot other : valid) {
                if (_storage.line(other) == line) {
                    violations.push_back(
                        name() + ": duplicate entries for " +
                        describe(s));
                }
            }
            valid.push_back(s);
            (line.orient == Orientation::Col ? cols : rows) += 1;
            for (unsigned k = 0; k < lineWords; ++k)
                ++copies[line.wordAddr(k)];
        }
    }

    // Fig. 9: a write evicts every other copy of the written word and
    // a dirty word is written back (Modified -> Clean) before any
    // intersecting fill — so between events a dirty word must be the
    // only copy of that word in this cache.
    for (StorageSlot s : valid) {
        OrientedLine line = _storage.line(s);
        for (unsigned k = 0; k < lineWords; ++k) {
            if (!(_storage.dirtyMask(s) & (1u << k)))
                continue;
            if (copies[line.wordAddr(k)] > 1) {
                violations.push_back(
                    name() + ": dirty word " +
                    std::to_string(line.wordAddr(k)) + " of " +
                    describe(s) +
                    " has a second copy in an intersecting line");
            }
        }
    }

    if (rows != _storage.validRowLines() ||
        cols != _storage.validColLines()) {
        violations.push_back(
            name() + ": occupancy counters (" +
            std::to_string(_storage.validRowLines()) + " rows, " +
            std::to_string(_storage.validColLines()) +
            " cols) disagree with the frames (" +
            std::to_string(rows) + " rows, " + std::to_string(cols) +
            " cols)");
    }

    // SoA consistency against the debug shadow map (enabled by the
    // fuzz oracle; disabled — and free — in normal runs).
    for (const std::string &v : _storage.shadowViolations())
        violations.push_back(name() + ": " + v);
    return violations;
}

void
LineCache::writebackDirty(StorageSlot slot)
{
    std::uint8_t dirty = _storage.dirtyMask(slot);
    if (!dirty)
        return;
    OrientedLine line = _storage.line(slot);
    auto wb = Packet::makeWriteback(line, dirty, curTick(),
                                    packetPool());
    for (unsigned k = 0; k < lineWords; ++k)
        if (dirty & (1u << k))
            wb->setWord(k, _storage.word(slot, k));
    wb->wordMask = dirty;
    _storage.setDirtyMask(slot, 0);
    pushWriteback(std::move(wb));
}

void
LineCache::evict(StorageSlot slot)
{
    ++_evictions;
    MDA_PROBE(_probes.evict,
              probe::EvictEvent{
                  _storage.line(slot).baseAddr(),
                  _storage.line(slot).orient, lineWords,
                  static_cast<unsigned>(
                      std::popcount(_storage.dirtyMask(slot))),
                  curTick()});
    writebackDirty(slot);
    _storage.invalidate(slot);
}

void
LineCache::dupActions(StorageSlot slot, const OrientedLine &cross,
                      Addr word, bool written)
{
    if (_storage.dirty(slot)) {
        ++_dupWritebacks;
        MDA_PROBE(_probes.dupAction,
                  probe::CrossingEvent{word, cross, true, false,
                                       curTick()});
        writebackDirty(slot);
    }
    if (written) {
        ++_dupEvictions;
        MDA_PROBE(_probes.dupAction,
                  probe::CrossingEvent{word, cross, false, true,
                                       curTick()});
        _storage.invalidate(slot);
    }
}

unsigned
LineCache::prepareLine(const OrientedLine &line,
                       std::uint8_t covered_mask,
                       std::uint8_t written_mask)
{
    if (!is2D())
        return 0;
    Orientation cross_orient = flip(line.orient);
    // Every crossing line probed below belongs to the same tile as
    // @p line (a line's 8 words all sit in one 8x8 tile) and crosses
    // it at its own tile-local index, so word k's crossing line is
    // simply (cross_orient, tile << 3 | k). The tag-port occupancy
    // stat counts the probes the hardware would issue — one per
    // covered/written word — independent of how many actually find a
    // resident copy.
    std::uint8_t probe_mask = covered_mask | written_mask;
    unsigned probes =
        std::popcount(static_cast<unsigned>(probe_mask));
    _extraTagAccesses += probes;
    // When the occupancy table rules the (orientation, tile) pair
    // out, every probe would miss and the sweep is skipped entirely.
    if (!_storage.mayHoldTileLines(cross_orient, line.tile()))
        return probes;

    if (_mapping == LineMapping::TwoDSameSet) {
        // Same-Set: all 16 lines of the tile share one set, so one
        // sweep of the tag array yields the resident-crossing-line
        // mask, and the dup actions run on its intersection with the
        // probe mask.
        std::array<StorageSlot, lineWords> slots;
        std::uint8_t present = _storage.crossingMask(
            setFor(line), cross_orient, line.tile(), slots);
        std::uint8_t hits = present & probe_mask;
        while (hits) {
            unsigned k = static_cast<unsigned>(
                std::countr_zero(static_cast<unsigned>(hits)));
            hits &= static_cast<std::uint8_t>(hits - 1);
            OrientedLine cross(cross_orient, (line.tile() << 3) | k);
            dupActions(slots[k], cross, line.wordAddr(k),
                       (written_mask & (1u << k)) != 0);
        }
        return probes;
    }

    // Different-Set: each crossing line lives in its own set; probe
    // them word by word.
    for (unsigned k = 0; k < lineWords; ++k) {
        std::uint8_t bit = static_cast<std::uint8_t>(1u << k);
        if (!(probe_mask & bit))
            continue;
        OrientedLine cross(cross_orient, (line.tile() << 3) | k);
        StorageSlot slot = lookup(cross);
        if (slot == kNoSlot)
            continue;
        dupActions(slot, cross, line.wordAddr(k),
                   (written_mask & bit) != 0);
    }
    return probes;
}

void
LineCache::copyOut(StorageSlot slot, Packet &pkt)
{
    if (!pkt.isLine()) {
        unsigned idx = _storage.line(slot).wordIndexOf(pkt.addr);
        pkt.setWord(0, _storage.word(slot, idx));
        pkt.wordMask = 0x01;
        return;
    }
    mda_assert(_storage.line(slot) == pkt.line(),
               "line identity mismatch");
    if (pkt.wordMask == 0xff) {
        // Frame data and packet payload share the line-word byte
        // layout, so a full-mask read is one copy.
        std::memcpy(pkt.payload.data(), _storage.data(slot),
                    lineBytes);
        return;
    }
    for (unsigned k = 0; k < lineWords; ++k)
        if (pkt.wordMask & (1u << k))
            pkt.setWord(k, _storage.word(slot, k));
}

void
LineCache::performWrite(StorageSlot slot, const Packet &pkt)
{
    if (!pkt.isLine()) {
        unsigned idx = _storage.line(slot).wordIndexOf(pkt.addr);
        _storage.setWord(slot, idx, pkt.word(0), true);
        return;
    }
    mda_assert(_storage.line(slot) == pkt.line(),
               "line identity mismatch");
    if (pkt.wordMask == 0xff) {
        std::memcpy(_storage.data(slot), pkt.payload.data(),
                    lineBytes);
        _storage.setDirtyMask(slot, 0xff);
        return;
    }
    for (unsigned k = 0; k < lineWords; ++k)
        if (pkt.wordMask & (1u << k))
            _storage.setWord(slot, k, pkt.word(k), true);
}

void
LineCache::notePrefetchUse(StorageSlot slot)
{
    if (_storage.prefetched(slot)) {
        _storage.setPrefetched(slot, false);
        ++_prefetchesUseful;
    }
}

void
LineCache::train(const Packet &pkt)
{
    if (!_config.prefetch)
        return;
    const auto &candidates = _prefetcher.observe(pkt.pc, pkt.addr);
    for (Addr line_base : candidates) {
        OrientedLine line =
            OrientedLine::containing(line_base, Orientation::Row);
        if (lookup(line) == kNoSlot)
            issuePrefetch(line);
    }
}

void
LineCache::handleDemand(PacketPtr pkt)
{
    bool is_write = (pkt->cmd == MemCmd::Write);
    bool is_line = pkt->isLine();

    // The baseline has no column transfers: scalars lose their
    // preference annotation; oriented lines must never reach it.
    if (_mapping == LineMapping::OneD) {
        mda_assert(!is_line || pkt->orient == Orientation::Row,
                   "column line access reached a 1P1L cache");
        pkt->orient = Orientation::Row;
    }

    OrientedLine line = pkt->line();
    StorageSlot entry = lookup(line);
    bool mis_oriented = false;

    // Scalar accesses may be served by the crossing line: hit is
    // word presence, ignoring alignment (paper Section IV-B).
    if (entry == kNoSlot && !is_line && is2D()) {
        OrientedLine cross =
            OrientedLine::containing(pkt->addr, flip(pkt->orient));
        if (chargesProbes()) {
            ++_extraTagAccesses;
            pkt->extraLatency += _config.tagLatency;
        }
        entry = lookup(cross);
        mis_oriented = (entry != kNoSlot);
    }

    // Writes also check the other orientation, but stores drain from
    // a store buffer off the load critical path, so only the tag-port
    // occupancy is modeled (counted in extraTagAccesses), not added
    // response latency.
    train(*pkt);

    if (entry != kNoSlot) {
        // ---- hit ----
        ++_demandHits;
        if (is_line)
            ++_vectorHits;
        if (mis_oriented)
            ++_misOrientedHits;
        (is_write ? _writeHits : _readHits) += 1;
        notePrefetchUse(entry);
        _storage.touch(entry);
        if (is_write) {
            // Evict every other copy of the written words first.
            OrientedLine held = _storage.line(entry);
            std::uint8_t mask =
                is_line ? pkt->wordMask
                        : static_cast<std::uint8_t>(
                              1u << held.wordIndexOf(pkt->addr));
            prepareLine(held, 0, mask);
            performWrite(entry, *pkt);
        } else {
            copyOut(entry, *pkt);
        }
        Cycles delay = _config.hitLatency() + pkt->extraLatency;
        respondHit(std::move(pkt), delay);
        return;
    }

    // Gather-hit policy: a line read whose words all sit in crossing
    // lines can be assembled without going below (lower-level caches
    // only; costs 8 sequential tag+data accesses).
    if (_config.gatherHits && is2D() && is_line && !is_write &&
        pkt->cmd == MemCmd::Read) {
        std::array<StorageSlot, lineWords> sources{};
        bool complete = true;
        for (unsigned k = 0; k < lineWords && complete; ++k) {
            if (!(pkt->wordMask & (1u << k)))
                continue;
            OrientedLine cross = OrientedLine::containing(
                line.wordAddr(k), flip(line.orient));
            sources[k] = lookup(cross);
            complete = (sources[k] != kNoSlot);
        }
        _extraTagAccesses += lineWords;
        if (complete) {
            ++_gatherHits;
            ++_demandHits;
            ++_vectorHits;
            ++_readHits;
            for (unsigned k = 0; k < lineWords; ++k) {
                if (!(pkt->wordMask & (1u << k)))
                    continue;
                unsigned idx = _storage.line(sources[k])
                                   .wordIndexOf(line.wordAddr(k));
                pkt->setWord(k, _storage.word(sources[k], idx));
                _storage.touch(sources[k]);
            }
            Cycles delay = _config.hitLatency() +
                           lineWords * _config.tagLatency +
                           pkt->extraLatency;
            respondHit(std::move(pkt), delay);
            return;
        }
    }

    // ---- miss ----
    // Every deferral decision happens before the miss is counted so
    // deferred packets are counted exactly once, on final resolution.
    bool conflict = false;
    MshrEntry *inflight = _mshr.findWithConflict(line, conflict);
    if (!inflight && (conflict || _mshr.full())) {
        defer(std::move(pkt));
        return;
    }
    if (inflight && !_mshr.canTarget(*inflight)) {
        defer(std::move(pkt));
        return;
    }
    ++_demandMisses;
    if (is_line)
        ++_vectorMisses;
    (is_write ? _writeMisses : _readMisses) += 1;
    MDA_PROBE(_probes.miss, probe::PacketEvent{pkt.get(), curTick(), 0});

    // Coalesce onto an in-flight fill of the same line.
    if (inflight) {
        allocateMiss(std::move(pkt), line, inflight);
        return;
    }

    // SIMD misses probe the crossing lines for dirty words that must
    // be propagated down before the fill (Different-Set pays 8 tag
    // accesses; Same-Set sees them in the same set access).
    std::uint8_t written = is_write
                               ? (is_line ? pkt->wordMask
                                          : static_cast<std::uint8_t>(
                                                1u << line.wordIndexOf(
                                                    alignDown(
                                                        pkt->addr,
                                                        wordBytes))))
                               : 0;
    // The probes overlap the fill's round trip (they only have to
    // finish before the fill returns), so they cost tag-port
    // occupancy but no added miss latency.
    prepareLine(line, 0xff, written);

    // A full-line vector write needs no fetch: allocate and write.
    if (is_write && is_line && pkt->wordMask == 0xff) {
        ++_fullLineWriteAllocs;
        std::uint64_t set = setFor(line);
        StorageSlot victim = _storage.victim(set);
        if (_storage.valid(victim))
            evict(victim);
        _storage.install(victim, line);
        performWrite(victim, *pkt);
        Cycles delay = _config.hitLatency() + pkt->extraLatency;
        respond(std::move(pkt), delay);
        return;
    }

    allocateMiss(std::move(pkt), line, nullptr);
}

void
LineCache::handleWriteback(PacketPtr pkt)
{
    OrientedLine line = pkt->line();
    if (_mapping == LineMapping::OneD) {
        mda_assert(line.orient == Orientation::Row,
                   "column writeback reached a 1P1L cache");
    }

    // Order against any in-flight fill touching these words (an
    // entry for the line itself intersects it, so one scan covers
    // both cases).
    if (_mshr.overlaps(line)) {
        defer(std::move(pkt));
        return;
    }

    StorageSlot entry = lookup(line);
    if (entry != kNoSlot) {
        // Merge: the written words invalidate crossing duplicates.
        prepareLine(line, 0, pkt->wordMask);
        performWrite(entry, *pkt);
        _storage.touch(entry);
        return;
    }
    if (pkt->wordMask == 0xff) {
        // Full-line writeback allocates without a fetch.
        prepareLine(line, 0, 0xff);
        std::uint64_t set = setFor(line);
        StorageSlot victim = _storage.victim(set);
        if (_storage.valid(victim))
            evict(victim);
        _storage.install(victim, line);
        performWrite(victim, *pkt);
        return;
    }
    // Partial writeback with no local copy: purge stale duplicates of
    // the written words, then pass it down.
    prepareLine(line, 0, pkt->wordMask);
    pushWriteback(std::move(pkt));
}

// ---- functional (fast-forward) path ----------------------------------
//
// These mirrors replay the *state* effects of the timed handlers —
// replacement order, dirty masks, Fig. 9 duplicate coherence,
// prefetcher training — with no packets, MSHRs, latencies, or
// statistics, so sampled simulation can keep the hierarchy warm
// between measured windows. Fidelity notes:
//  - no payload moves (sampling forbids the data checker);
//  - prefetch candidates fill immediately instead of racing demand
//    traffic through the MSHR file — warmth, not timing, is modeled;
//  - a demand miss's post-fill duplicate sweep is skipped: with no
//    intervening events, the pre-fill sweep already covered it.

void
LineCache::functionalEvict(StorageSlot slot)
{
    std::uint8_t dirty = _storage.dirtyMask(slot);
    if (dirty) {
        OrientedLine line = _storage.line(slot);
        _storage.setDirtyMask(slot, 0);
        _downstream->functionalWriteback(line, dirty);
    }
    _storage.invalidate(slot);
}

void
LineCache::functionalDupSweep(const OrientedLine &line,
                              std::uint8_t covered_mask,
                              std::uint8_t written_mask)
{
    if (!is2D())
        return;
    Orientation cross_orient = flip(line.orient);
    std::uint8_t probe_mask = covered_mask | written_mask;
    if (!_storage.mayHoldTileLines(cross_orient, line.tile()))
        return;

    auto act = [&](StorageSlot slot, bool written) {
        std::uint8_t dirty = _storage.dirtyMask(slot);
        if (dirty) {
            OrientedLine held = _storage.line(slot);
            _storage.setDirtyMask(slot, 0);
            _downstream->functionalWriteback(held, dirty);
        }
        if (written)
            _storage.invalidate(slot);
    };

    if (_mapping == LineMapping::TwoDSameSet) {
        std::array<StorageSlot, lineWords> slots;
        std::uint8_t present = _storage.crossingMask(
            setFor(line), cross_orient, line.tile(), slots);
        std::uint8_t hits = present & probe_mask;
        while (hits) {
            unsigned k = static_cast<unsigned>(
                std::countr_zero(static_cast<unsigned>(hits)));
            hits &= static_cast<std::uint8_t>(hits - 1);
            act(slots[k], (written_mask & (1u << k)) != 0);
        }
        return;
    }
    for (unsigned k = 0; k < lineWords; ++k) {
        std::uint8_t bit = static_cast<std::uint8_t>(1u << k);
        if (!(probe_mask & bit))
            continue;
        OrientedLine cross(cross_orient, (line.tile() << 3) | k);
        StorageSlot slot = lookup(cross);
        if (slot != kNoSlot)
            act(slot, (written_mask & bit) != 0);
    }
}

StorageSlot
LineCache::functionalFill(const OrientedLine &line)
{
    FunctionalReq down;
    down.line = line;
    down.addr = line.baseAddr();
    down.wordMask = 0xff;
    down.isLine = true;
    _downstream->functionalAccess(down);
    StorageSlot victim =
        _storage.victimForInstall(setFor(line), line);
    if (_storage.valid(victim))
        functionalEvict(victim);
    _storage.install(victim, line);
    return victim;
}

void
LineCache::functionalAccess(const FunctionalReq &req)
{
    OrientedLine line = req.line;
    if (_mapping == LineMapping::OneD && !req.isLine)
        line = OrientedLine::containing(req.addr, Orientation::Row);

    StorageSlot entry = _storage.find(setFor(line), line);

    // Mis-oriented scalar service from the crossing line.
    if (entry == kNoSlot && !req.isLine && is2D()) {
        OrientedLine cross =
            OrientedLine::containing(req.addr, flip(line.orient));
        entry = lookup(cross);
    }

    std::uint8_t written =
        req.isWrite
            ? (req.isLine ? req.wordMask
                          : static_cast<std::uint8_t>(
                                1u << line.wordIndexOf(
                                    alignDown(req.addr, wordBytes))))
            : 0;

    if (entry != kNoSlot) {
        // ---- hit ----
        _storage.setPrefetched(entry, false);
        _storage.touch(entry);
        if (req.isWrite) {
            OrientedLine held = _storage.line(entry);
            std::uint8_t mask =
                req.isLine
                    ? req.wordMask
                    : static_cast<std::uint8_t>(
                          1u << held.wordIndexOf(req.addr));
            functionalDupSweep(held, 0, mask);
            _storage.setDirtyMask(
                entry, _storage.dirtyMask(entry) | mask);
        }
    } else if (_config.gatherHits && is2D() && req.isLine &&
               !req.isWrite && gatherTouch(line, req.wordMask)) {
        // Gather hit: served from crossing lines, nothing installed.
    } else {
        // ---- miss ----
        functionalDupSweep(line, 0xff, written);
        if (req.isWrite && req.isLine && req.wordMask == 0xff) {
            // Full-line vector write: allocate without a fetch.
            StorageSlot victim = _storage.victim(setFor(line));
            if (_storage.valid(victim))
                functionalEvict(victim);
            _storage.install(victim, line);
            _storage.setDirtyMask(victim, 0xff);
        } else {
            StorageSlot filled = functionalFill(line);
            if (written)
                _storage.setDirtyMask(filled, written);
        }
    }

    // Train last: the timed prefetch fills land only after the demand
    // access completes, so they must not steal this access's frame.
    if (_config.prefetch) {
        const auto &candidates = _prefetcher.observe(req.pc, req.addr);
        for (Addr line_base : candidates) {
            OrientedLine cand =
                OrientedLine::containing(line_base, Orientation::Row);
            if (lookup(cand) == kNoSlot)
                _storage.setPrefetched(functionalFill(cand), true);
        }
    }
}

bool
LineCache::gatherTouch(const OrientedLine &line, std::uint8_t mask)
{
    std::array<StorageSlot, lineWords> sources{};
    for (unsigned k = 0; k < lineWords; ++k) {
        if (!(mask & (1u << k)))
            continue;
        OrientedLine cross = OrientedLine::containing(
            line.wordAddr(k), flip(line.orient));
        sources[k] = lookup(cross);
        if (sources[k] == kNoSlot)
            return false;
    }
    for (unsigned k = 0; k < lineWords; ++k)
        if (mask & (1u << k))
            _storage.touch(sources[k]);
    return true;
}

void
LineCache::functionalWriteback(const OrientedLine &line,
                               std::uint8_t mask)
{
    StorageSlot entry = lookup(line);
    functionalDupSweep(line, 0, mask);
    if (entry != kNoSlot) {
        _storage.setDirtyMask(entry,
                              _storage.dirtyMask(entry) | mask);
        _storage.touch(entry);
        return;
    }
    if (mask == 0xff) {
        StorageSlot victim = _storage.victim(setFor(line));
        if (_storage.valid(victim))
            functionalEvict(victim);
        _storage.install(victim, line);
        _storage.setDirtyMask(victim, 0xff);
        return;
    }
    _downstream->functionalWriteback(line, mask);
}

void
LineCache::handleFill(PacketPtr pkt)
{
    OrientedLine line = pkt->line();
    mda_assert(pkt->wordMask == 0xff, "partial line fill");
    MshrEntry retired = _mshr.retire(line);
    noteMissLatency(retired);
    MDA_PROBE(_probes.mshrRetire,
              probe::PacketEvent{pkt.get(), curTick(), 0});
    auto targets = std::move(retired.targets);

    // One sweep picks the victim and asserts the line is absent.
    StorageSlot victim =
        _storage.victimForInstall(setFor(line), line);
    if (_storage.valid(victim))
        evict(victim);
    _storage.install(victim, line);
    // Fills are always full-mask (asserted above) and install clean
    // data: one copy replaces the word-by-word loop.
    std::memcpy(_storage.data(victim), pkt->payload.data(), lineBytes);
    _storage.setPrefetched(victim, pkt->isPrefetch && targets.empty());

    for (auto &target : targets) {
        if (target->cmd == MemCmd::Write) {
            std::uint8_t mask =
                target->isLine()
                    ? target->wordMask
                    : static_cast<std::uint8_t>(
                          1u << line.wordIndexOf(target->addr));
            prepareLine(line, 0, mask);
            performWrite(victim, *target);
        } else {
            copyOut(victim, *target);
        }
        Cycles delay = _config.dataLatency + target->extraLatency;
        respond(std::move(target), delay);
    }
    trySendQueues();
}

} // namespace mda
