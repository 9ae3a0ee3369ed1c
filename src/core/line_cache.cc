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

namespace
{

/** Words of @p line a write covers: a line write's mask, or the one
 *  word of a scalar store to @p addr. */
std::uint8_t
writtenMask(const OrientedLine &line, Addr addr, bool is_line,
            std::uint8_t word_mask)
{
    return is_line ? word_mask
                   : static_cast<std::uint8_t>(
                         1u << line.wordIndexOf(addr));
}

} // namespace

// The timed handlers and the fast-forward entry points share every
// state transition below; each passes a Path saying where dirty words
// leaving this level go and doing its own accounting. Fast-forward's
// deliberate differences are listed in cache_base.hh.

struct LineCache::TimedPath
{
    LineCache &c;

    void
    spill(StorageSlot slot, const OrientedLine &line,
          std::uint8_t dirty) const
    {
        auto wb = Packet::makeWriteback(line, dirty, c.curTick(),
                                        c.packetPool());
        for (unsigned k = 0; k < lineWords; ++k)
            if (dirty & (1u << k))
                wb->setWord(k, c._storage.word(slot, k));
        wb->wordMask = dirty;
        c.pushWriteback(std::move(wb));
    }

    void
    noteEvict(StorageSlot slot) const
    {
        ++c._evictions;
        MDA_PROBE(c._probes.evict,
                  probe::EvictEvent{
                      c._storage.line(slot).baseAddr(),
                      c._storage.line(slot).orient, lineWords,
                      static_cast<unsigned>(
                          std::popcount(c._storage.dirtyMask(slot))),
                      c.curTick()});
    }

    void
    noteDup(Addr word, const OrientedLine &cross, bool writeback) const
    {
        ++(writeback ? c._dupWritebacks : c._dupEvictions);
        MDA_PROBE(c._probes.dupAction,
                  probe::CrossingEvent{word, cross, writeback,
                                       !writeback, c.curTick()});
    }

    void noteProbes(unsigned n) const { c._extraTagAccesses += n; }
};

struct LineCache::FunctionalPath
{
    LineCache &c;

    void
    spill(StorageSlot, const OrientedLine &line, std::uint8_t dirty) const
    {
        c._downstream->functionalWriteback(line, dirty);
    }

    void noteEvict(StorageSlot) const {}
    void noteDup(Addr, const OrientedLine &, bool) const {}
    void noteProbes(unsigned) const {}

    /** A miss: fetch @p line from below, then install it. */
    StorageSlot
    fill(const OrientedLine &line) const
    {
        c._downstream->functionalAccess(FunctionalReq::fill(line));
        return c.allocate(line, *this);
    }
};

template <class Path>
void
LineCache::writebackDirty(StorageSlot slot, Path path)
{
    std::uint8_t dirty = _storage.dirtyMask(slot);
    if (!dirty)
        return;
    _storage.setDirtyMask(slot, 0);
    path.spill(slot, _storage.line(slot), dirty);
}

template <class Path>
StorageSlot
LineCache::allocate(const OrientedLine &line, Path path)
{
    // One sweep picks the victim and asserts the line is absent.
    StorageSlot victim =
        _storage.victimForInstall(setFor(line), line);
    if (_storage.valid(victim)) {
        path.noteEvict(victim);
        writebackDirty(victim, path);
        _storage.invalidate(victim);
    }
    _storage.install(victim, line);
    return victim;
}

template <class Path>
void
LineCache::prepareLine(const OrientedLine &line,
                       std::uint8_t covered_mask,
                       std::uint8_t written_mask, Path path)
{
    if (!is2D())
        return;
    Orientation cross_orient = flip(line.orient);
    // Every crossing line probed below belongs to the same tile as
    // @p line (a line's 8 words all sit in one 8x8 tile) and crosses
    // it at its own tile-local index, so word k's crossing line is
    // simply (cross_orient, tile << 3 | k). The tag-port occupancy
    // stat counts the probes the hardware would issue — one per
    // covered/written word — independent of how many actually find a
    // resident copy.
    std::uint8_t probe_mask = covered_mask | written_mask;
    path.noteProbes(std::popcount(static_cast<unsigned>(probe_mask)));
    // When the occupancy table rules the (orientation, tile) pair
    // out, every probe would miss and the sweep is skipped entirely.
    if (!_storage.mayHoldTileLines(cross_orient, line.tile()))
        return;

    std::array<StorageSlot, lineWords> slots{};
    std::uint8_t present = 0;
    if (_mapping == LineMapping::TwoDSameSet) {
        // Same-Set: all 16 lines of the tile share one set, so one
        // sweep of the tag array yields the resident-crossing-line
        // mask.
        present = _storage.crossingMask(setFor(line), cross_orient,
                                        line.tile(), slots);
    } else {
        // Different-Set: each crossing line lives in its own set;
        // probe them word by word.
        for (unsigned k = 0; k < lineWords; ++k) {
            if (!(probe_mask & (1u << k)))
                continue;
            slots[k] = lookup(
                OrientedLine(cross_orient, (line.tile() << 3) | k));
            if (slots[k] != kNoSlot)
                present |= static_cast<std::uint8_t>(1u << k);
        }
    }

    // Fig. 9 dup actions on each resident probed copy: a dirty copy
    // is written back (Modified -> Clean); a written word's copy is
    // invalidated.
    std::uint8_t hits = present & probe_mask;
    while (hits) {
        unsigned k = static_cast<unsigned>(
            std::countr_zero(static_cast<unsigned>(hits)));
        hits &= static_cast<std::uint8_t>(hits - 1);
        OrientedLine cross(cross_orient, (line.tile() << 3) | k);
        if (_storage.dirty(slots[k])) {
            path.noteDup(line.wordAddr(k), cross, true);
            writebackDirty(slots[k], path);
        }
        if (written_mask & (1u << k)) {
            path.noteDup(line.wordAddr(k), cross, false);
            _storage.invalidate(slots[k]);
        }
    }
}

template <class OnWord>
bool
LineCache::gather(const OrientedLine &line, std::uint8_t mask,
                  OnWord &&on_word)
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
    for (unsigned k = 0; k < lineWords; ++k) {
        if (!(mask & (1u << k)))
            continue;
        on_word(k, sources[k]);
        _storage.touch(sources[k]);
    }
    return true;
}

template <class Path, class Write>
bool
LineCache::absorbWriteback(const OrientedLine &line, std::uint8_t mask,
                           Path path, Write &&write)
{
    StorageSlot entry = lookup(line);
    // The written words invalidate crossing duplicates first.
    prepareLine(line, 0, mask, path);
    if (entry != kNoSlot) {
        write(entry);
        _storage.touch(entry);
        return true;
    }
    if (mask == 0xff) {
        // Full-line writeback allocates without a fetch.
        write(allocate(line, path));
        return true;
    }
    return false;
}

template <class Issue>
void
LineCache::train(Addr pc, Addr addr, Issue &&issue)
{
    if (!_config.prefetch)
        return;
    for (Addr line_base : _prefetcher.observe(pc, addr)) {
        OrientedLine line =
            OrientedLine::containing(line_base, Orientation::Row);
        if (lookup(line) == kNoSlot)
            issue(line);
    }
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
LineCache::handleDemand(PacketPtr pkt)
{
    const TimedPath timed{*this};
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
    train(pkt->pc, pkt->addr,
          [this](const OrientedLine &cand) { issuePrefetch(cand); });

    if (entry != kNoSlot) {
        // ---- hit ----
        ++_demandHits;
        if (is_line)
            ++_vectorHits;
        if (mis_oriented)
            ++_misOrientedHits;
        (is_write ? _writeHits : _readHits) += 1;
        if (_storage.prefetched(entry)) {
            _storage.setPrefetched(entry, false);
            ++_prefetchesUseful;
        }
        _storage.touch(entry);
        if (is_write) {
            // Evict every other copy of the written words first.
            OrientedLine held = _storage.line(entry);
            prepareLine(held, 0,
                        writtenMask(held, pkt->addr, is_line,
                                    pkt->wordMask),
                        timed);
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
    if (_config.gatherHits && is2D() && is_line &&
        pkt->cmd == MemCmd::Read) {
        _extraTagAccesses += lineWords;
        auto copy_word = [&](unsigned k, StorageSlot src) {
            unsigned idx =
                _storage.line(src).wordIndexOf(line.wordAddr(k));
            pkt->setWord(k, _storage.word(src, idx));
        };
        if (gather(line, pkt->wordMask, copy_word)) {
            ++_gatherHits;
            ++_demandHits;
            ++_vectorHits;
            ++_readHits;
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
    // accesses; Same-Set sees them in the same set access). The
    // probes overlap the fill's round trip (they only have to finish
    // before the fill returns), so they cost tag-port occupancy but
    // no added miss latency.
    prepareLine(line, 0xff,
                is_write ? writtenMask(line, pkt->addr, is_line,
                                       pkt->wordMask)
                         : 0,
                timed);

    // A full-line vector write needs no fetch: allocate and write.
    if (is_write && is_line && pkt->wordMask == 0xff) {
        ++_fullLineWriteAllocs;
        performWrite(allocate(line, timed), *pkt);
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

    // A partial writeback with no local copy passes down.
    if (!absorbWriteback(
            line, pkt->wordMask, TimedPath{*this},
            [&](StorageSlot slot) { performWrite(slot, *pkt); }))
        pushWriteback(std::move(pkt));
}

void
LineCache::handleFill(PacketPtr pkt)
{
    const TimedPath timed{*this};
    OrientedLine line = pkt->line();
    mda_assert(pkt->wordMask == 0xff, "partial line fill");
    MshrEntry retired = _mshr.retire(line);
    noteMissLatency(retired);
    MDA_PROBE(_probes.mshrRetire,
              probe::PacketEvent{pkt.get(), curTick(), 0});
    auto targets = std::move(retired.targets);

    StorageSlot victim = allocate(line, timed);
    // Fills are always full-mask (asserted above) and install clean
    // data: one copy replaces the word-by-word loop.
    std::memcpy(_storage.data(victim), pkt->payload.data(), lineBytes);
    _storage.setPrefetched(victim, pkt->isPrefetch && targets.empty());

    for (auto &target : targets) {
        if (target->cmd == MemCmd::Write) {
            prepareLine(line, 0,
                        writtenMask(line, target->addr,
                                    target->isLine(),
                                    target->wordMask),
                        timed);
            performWrite(victim, *target);
        } else {
            copyOut(victim, *target);
        }
        Cycles delay = _config.dataLatency + target->extraLatency;
        respond(std::move(target), delay);
    }
    trySendQueues();
}

void
LineCache::functionalAccess(const FunctionalReq &req)
{
    const FunctionalPath path{*this};
    OrientedLine line = req.line;
    if (_mapping == LineMapping::OneD && !req.isLine)
        line = OrientedLine::containing(req.addr, Orientation::Row);

    StorageSlot entry = lookup(line);

    // Mis-oriented scalar service from the crossing line.
    if (entry == kNoSlot && !req.isLine && is2D()) {
        OrientedLine cross =
            OrientedLine::containing(req.addr, flip(line.orient));
        entry = lookup(cross);
    }

    if (entry != kNoSlot) {
        // ---- hit ----
        _storage.setPrefetched(entry, false);
        _storage.touch(entry);
        if (req.isWrite) {
            OrientedLine held = _storage.line(entry);
            std::uint8_t mask =
                writtenMask(held, req.addr, req.isLine, req.wordMask);
            prepareLine(held, 0, mask, path);
            _storage.orDirtyMask(entry, mask);
        }
    } else if (!(_config.gatherHits && is2D() && req.isLine &&
                 !req.isWrite &&
                 gather(line, req.wordMask,
                        [](unsigned, StorageSlot) {}))) {
        // ---- miss (a gather hit installs nothing) ----
        std::uint8_t written =
            req.isWrite
                ? writtenMask(line, req.addr, req.isLine, req.wordMask)
                : 0;
        prepareLine(line, 0xff, written, path);
        // A full-line vector write allocates without a fetch.
        StorageSlot slot =
            req.isWrite && req.isLine && req.wordMask == 0xff
                ? allocate(line, path)
                : path.fill(line);
        _storage.orDirtyMask(slot, written);
    }

    // Train last: the timed prefetch fills land only after the demand
    // access completes, so they must not steal this access's frame.
    train(req.pc, req.addr, [&](const OrientedLine &cand) {
        _storage.setPrefetched(path.fill(cand), true);
    });
}

void
LineCache::functionalWriteback(const OrientedLine &line,
                               std::uint8_t mask)
{
    if (!absorbWriteback(line, mask, FunctionalPath{*this},
                         [&](StorageSlot slot) {
                             _storage.orDirtyMask(slot, mask);
                         }))
        _downstream->functionalWriteback(line, mask);
}

} // namespace mda
