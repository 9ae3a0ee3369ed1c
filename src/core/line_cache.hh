/**
 * @file
 * LineCache: physically 1-D caches — the 1P1L baseline and the
 * paper's logically 2-D (1P2L) designs.
 *
 * The mapping mode selects the design point:
 *
 *  - OneD: conventional cache. Only row lines exist; column-preference
 *    annotations are ignored (the baseline ISA has no column ops) and
 *    an optional stride prefetcher may be attached.
 *
 *  - TwoDDiffSet: 1P2L with Different-Set mapping (paper Fig. 8 top).
 *    Row and column lines index different sets; the preferred
 *    orientation is probed first and cross-orientation checks cost
 *    extra sequential tag accesses (+1 for scalars, +8 for SIMD and
 *    for writes' duplicate eviction probes).
 *
 *  - TwoDSameSet: 1P2L with Same-Set mapping: all 16 lines of a tile
 *    share a set, so one set access sees both orientations (no extra
 *    probe latency) at the cost of heavier conflict pressure.
 *
 * Both 2-D modes implement the writeback-based duplicate-coherence
 * policy of Fig. 9 with per-word dirty bits:
 *   - duplicates (a word present in intersecting row and column lines)
 *     may coexist while every copy is clean;
 *   - a write evicts every other copy of the written word (dirty
 *     crossing words are written back first);
 *   - before a fill is requested, dirty crossing words are written
 *     back (Modified -> Clean) so the fill observes them downstream.
 */

#ifndef MDA_CORE_LINE_CACHE_HH
#define MDA_CORE_LINE_CACHE_HH

#include "cache/cache_base.hh"
#include "cache/prefetcher.hh"
#include "cache/storage.hh"
#include "sim/fastmod.hh"

namespace mda
{

/** Set-mapping / dimensionality mode of a LineCache. */
enum class LineMapping : std::uint8_t
{
    OneD,        ///< Baseline 1P1L.
    TwoDDiffSet, ///< 1P2L, rows/columns in different sets.
    TwoDSameSet, ///< 1P2L, a tile's 16 lines share one set.
};

/** Printable mapping name. */
constexpr const char *
mappingName(LineMapping m)
{
    switch (m) {
      case LineMapping::OneD: return "1P1L";
      case LineMapping::TwoDDiffSet: return "1P2L";
      case LineMapping::TwoDSameSet: return "1P2L_SameSet";
    }
    return "?";
}

/** Physically 1-D cache level (baseline or logically 2-D). */
class LineCache : public CacheBase
{
  public:
    LineCache(const std::string &name, EventQueue &eq,
              stats::StatGroup &sg, const CacheConfig &config,
              LineMapping mapping);

    LineMapping mapping() const { return _mapping; }

    /** Storage access for occupancy probes and tests. */
    LineStorage &storage() { return _storage; }

    /** Set index of @p line under this cache's mapping mode. */
    std::uint64_t setFor(const OrientedLine &line) const;

    /** Structural invariants (mda_fuzz hook): dirty bits only on
     *  valid entries, a dirty word exclusive within this level (no
     *  second copy — clean or dirty — in an intersecting line, the
     *  Fig. 9 write-evicts-duplicates policy), no duplicate entries
     *  for one oriented line, and orientation occupancy counters
     *  consistent with the frames. */
    std::vector<std::string> checkInvariants() const override;

    /** Fraction of valid lines that are column-oriented (Fig. 15). */
    double
    colOccupancy() const
    {
        return static_cast<double>(_storage.validColLines()) /
               static_cast<double>(_config.numLines());
    }

    /** Sampled-simulation fast-forward: the timed handlers' state
     *  transitions, applied synchronously (see cache_base.hh for the
     *  deliberate differences). Misses recurse into the level below. */
    void functionalAccess(const FunctionalReq &req) override;
    void functionalWriteback(const OrientedLine &line,
                             std::uint8_t mask) override;

  protected:
    void handleDemand(PacketPtr pkt) override;
    void handleWriteback(PacketPtr pkt) override;
    void handleFill(PacketPtr pkt) override;

  private:
    bool is2D() const { return _mapping != LineMapping::OneD; }
    bool chargesProbes() const
    {
        return _mapping == LineMapping::TwoDDiffSet;
    }

    /** Slot of @p line, or kNoSlot. */
    StorageSlot lookup(const OrientedLine &line);

    // State transitions shared by the timed handlers and the
    // fast-forward entry points. A Path (TimedPath or FunctionalPath,
    // in line_cache.cc) says where dirty words leaving this level go
    // and does the caller's own accounting.
    struct TimedPath;
    struct FunctionalPath;

    /** Send @p slot's dirty words down (partial) and mark it clean. */
    template <class Path>
    void writebackDirty(StorageSlot slot, Path path);

    /** Evict @p line's victim (dirty words go down), install @p line. */
    template <class Path>
    StorageSlot allocate(const OrientedLine &line, Path path);

    /**
     * Prepare the cache for writing/filling the words of @p line:
     * for each covered word, write back a dirty crossing copy
     * (Modified -> Clean) and, for words in @p written_mask,
     * invalidate the crossing copy entirely (write to duplicate).
     */
    template <class Path>
    void prepareLine(const OrientedLine &line, std::uint8_t covered_mask,
                     std::uint8_t written_mask, Path path);

    /** Gather hit: if every word of @p mask sits in a crossing line,
     *  call @p on_word(k, source) and touch each source. */
    template <class OnWord>
    bool gather(const OrientedLine &line, std::uint8_t mask,
                OnWord &&on_word);

    /** Merge a writeback into a resident copy or a full-line
     *  allocation via @p write, after purging crossing duplicates;
     *  false when a partial one has no copy and must pass down. */
    template <class Path, class Write>
    bool absorbWriteback(const OrientedLine &line, std::uint8_t mask,
                         Path path, Write &&write);

    /** Train the stride prefetcher; @p issue each absent candidate. */
    template <class Issue>
    void train(Addr pc, Addr addr, Issue &&issue);

    /** Copy requested data out of @p slot into @p pkt's payload. */
    void copyOut(StorageSlot slot, Packet &pkt);

    /** Apply @p pkt's write data into @p slot (sets dirty bits). */
    void performWrite(StorageSlot slot, const Packet &pkt);

    LineMapping _mapping;
    LineStorage _storage;
    /** Reciprocal for the `% numSets` in setFor() — on the lookup
     *  hot path, and the set count need not be a power of two. */
    FastMod _setMod;
    StridePrefetcher _prefetcher;

    stats::Scalar _gatherHits;
    stats::Scalar _dupWritebacks;
    stats::Scalar _dupEvictions;
    stats::Scalar _fullLineWriteAllocs;
};

} // namespace mda

#endif // MDA_CORE_LINE_CACHE_HH
