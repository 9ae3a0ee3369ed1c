/**
 * @file
 * TileCache: the physically 2-D, logically 2-D (2P2L) sparse cache.
 *
 * Built on an on-chip MDA (crosspoint STT) array: the unit of
 * allocation is an 8x8-line 2-D block (512 B tile), but blocks fill
 * *sparsely* — one oriented line at a time, on demand — so the large
 * allocation unit does not force large transfers (paper Section IV,
 * "2P2L Sparse"). There is no data duplication and no orientation
 * metadata: a word is simply present or absent in the tile.
 *
 * Presence/dirtiness is tracked per word (a refinement of the paper's
 * 16 per-line valid bits, needed to absorb the partial writebacks the
 * 1P2L levels generate from per-word dirty bits). Writes validate
 * words directly — a writeback or store never forces a read fill, and
 * never-filled words elide writeback entirely: the paper's sparse
 * bandwidth advantages.
 *
 * Frames with in-flight fills are pinned (never chosen as victims) so
 * a fill can never resurrect stale data over newer evicted words.
 */

#ifndef MDA_CORE_TILE_CACHE_HH
#define MDA_CORE_TILE_CACHE_HH

#include <array>
#include <vector>

#include "cache/cache_base.hh"
#include "cache/storage.hh"
#include "sim/fastmod.hh"

namespace mda
{

/** Bit position of word (r, c) in a tile's 64-bit masks. */
constexpr unsigned
tileWordBit(unsigned row, unsigned col)
{
    return row * lineWords + col;
}

/** Bit position of word @p k of @p line in its tile's masks. */
inline unsigned
tileWordBit(const OrientedLine &line, unsigned k)
{
    return (line.orient == Orientation::Row)
               ? tileWordBit(line.index(), k)
               : tileWordBit(k, line.index());
}

/** 64-bit tile mask covered by @p word_mask of @p line. */
constexpr std::uint64_t
tileMaskFor(const OrientedLine &line, std::uint8_t word_mask)
{
    std::uint64_t mask = 0;
    for (unsigned k = 0; k < lineWords; ++k)
        if (word_mask & (1u << k))
            mask |= (1ULL << tileWordBit(line, k));
    return mask;
}

/** Fill policy of a 2P2L cache (paper Section IV-A taxonomy). */
enum class TileFillPolicy : std::uint8_t
{
    Sparse, ///< Fill one oriented line at a time, on demand.
    Dense,  ///< A miss streams the whole 2-D block ("all rows/columns
            ///  within the 2-D block will follow after the one
            ///  generating the initial miss").
};

/** Sparse or dense 2P2L cache level (the paper's Design 2 LLC). */
class TileCache : public CacheBase
{
  public:
    TileCache(const std::string &name, EventQueue &eq,
              stats::StatGroup &sg, const CacheConfig &config,
              TileFillPolicy fill = TileFillPolicy::Sparse);

    TileFillPolicy fillPolicy() const { return _fill; }

    /** Extra write latency for asymmetric on-chip NVM (Fig. 16). */
    void setWritePenalty(Cycles penalty) { _writePenalty = penalty; }
    Cycles writePenalty() const { return _writePenalty; }

    /** Frames (for tests). */
    std::uint64_t numSets() const { return _sets; }

    /** Presence-bit population (interval-stats occupancy gauge). */
    std::uint64_t presentWords() const { return _presentWords; }

    /** Set index of @p tile (hashed; exposed for tests). */
    std::uint64_t setFor(std::uint64_t tile) const;

    /** Structural invariants (mda_fuzz hook): presence/dirty masks
     *  zero on invalid frames, dirty bits only on present words,
     *  no duplicate frames for one tile, and the incremental
     *  presence-bit population equal to a full recount. */
    std::vector<std::string> checkInvariants() const override;

    /** Storage access for tests/fuzz corruption probes. */
    TileStorage &storage() { return _storage; }
    const TileStorage &storage() const { return _storage; }

    /** Sampled-simulation fast-forward: the timed handlers' state
     *  transitions, applied synchronously (see cache_base.hh for the
     *  deliberate differences); the presence gauge, which is state,
     *  stays in sync. Misses recurse into the level below. */
    void functionalAccess(const FunctionalReq &req) override;
    void functionalWriteback(const OrientedLine &line,
                             std::uint8_t mask) override;

  protected:
    void handleDemand(PacketPtr pkt) override;
    void handleWriteback(PacketPtr pkt) override;
    void handleFill(PacketPtr pkt) override;

  private:
    /** Slot of @p tile's frame, or kNoSlot. */
    StorageSlot find(std::uint64_t tile);

    // State transitions shared by the timed handlers and the
    // fast-forward entry points. A Path (TimedPath or FunctionalPath,
    // in tile_cache.cc) says where dirty words leaving this level go,
    // what a dense block stream does, and does its own accounting.
    struct TimedPath;
    struct FunctionalPath;

    /** Find-or-allocate the frame for @p tile, evicting an unpinned
     *  victim; kNoSlot when every way is pinned by in-flight fills. */
    template <class Path>
    StorageSlot allocFrame(std::uint64_t tile, Path path);

    /** Send the frame's dirty words down (per-row partial
     *  writebacks) and invalidate it. */
    template <class Path>
    void evictFrame(StorageSlot slot, Path path);

    /** Merge a writeback into its frame via @p write; the dense
     *  policy then streams in the rest of a block that held no words.
     *  False when no frame could be allocated (every way pinned). */
    template <class Path, class Write>
    bool absorbWriteback(const OrientedLine &line, Path path,
                         Write &&write);

    /** Validate @p line's absent words in @p slot, calling
     *  @p on_word(bit, k) for each (present words are newer). */
    template <class OnWord>
    void fillAbsent(StorageSlot slot, const OrientedLine &line,
                    OnWord &&on_word);

    /** Mark @p words of @p slot valid + dirty (write-validate, no
     *  fetch); returns how many were absent. */
    unsigned validateWords(StorageSlot slot, std::uint64_t words);

    void copyOut(StorageSlot slot, Packet &pkt);
    void performWrite(StorageSlot slot, const Packet &pkt);

    /** Keep the running presence-bit population in sync (trace
     *  counter + wordsPresent stat) across validate/fill/evict. */
    void notePresenceDelta(std::int64_t delta);

    std::uint64_t _sets;
    /** Reciprocal for the `% _sets` in setFor() (lookup hot path;
     *  tile-set counts need not be powers of two). */
    FastMod _setMod;
    TileFillPolicy _fill;
    TileStorage _storage;
    Cycles _writePenalty = 0;

    /** Valid (present) words across all frames, maintained
     *  incrementally for the presence-bit counter track. */
    std::uint64_t _presentWords = 0;

    stats::Scalar _denseBlockStreams;
    stats::Scalar _writeValidates;
    stats::Scalar _sparseLineFills;
    stats::Scalar _writebackBytesElided;
    stats::Scalar _frameEvictions;
    stats::Scalar _wordsPresent;
};

} // namespace mda

#endif // MDA_CORE_TILE_CACHE_HH
