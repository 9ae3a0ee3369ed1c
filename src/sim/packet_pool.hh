/**
 * @file
 * Slab arena + free list recycling Packet storage.
 *
 * Every transaction used to heap-allocate a ~200-byte Packet (64 of
 * those bytes a zero-initialized payload) and free it when the
 * response was consumed. A PacketPool instead hands packets out of
 * fixed slabs and recycles released storage through a LIFO free list,
 * so steady-state simulation does not touch the allocator at all.
 *
 * Determinism: the free list is ordered purely by *release order*,
 * which is itself fully determined by the event sequence — never by
 * packet addresses, which vary run to run (ASLR, allocator state).
 * Recycled packets are re-constructed in place, so a reused packet is
 * indistinguishable from a heap-fresh one (zeroed payload, fresh id)
 * and pooling on/off cannot change simulated behavior. Ids come from
 * the pool's own counter, so a System's packets are numbered 1, 2,
 * ... in allocation order whatever runs beside it.
 *
 * Pools are per-System and single-threaded, like the EventQueue; a
 * parallel sweep gives each simulation its own pool.
 */

#ifndef MDA_SIM_PACKET_POOL_HH
#define MDA_SIM_PACKET_POOL_HH

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "logging.hh"
#include "packet.hh"

namespace mda
{

/** Recycling arena for Packet objects. See file comment. */
class PacketPool
{
  public:
    PacketPool() = default;
    PacketPool(const PacketPool &) = delete;
    PacketPool &operator=(const PacketPool &) = delete;

    /** Packets per slab: 64 packets ≈ 16 KiB per allocation. */
    static constexpr std::size_t slabPackets = 64;

    /**
     * Hand out a default-constructed packet owned by this pool.
     * Recycles the most recently released packet when one is
     * available; otherwise carves a new slot out of the newest slab.
     */
    PacketPtr
    alloc()
    {
        Packet *pkt;
        if (!_free.empty()) {
            pkt = _free.back();
            _free.pop_back();
            // Re-construct in place: zeroed payload, fresh id —
            // indistinguishable from a heap-fresh packet.
            pkt = ::new (static_cast<void *>(pkt)) Packet();
            ++_recycled;
        } else {
            if (_usedInSlab == slabPackets) {
                _slabs.push_back(std::make_unique<Slab>());
                _usedInSlab = 0;
            }
            void *slot = _slabs.back()->bytes +
                         _usedInSlab * sizeof(Packet);
            ++_usedInSlab;
            pkt = ::new (slot) Packet();
            ++_allocated;
        }
        pkt->pool = this;
        pkt->id = ++_lastId;
        return PacketPtr(pkt);
    }

    /**
     * Return @p pkt's storage to the free list. Called by the
     * PacketPtr deleter; not meant for direct use.
     */
    void
    release(Packet *pkt)
    {
        mda_assert(pkt->pool == this, "packet released to wrong pool");
        // No destructor call: Packet is trivially destructible (see
        // static_assert below); the slot is re-constructed on reuse.
        _free.push_back(pkt);
    }

    /** Slots handed out that were never pool-recycled. */
    std::uint64_t allocated() const { return _allocated; }

    /** Allocations served from the free list. */
    std::uint64_t recycled() const { return _recycled; }

    /** Packets currently parked on the free list. */
    std::size_t freeCount() const { return _free.size(); }

    /** Live slab memory in bytes (capacity, not live packets). */
    std::size_t
    slabBytes() const
    {
        return _slabs.size() * sizeof(Slab);
    }

  private:
    // Slab teardown drops raw storage without running per-packet
    // destructors, and release() skips the destructor call on
    // recycle; both require triviality.
    static_assert(std::is_trivially_destructible_v<Packet>,
                  "PacketPool relies on Packet being trivially "
                  "destructible");

    /** Raw storage for slabPackets packets; construction happens
     *  lazily, one placement-new per handed-out slot. */
    struct Slab
    {
        alignas(Packet) unsigned char
            bytes[slabPackets * sizeof(Packet)];
    };

    std::vector<std::unique_ptr<Slab>> _slabs;

    /** Slots consumed in the newest slab (== slabPackets when full or
     *  no slab exists yet). */
    std::size_t _usedInSlab = slabPackets;

    /** LIFO free list, ordered by simulation release order only —
     *  never by address (determinism; see file comment). */
    std::vector<Packet *> _free;

    std::uint64_t _allocated = 0;
    std::uint64_t _recycled = 0;
    std::uint64_t _lastId = 0;
};

} // namespace mda

#endif // MDA_SIM_PACKET_POOL_HH
