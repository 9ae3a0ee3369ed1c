/** @file Unit + property tests for the Fig. 8 address decode. */

#include <gtest/gtest.h>

#include <set>

#include "mem/address_decode.hh"
#include "sim/random.hh"

namespace mda
{
namespace
{

MemTopologyParams
defaultTopo()
{
    return MemTopologyParams{};
}

TEST(AddressDecode, TileIsInterleaveUnit)
{
    AddressDecoder dec(defaultTopo());
    // Every word of one tile decodes to the same channel/rank/bank.
    Addr base = 42 * tileBytes;
    DecodedAddr first = dec.decode(base);
    for (unsigned off = 0; off < tileBytes; off += wordBytes) {
        DecodedAddr d = dec.decode(base + off);
        EXPECT_EQ(d.flatBank, first.flatBank);
        EXPECT_EQ(d.channel, first.channel);
    }
    // Adjacent tiles land in different banks (bank bits right above
    // the tile offset).
    DecodedAddr next = dec.decode(base + tileBytes);
    EXPECT_NE(next.flatBank, first.flatBank);
}

TEST(AddressDecode, ConsecutiveTilesSpreadAcrossBanks)
{
    MemTopologyParams topo = defaultTopo();
    AddressDecoder dec(topo);
    std::set<unsigned> banks;
    unsigned span = topo.banksPerRank * topo.ranksPerChannel *
                    topo.channels;
    for (unsigned t = 0; t < span; ++t)
        banks.insert(dec.decode(t * tileBytes).flatBank);
    EXPECT_EQ(banks.size(), span);
}

TEST(AddressDecode, RowLineSharesPhysRow)
{
    AddressDecoder dec(defaultTopo());
    OrientedLine row(Orientation::Row, (1234ull << 3) | 5);
    DecodedAddr first = dec.decode(row.wordAddr(0));
    for (unsigned w = 1; w < lineWords; ++w) {
        DecodedAddr d = dec.decode(row.wordAddr(w));
        EXPECT_EQ(d.physRow, first.physRow);
        EXPECT_EQ(d.flatBank, first.flatBank);
        EXPECT_EQ(d.physCol, first.physCol + w);
    }
}

TEST(AddressDecode, ColumnLineSharesPhysCol)
{
    AddressDecoder dec(defaultTopo());
    OrientedLine col(Orientation::Col, (1234ull << 3) | 5);
    DecodedAddr first = dec.decode(col.wordAddr(0));
    for (unsigned w = 1; w < lineWords; ++w) {
        DecodedAddr d = dec.decode(col.wordAddr(w));
        EXPECT_EQ(d.physCol, first.physCol);
        EXPECT_EQ(d.flatBank, first.flatBank);
        EXPECT_EQ(d.physRow, first.physRow + w);
    }
}

TEST(AddressDecode, BufferTagMatchesOrientation)
{
    AddressDecoder dec(defaultTopo());
    OrientedLine row(Orientation::Row, (77ull << 3) | 3);
    OrientedLine col(Orientation::Col, (77ull << 3) | 3);
    EXPECT_EQ(dec.bufferTag(row.baseAddr(), Orientation::Row),
              dec.decode(row.baseAddr()).physRow);
    EXPECT_EQ(dec.bufferTag(col.baseAddr(), Orientation::Col),
              dec.decode(col.baseAddr()).physCol);
}

/** Property: decode is injective per bank — distinct addresses in one
 *  bank never alias to the same (physRow, physCol). */
TEST(AddressDecode, PropertyNoCoordinateAliasing)
{
    AddressDecoder dec(defaultTopo());
    Rng rng(3);
    std::map<std::tuple<unsigned, std::uint64_t, std::uint64_t>, Addr>
        seen;
    for (int n = 0; n < 20000; ++n) {
        Addr a = alignDown(rng.next() & 0xffffffffULL, wordBytes);
        DecodedAddr d = dec.decode(a);
        auto key = std::make_tuple(d.flatBank, d.physRow, d.physCol);
        auto [it, inserted] = seen.emplace(key, a);
        if (!inserted) {
            EXPECT_EQ(it->second, a);
        }
    }
}

/** Property: streaming a large contiguous row-major region keeps
 *  revisiting few distinct physRows per bank (row-buffer locality). */
TEST(AddressDecode, RowStreamLocality)
{
    AddressDecoder dec(defaultTopo());
    std::map<unsigned, std::set<std::uint64_t>> rows_per_bank;
    // Stream 1 MiB of consecutive row lines.
    for (Addr a = 0; a < (1u << 20); a += lineBytes)
        rows_per_bank[dec.decode(a).flatBank].insert(
            dec.decode(a).physRow);
    for (const auto &kv : rows_per_bank) {
        // 1 MiB = 2048 tiles over 32 banks = 64 tiles per bank; with
        // 64 tile-columns per row group, those collapse into a single
        // r_hi group of 8 physical rows.
        EXPECT_LE(kv.second.size(), 8u);
    }
}

TEST(AddressDecodeDeathTest, NonPowerOfTwoTopology)
{
    MemTopologyParams topo;
    topo.channels = 3;
    EXPECT_DEATH(AddressDecoder dec(topo), "powers of two");
}

} // namespace
} // namespace mda
