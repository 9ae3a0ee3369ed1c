/** @file Unit tests for typed probe points (sim/probe.hh). */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/probe.hh"

namespace mda::probe
{
namespace
{

TEST(ProbePoint, FireDeliversToListenersInAttachOrder)
{
    ProbePoint<int> p;
    std::vector<std::string> order;
    p.attach([&order](const int &v) {
        order.push_back("first:" + std::to_string(v));
    });
    p.attach([&order](const int &v) {
        order.push_back("second:" + std::to_string(v));
    });
    p.fire(7);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "first:7");
    EXPECT_EQ(order[1], "second:7");
}

TEST(ProbePoint, ListeningTracksAttachDetach)
{
    ProbePoint<int> p;
    EXPECT_FALSE(p.listening());
    EXPECT_EQ(p.listenerCount(), 0u);
    auto a = p.attach([](const int &) {});
    auto b = p.attach([](const int &) {});
    EXPECT_TRUE(p.listening());
    EXPECT_EQ(p.listenerCount(), 2u);
    p.detach(a);
    EXPECT_EQ(p.listenerCount(), 1u);
    p.detach(a); // second detach of the same id is a no-op
    EXPECT_EQ(p.listenerCount(), 1u);
    p.detach(b);
    EXPECT_FALSE(p.listening());
}

TEST(ProbePoint, DetachAllDropsEveryListener)
{
    ProbePoint<int> p;
    int fires = 0;
    p.attach([&fires](const int &) { ++fires; });
    p.attach([&fires](const int &) { ++fires; });
    p.detachAll();
    EXPECT_FALSE(p.listening());
    p.fire(1);
    EXPECT_EQ(fires, 0);
}

TEST(ProbePoint, MacroSkipsArgumentEvaluationWithNoListeners)
{
    // The zero-listener contract: with no listeners the payload
    // expression must never run (instrumented hot paths stay free).
    ProbePoint<int> p;
    int evaluations = 0;
    auto payload = [&evaluations]() {
        ++evaluations;
        return 42;
    };
    MDA_PROBE(p, payload());
    EXPECT_EQ(evaluations, 0);

    int seen = 0;
    auto id = p.attach([&seen](const int &v) { seen = v; });
    MDA_PROBE(p, payload());
    EXPECT_EQ(evaluations, 1);
    EXPECT_EQ(seen, 42);
    p.detach(id);
    MDA_PROBE(p, payload());
    EXPECT_EQ(evaluations, 1);
}

TEST(ProbeManager, RegisterFindAndNames)
{
    ProbeManager pm;
    ProbePoint<int> a;
    ProbePoint<PacketEvent> b;
    pm.reg("l1.accepted", &a);
    pm.reg("l1.responded", &b);
    EXPECT_EQ(pm.size(), 2u);
    EXPECT_EQ(pm.find("l1.accepted"), &a);
    EXPECT_EQ(pm.find("l1.nope"), nullptr);
    auto names = pm.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "l1.accepted"); // sorted (map order)
    EXPECT_EQ(names[1], "l1.responded");
}

TEST(ProbeManager, FindTypedChecksSignature)
{
    ProbeManager pm;
    ProbePoint<PacketEvent> p;
    pm.reg("mem.responded", &p);
    EXPECT_EQ(pm.findTyped<PacketEvent>("mem.responded"), &p);
    // Wrong signature or unknown name: nullptr, never a bad cast.
    EXPECT_EQ(pm.findTyped<int>("mem.responded"), nullptr);
    EXPECT_EQ(pm.findTyped<PacketEvent>("mem.accepted"), nullptr);
}

TEST(ProbeListener, RaiiDetachesOnDestruction)
{
    ProbePoint<int> p;
    {
        ProbeListener l(p, [](const int &) {});
        EXPECT_TRUE(l.attached());
        EXPECT_TRUE(p.listening());
    }
    EXPECT_FALSE(p.listening());
}

TEST(ProbeListener, ReleaseIsIdempotentAndMoveTransfers)
{
    ProbePoint<int> p;
    ProbeListener l(p, [](const int &) {});
    ProbeListener moved(std::move(l));
    EXPECT_FALSE(l.attached());
    EXPECT_TRUE(moved.attached());
    EXPECT_EQ(p.listenerCount(), 1u);

    moved.release();
    EXPECT_FALSE(moved.attached());
    EXPECT_FALSE(p.listening());
    moved.release(); // idempotent
    EXPECT_FALSE(p.listening());

    ProbeListener assigned;
    assigned = ProbeListener(p, [](const int &) {});
    EXPECT_TRUE(assigned.attached());
    EXPECT_EQ(p.listenerCount(), 1u);
}

TEST(ProbeDeathTest, DuplicateNamePanics)
{
    ProbeManager pm;
    ProbePoint<int> a, b;
    pm.reg("cpu.issued", &a);
    EXPECT_DEATH(pm.reg("cpu.issued", &b), "duplicate");
}

} // namespace
} // namespace mda::probe
