// Minimal stand-ins so the LIF fixtures read like real call sites.
// The analyzer never compiles fixtures; they stay syntactically
// honest so they read like the code they stand in for.

#ifndef MDA_TESTS_LINT_FIXTURES_FAKE_PACKET_HH
#define MDA_TESTS_LINT_FIXTURES_FAKE_PACKET_HH

#include <cstdint>

struct Packet
{
    std::uint64_t addr = 0;
    std::uint64_t pc = 0;
};

struct PacketPtr
{
    Packet *get() const { return _p; }
    Packet *release()
    {
        Packet *p = _p;
        _p = nullptr;
        return p;
    }
    Packet *operator->() const { return _p; }
    Packet *_p = nullptr;
};

struct PacketPool
{
    void release(Packet *p);
};

#endif // MDA_TESTS_LINT_FIXTURES_FAKE_PACKET_HH
