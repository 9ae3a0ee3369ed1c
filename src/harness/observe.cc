#include "observe.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "sim/packet.hh"

namespace mda::observe
{

bool
addDebugFlags(const std::string &csv, DebugFlags &flags)
{
    bool all_known = true;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (item.empty())
            continue;
        if (item == "All") {
            flags |= (DebugFlags{1} << numDebugFlags) - 1;
            continue;
        }
        auto it = std::find_if(
            debugFlagInfo.begin(), debugFlagInfo.end(),
            [&](const DebugFlagInfo &info) { return item == info.name; });
        if (it == debugFlagInfo.end()) {
            warn("unknown debug flag: %s (known: see --list-debug-flags)",
                 item.c_str());
            all_known = false;
            continue;
        }
        flags |= DebugFlags{1} << (it - debugFlagInfo.begin());
    }
    return all_known;
}

DebugFlags
environmentDebugFlags()
{
    DebugFlags flags = 0;
    const char *env = std::getenv("MDA_DEBUG_FLAGS");
    if (env && *env)
        addDebugFlags(env, flags);
    return flags;
}

namespace
{

/** "<component>.<point>" split at the first dot. */
std::pair<std::string, std::string>
splitName(const std::string &name)
{
    auto dot = name.find('.');
    return {name.substr(0, dot), name.substr(dot + 1)};
}

/** A packet point that prints a line: component ("" is any cache
 *  level), point, flag (a level's hit/miss use its own), verb. */
struct PacketLine
{
    const char *who;
    const char *point;
    DebugFlag flag;
    const char *verb;
};

constexpr PacketLine packetLines[] = {
    {"cpu", "issued", DebugFlag::TraceCpu, "issue"},
    {"cpu", "retired", DebugFlag::TraceCpu, "response"},
    {"mem", "accepted", DebugFlag::MDAMem, "enqueue"},
    {"", "accepted", DebugFlag::Cache, "accept"},
    {"", "fillRecv", DebugFlag::Cache, "fill"},
    {"", "hit", DebugFlag::Cache, "hit"},
    {"", "miss", DebugFlag::Cache, "miss"},
    {"", "deferred", DebugFlag::MSHR, "defer"},
    {"", "mshrQueued", DebugFlag::MSHR, "queue"},
    {"", "mshrRetire", DebugFlag::MSHR, "retire"},
};

} // namespace

// ---- DebugPrinter ----------------------------------------------------

DebugPrinter::DebugPrinter(probe::ProbeManager &pm, DebugFlags flags,
                           std::ostream *out,
                           const std::vector<std::string> &tile_levels)
    : _flags(flags), _out(out ? *out : std::cerr)
{
    using probe::PacketEvent;
    using F = DebugFlag;

    for (const std::string &name : pm.names()) {
        const auto [who, point] = splitName(name);
        const bool tile = std::find(tile_levels.begin(), tile_levels.end(),
                                    who) != tile_levels.end();
        const F level = tile ? F::TileCache : F::Cache;

        if (auto *p = pm.findTyped<PacketEvent>(name)) {
            // "<verb> <cmd> <line|word> <addr> (<orient>) id <id>",
            // plus a point-specific tail.
            const std::string kind = who == "cpu" || who == "mem" ? who : "";
            const auto *line = std::find_if(
                std::begin(packetLines), std::end(packetLines),
                [&](const PacketLine &l) {
                    return kind == l.who && point == l.point;
                });
            if (line == std::end(packetLines))
                continue;
            const bool hit_miss = point == "hit" || point == "miss";
            const F flag = hit_miss ? level : line->flag;
            attach(*p, flag,
                   [this, who = who, point = point, tile, hit_miss, flag,
                    verb = line->verb](const PacketEvent &ev) {
                       const Packet &pkt = *ev.pkt;
                       std::string tail;
                       if (point == "retired") {
                           tail = " after " +
                                  std::to_string(ev.when - pkt.issueTick) +
                                  " cycles";
                       } else if (who == "mem") {
                           tail = pkt.cmd == MemCmd::Read ? " readQ"
                                                          : " writeQ";
                       } else if (tile && hit_miss) {
                           tail = " tile " + std::to_string(tileOf(pkt.addr));
                       }
                       print(ev.when, who, flag,
                             "%s %s %s %#llx (%s) id %llu%s", verb,
                             cmdName(pkt.cmd),
                             pkt.isLine() ? "line" : "word",
                             (unsigned long long)pkt.addr,
                             orientName(pkt.orient),
                             (unsigned long long)pkt.id, tail.c_str());
                   });
        } else if (auto *s = pm.findTyped<probe::SpanEvent>(name)) {
            attach(*s, F::MDAMem,
                   [this, who = who, point = point](
                       const probe::SpanEvent &ev) {
                       const Packet &pkt = *ev.pkt;
                       print(ev.when, who, F::MDAMem,
                             "issue %s %#llx (%s) id %llu: %s, %llu cycles",
                             cmdName(pkt.cmd), (unsigned long long)pkt.addr,
                             orientName(pkt.orient),
                             (unsigned long long)pkt.id, point.c_str(),
                             (unsigned long long)ev.duration);
                   });
        } else if (auto *q = pm.findTyped<probe::QueueEvent>(name)) {
            attach(*q, F::Event,
                   [this, who = who, execute = point == "execute"](
                       const probe::QueueEvent &ev) {
                       if (execute) {
                           print(ev.when, who, F::Event,
                                 "execute seq %llu prio %u",
                                 (unsigned long long)ev.seq, ev.prio);
                       } else {
                           print(ev.when, who, F::Event,
                                 "schedule seq %llu at %llu prio %u",
                                 (unsigned long long)ev.seq,
                                 (unsigned long long)ev.at, ev.prio);
                       }
                   });
        } else if (auto *e = pm.findTyped<probe::EvictEvent>(name)) {
            attach(*e, level,
                   [this, who = who, tile, level](
                       const probe::EvictEvent &ev) {
                       if (tile) {
                           print(ev.when, who, level,
                                 "evict frame tile %llu (%u words "
                                 "present, %u dirty)",
                                 (unsigned long long)tileOf(ev.addr),
                                 ev.presentWords, ev.dirtyWords);
                       } else {
                           print(ev.when, who, level,
                                 "evict %s line %#llx%s",
                                 orientName(ev.orient),
                                 (unsigned long long)ev.addr,
                                 ev.dirtyWords ? " (dirty)" : "");
                       }
                   });
        } else if (auto *d = pm.findTyped<probe::CrossingEvent>(name)) {
            attach(*d, F::Coherence,
                   [this, who = who](const probe::CrossingEvent &ev) {
                       print(ev.when, who, F::Coherence,
                             ev.dirtyWriteback
                                 ? "dup writeback: dirty crossing %s line "
                                   "%#llx for word %#llx"
                                 : "dup evict: crossing %s line %#llx "
                                   "copy of written word %#llx",
                             orientName(ev.cross.orient),
                             (unsigned long long)ev.cross.baseAddr(),
                             (unsigned long long)ev.word);
                   });
        }
    }
}

template <typename Payload, typename Fn>
void
DebugPrinter::attach(probe::ProbePoint<Payload> &point, DebugFlag flag,
                     Fn fn)
{
    if (_flags & flagBit(flag))
        _listeners.emplace_back(point, std::move(fn));
}

void
DebugPrinter::print(Tick when, const std::string &who, DebugFlag flag,
                    const char *fmt, ...)
{
    char body[512];
    std::va_list args;
    va_start(args, fmt);
    std::vsnprintf(body, sizeof(body), fmt, args);
    va_end(args);

    char line[640];
    int len = std::snprintf(
        line, sizeof(line), "%10llu: %s: [%s] %s\n",
        (unsigned long long)when, who.c_str(),
        debugFlagInfo[static_cast<unsigned>(flag)].name, body);
    if (len < 0)
        return;
    _out.write(line, std::min<std::size_t>(static_cast<std::size_t>(len),
                                           sizeof(line) - 1));
}

void
CellText::flush()
{
    for (const auto &buffer : _buffers)
        (_out ? *_out : std::cerr) << buffer.str();
}

// ---- TraceRecorder ---------------------------------------------------

TraceRecorder::TraceRecorder(probe::ProbeManager &pm,
                             std::size_t max_events)
    : _log(max_events)
{
    using probe::PacketEvent;

    for (const std::string &name : pm.names()) {
        const auto [who, point] = splitName(name);
        if (auto *p = pm.findTyped<PacketEvent>(name)) {
            // Packet lifetimes: from issue (CPU) or acceptance to the
            // response; writebacks have none, so they open no slice.
            if ((who == "cpu" && point == "issued") ||
                (who != "cpu" && point == "accepted")) {
                _listeners.emplace_back(
                    *p, [this, who = who](const PacketEvent &ev) {
                        if (ev.pkt->cmd != MemCmd::Writeback) {
                            _log.asyncBegin(who, cmdName(ev.pkt->cmd),
                                            ev.pkt->id, ev.when);
                        }
                    });
            } else if (point == "retired" || point == "responded") {
                _listeners.emplace_back(
                    *p, [this, who = who](const PacketEvent &ev) {
                        _log.asyncEnd(who, cmdName(ev.pkt->cmd),
                                      ev.pkt->id, ev.when + ev.delay);
                    });
            } else if (point == "hit" || point == "miss") {
                _listeners.emplace_back(
                    *p, [this, who = who, point = point](
                            const PacketEvent &ev) {
                        _log.instant(who, point, ev.when);
                    });
            }
        } else if (auto *c = pm.findTyped<probe::CounterEvent>(name)) {
            _listeners.emplace_back(
                *c, [this, who = who, point = point](
                        const probe::CounterEvent &ev) {
                    _log.counter(who, point, ev.when, ev.value);
                });
        } else if (auto *s = pm.findTyped<probe::SpanEvent>(name)) {
            _listeners.emplace_back(
                *s, [this, who = who, point = point](
                        const probe::SpanEvent &ev) {
                    _log.complete(who, point, ev.when, ev.duration);
                });
        } else if (auto *d = pm.findTyped<probe::CrossingEvent>(name)) {
            _listeners.emplace_back(
                *d, [this, who = who](const probe::CrossingEvent &ev) {
                    if (ev.dirtyWriteback) {
                        _log.counter(who, "dupWritebacks", ev.when,
                                     ++_dupWritebacks[who]);
                    }
                });
        }
    }
}

} // namespace mda::observe
