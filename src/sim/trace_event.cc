#include "trace_event.hh"

#include <cstdio>

#include "logging.hh"

namespace mda::trace
{

unsigned
EventLog::tidFor(const std::string &track)
{
    auto it = _tracks.find(track);
    if (it != _tracks.end())
        return it->second;
    auto tid = static_cast<unsigned>(_tracks.size() + 1);
    _tracks.emplace(track, tid);
    return tid;
}

bool
EventLog::record(Event ev)
{
    if (_events.size() >= _capacity) {
        ++_dropped;
        return false;
    }
    _events.push_back(std::move(ev));
    return true;
}

void
EventLog::asyncBegin(const std::string &track, const std::string &name,
                     std::uint64_t id, Tick ts)
{
    Event ev;
    ev.ph = 'b';
    ev.name = name;
    ev.tid = tidFor(track);
    ev.ts = ts;
    ev.id = id;
    record(std::move(ev));
}

void
EventLog::asyncEnd(const std::string &track, const std::string &name,
                   std::uint64_t id, Tick ts)
{
    Event ev;
    ev.ph = 'e';
    ev.name = name;
    ev.tid = tidFor(track);
    ev.ts = ts;
    ev.id = id;
    record(std::move(ev));
}

void
EventLog::complete(const std::string &track, const std::string &name,
                   Tick ts, Tick dur)
{
    Event ev;
    ev.ph = 'X';
    ev.name = name;
    ev.tid = tidFor(track);
    ev.ts = ts;
    ev.dur = dur;
    record(std::move(ev));
}

void
EventLog::instant(const std::string &track, const std::string &name,
                  Tick ts)
{
    Event ev;
    ev.ph = 'i';
    ev.name = name;
    ev.tid = tidFor(track);
    ev.ts = ts;
    record(std::move(ev));
}

void
EventLog::counter(const std::string &track, const std::string &name,
                  Tick ts, double value)
{
    Event ev;
    ev.ph = 'C';
    ev.name = name;
    ev.tid = tidFor(track);
    ev.ts = ts;
    ev.value = value;
    record(std::move(ev));
}

namespace
{

/** JSON string escaping (control chars, quotes, backslash). */
void
writeJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':  os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\r': os << "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

} // namespace

void
EventLog::writeEvents(std::ostream &os, unsigned pid, bool &first) const
{
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };

    // Track-name metadata so Perfetto labels each component lane.
    for (const auto &[track, tid] : _tracks) {
        sep();
        os << R"({"name":"thread_name","ph":"M","ts":0,"pid":)" << pid
           << R"(,"tid":)" << tid << R"(,"args":{"name":)";
        writeJsonString(os, track);
        os << "}}";
    }

    for (const auto &ev : _events) {
        sep();
        os << "{\"name\":";
        writeJsonString(os, ev.name);
        os << ",\"cat\":\"mda\",\"ph\":\"" << ev.ph
           << "\",\"ts\":" << ev.ts << ",\"pid\":" << pid
           << ",\"tid\":" << ev.tid;
        if (ev.ph == 'X')
            os << ",\"dur\":" << ev.dur;
        if (ev.ph == 'b' || ev.ph == 'e')
            os << ",\"id\":" << ev.id;
        if (ev.ph == 'i')
            os << ",\"s\":\"t\"";
        if (ev.ph == 'C')
            os << ",\"args\":{\"value\":" << ev.value << "}";
        os << "}";
    }
}

void
writeJson(std::ostream &os, const std::vector<const EventLog *> &logs)
{
    os << "[\n";
    bool first = true;
    for (std::size_t i = 0; i < logs.size(); ++i) {
        const EventLog &log = *logs[i];
        if (log.dropped() > 0) {
            warn("trace buffer bound (%zu events) reached in process "
                 "%zu; %llu events dropped",
                 log.capacity(), i + 1,
                 (unsigned long long)log.dropped());
        }
        log.writeEvents(os, static_cast<unsigned>(i + 1), first);
    }
    os << "\n]\n";
}

} // namespace mda::trace
