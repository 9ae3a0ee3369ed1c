/** @file Unit tests for the Chrome trace-event JSON emitter. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "../support/test_json.hh"
#include "sim/trace_event.hh"

namespace mda::trace
{
namespace
{

std::string
emitted(const EventLog &log)
{
    std::ostringstream os;
    writeJson(os, {&log});
    return os.str();
}

TEST(TraceEvent, EmitsValidJsonWithRequiredFields)
{
    EventLog log;
    log.asyncBegin("l1", "ReadReq", 7, 12);
    log.asyncEnd("l1", "ReadReq", 7, 30);
    log.complete("mem", "activate", 15, 40);
    log.instant("l1", "hit", 16);
    log.counter("l1", "mshrOccupancy", 17, 3.0);

    auto root = testjson::parse(emitted(log));
    ASSERT_TRUE(root->isArray());
    ASSERT_GE(root->array.size(), 5u);
    for (const auto &ev : root->array) {
        ASSERT_TRUE(ev->isObject());
        EXPECT_TRUE(ev->at("name").isString());
        EXPECT_TRUE(ev->at("ph").isString());
        EXPECT_TRUE(ev->at("ts").isNumber());
        EXPECT_DOUBLE_EQ(ev->at("pid").number, 1.0);
        EXPECT_TRUE(ev->at("tid").isNumber());
    }
}

TEST(TraceEvent, PhaseSpecificFields)
{
    EventLog log;
    log.complete("mem", "activate", 15, 40);
    log.asyncBegin("l1", "ReadReq", 7, 12);
    log.instant("l1", "hit", 16);
    log.counter("l1", "mshrOccupancy", 17, 3.0);

    auto root = testjson::parse(emitted(log));
    bool saw_x = false, saw_b = false, saw_i = false, saw_c = false;
    for (const auto &ev : root->array) {
        const std::string &ph = ev->at("ph").string;
        if (ph == "X") {
            EXPECT_DOUBLE_EQ(ev->at("dur").number, 40.0);
            saw_x = true;
        } else if (ph == "b") {
            EXPECT_DOUBLE_EQ(ev->at("id").number, 7.0);
            saw_b = true;
        } else if (ph == "i") {
            EXPECT_EQ(ev->at("s").string, "t");
            saw_i = true;
        } else if (ph == "C") {
            EXPECT_DOUBLE_EQ(ev->at("args").at("value").number, 3.0);
            saw_c = true;
        }
    }
    EXPECT_TRUE(saw_x);
    EXPECT_TRUE(saw_b);
    EXPECT_TRUE(saw_i);
    EXPECT_TRUE(saw_c);
}

TEST(TraceEvent, BufferBoundIsHonored)
{
    EventLog log(4);
    for (int i = 0; i < 10; ++i)
        log.instant("l1", "hit", static_cast<Tick>(i));
    EXPECT_EQ(log.size(), 4u);
    EXPECT_EQ(log.dropped(), 6u);

    // Drops still leave a parseable file: 4 instants + metadata.
    auto root = testjson::parse(emitted(log));
    std::size_t instants = 0;
    for (const auto &ev : root->array)
        instants += (ev->at("ph").string == "i");
    EXPECT_EQ(instants, 4u);
}

TEST(TraceEvent, MetadataNamesEveryTrack)
{
    EventLog log;
    log.instant("l1", "hit", 1);
    log.instant("mem", "activate", 2);

    auto root = testjson::parse(emitted(log));
    std::map<std::string, double> track_tids;
    std::map<double, std::size_t> used_tids;
    for (const auto &ev : root->array) {
        if (ev->at("ph").string == "M") {
            EXPECT_EQ(ev->at("name").string, "thread_name");
            track_tids[ev->at("args").at("name").string] =
                ev->at("tid").number;
        } else {
            ++used_tids[ev->at("tid").number];
        }
    }
    ASSERT_EQ(track_tids.size(), 2u);
    EXPECT_TRUE(track_tids.count("l1"));
    EXPECT_TRUE(track_tids.count("mem"));
    for (const auto &[tid, count] : used_tids)
        EXPECT_NE(track_tids.end(),
                  std::find_if(track_tids.begin(), track_tids.end(),
                               [tid = tid](const auto &kv) {
                                   return kv.second == tid;
                               }))
            << "events on unnamed tid " << tid;
}

TEST(TraceEvent, EachLogIsItsOwnProcess)
{
    EventLog first, second;
    first.instant("l1", "hit", 1);
    second.instant("l1", "miss", 2);
    second.instant("mem", "activate", 3);

    std::ostringstream os;
    writeJson(os, {&first, &second});
    auto root = testjson::parse(os.str());
    std::map<std::string, double> pid_of;
    std::map<double, std::size_t> tracks_of;
    for (const auto &ev : root->array) {
        if (ev->at("ph").string == "M")
            ++tracks_of[ev->at("pid").number];
        else
            pid_of[ev->at("name").string] = ev->at("pid").number;
    }
    EXPECT_DOUBLE_EQ(pid_of["hit"], 1.0);
    EXPECT_DOUBLE_EQ(pid_of["miss"], 2.0);
    EXPECT_DOUBLE_EQ(pid_of["activate"], 2.0);
    // Track ids are per process: each names its own lanes.
    EXPECT_EQ(tracks_of[1.0], 1u);
    EXPECT_EQ(tracks_of[2.0], 2u);

    // A single log is process 1, whatever else was written before.
    EXPECT_NE(emitted(second).find(R"("pid":1)"), std::string::npos);
    EXPECT_EQ(emitted(second).find(R"("pid":2)"), std::string::npos);
}

} // namespace
} // namespace mda::trace
