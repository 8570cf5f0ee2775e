/**
 * @file
 * Unit tests for obs::TraceSession: recording, scope/ordering
 * invariants, and the Chrome trace-event export (which must
 * strict-parse with the harness JSON reader).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "harness/json.hh"
#include "obs/trace.hh"

using namespace hpim;
using obs::EventKind;
using obs::TraceEvent;
using obs::TraceSession;

TEST(ObsTrace, NoSessionAttachedByDefault)
{
    EXPECT_EQ(TraceSession::current(), nullptr);
    EXPECT_EQ(TraceSession::currentScope(), 0u);
}

TEST(ObsTrace, AttachDetachInstallTheGlobal)
{
    TraceSession session;
    session.attach();
    EXPECT_EQ(TraceSession::current(), &session);
    session.detach();
    EXPECT_EQ(TraceSession::current(), nullptr);
}

TEST(ObsTrace, DetachOnDestructionReleasesTheSlot)
{
    {
        TraceSession session;
        session.attach();
    }
    EXPECT_EQ(TraceSession::current(), nullptr);
    TraceSession next; // a successor can attach again
    next.attach();
    EXPECT_EQ(TraceSession::current(), &next);
}

TEST(ObsTrace, RecordsSpansInstantsAndCounters)
{
    TraceSession session;
    auto cpu = session.track("cpu");
    session.span(cpu, "conv1", 0.001, 0.002,
                 {{"energy_j", 0.5}, {"op", std::string("conv1")}});
    session.instant(cpu, "fault", 0.003, {{"attempt", std::int64_t{1}}});
    session.counter(cpu, "capacity", 0.004, 42.0);

    auto events = session.sortedEvents();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, EventKind::Span);
    EXPECT_EQ(events[0].name, "conv1");
    EXPECT_EQ(events[0].tsSec, 0.001);
    EXPECT_EQ(events[0].durSec, 0.002);
    EXPECT_EQ(events[1].kind, EventKind::Instant);
    EXPECT_EQ(events[2].kind, EventKind::Counter);
    EXPECT_EQ(events[2].value, 42.0);
}

TEST(ObsTrace, SeqReproducesProgramOrderWithinAScope)
{
    TraceSession session;
    auto t = session.track("t");
    for (int i = 0; i < 100; ++i)
        session.instant(t, "e" + std::to_string(i), double(i));
    auto events = session.sortedEvents();
    ASSERT_EQ(events.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(events[i].name, "e" + std::to_string(i));
}

TEST(ObsTrace, ScopeGuardTagsAndRestores)
{
    TraceSession session;
    auto t = session.track("sweep");
    session.instant(t, "outside", 0.0);
    {
        TraceSession::Scope scope(7);
        EXPECT_EQ(TraceSession::currentScope(), 7u);
        session.instant(t, "inside", 0.0);
        {
            TraceSession::Scope nested(9);
            EXPECT_EQ(TraceSession::currentScope(), 9u);
            session.instant(t, "nested", 0.0);
        }
        EXPECT_EQ(TraceSession::currentScope(), 7u);
    }
    EXPECT_EQ(TraceSession::currentScope(), 0u);

    auto events = session.sortedEvents();
    ASSERT_EQ(events.size(), 3u);
    // (scope, seq) sort: scope 0 first, then 7, then 9.
    EXPECT_EQ(events[0].name, "outside");
    EXPECT_EQ(events[0].scope, 0u);
    EXPECT_EQ(events[1].name, "inside");
    EXPECT_EQ(events[1].scope, 7u);
    EXPECT_EQ(events[2].name, "nested");
    EXPECT_EQ(events[2].scope, 9u);
}

TEST(ObsTrace, EventsMergeAcrossThreadsByScope)
{
    TraceSession session;
    auto t = session.track("t");
    std::vector<std::thread> threads;
    for (std::uint32_t w = 1; w <= 4; ++w) {
        threads.emplace_back([&session, t, w] {
            TraceSession::Scope scope(w);
            for (int i = 0; i < 50; ++i)
                session.instant(t, "w" + std::to_string(w), double(i));
        });
    }
    for (auto &thread : threads)
        thread.join();

    auto events = session.sortedEvents();
    ASSERT_EQ(events.size(), 200u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].scope, i / 50 + 1);
        EXPECT_EQ(events[i].seq, i % 50);
    }
}

TEST(ObsTrace, TrackInterningIsStable)
{
    TraceSession session;
    auto a = session.track("cpu");
    auto b = session.track("fixed");
    EXPECT_NE(a, b);
    EXPECT_EQ(session.track("cpu"), a);
    EXPECT_EQ(session.track("fixed"), b);
    auto names = session.trackNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[a], "cpu");
    EXPECT_EQ(names[b], "fixed");
}

TEST(ObsTrace, ExportStrictParsesAsChromeTrace)
{
    TraceSession session;
    auto cpu = session.track("cpu");
    session.span(cpu, "op \"quoted\"\n", 1e-6, 2e-6,
                 {{"energy_j", 0.25}});
    session.instant(cpu, "fault", 3e-6);
    session.counter(cpu, "capacity", 4e-6, 17.0);

    std::ostringstream os;
    session.exportChromeTrace(os);
    auto doc = harness::json::parse(os.str());
    ASSERT_TRUE(doc.isObject());
    const auto &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    // 3 metadata (process_name + thread_name + sort_index) + 3 events.
    ASSERT_EQ(events.size(), 6u);

    const auto &span = events[3];
    EXPECT_EQ(span.at("ph").asString(), "X");
    EXPECT_EQ(span.at("name").asString(), "op \"quoted\"\n");
    EXPECT_EQ(span.at("ts").asDouble(), 1.0); // seconds -> micros
    EXPECT_EQ(span.at("dur").asDouble(), 2.0);
    EXPECT_EQ(span.at("args").at("energy_j").asDouble(), 0.25);
    const auto &instant = events[4];
    EXPECT_EQ(instant.at("ph").asString(), "i");
    EXPECT_EQ(instant.at("s").asString(), "t");
    const auto &counter = events[5];
    EXPECT_EQ(counter.at("ph").asString(), "C");
    EXPECT_EQ(counter.at("args").at("value").asDouble(), 17.0);
}

TEST(ObsTrace, ExportMetadataNamesEveryScopeAndTrack)
{
    TraceSession session;
    auto cpu = session.track("cpu");
    session.instant(cpu, "main", 0.0);
    {
        TraceSession::Scope scope(3);
        session.instant(cpu, "pointed", 0.0);
    }
    std::ostringstream os;
    session.exportChromeTrace(os);
    auto doc = harness::json::parse(os.str());
    std::vector<std::string> process_names;
    for (const auto &event : doc.at("traceEvents").elements()) {
        if (event.at("ph").asString() == "M"
            && event.at("name").asString() == "process_name")
            process_names.emplace_back(
                event.at("args").at("name").asString());
    }
    // Scope 0 is "run"; scope 3 is sweep point 2.
    ASSERT_EQ(process_names.size(), 2u);
    EXPECT_EQ(process_names[0], "run");
    EXPECT_EQ(process_names[1], "point 2");
}

TEST(ObsTrace, ExportTidsAreNameSortedNotInternOrdered)
{
    // Two sessions interning the same tracks in opposite orders must
    // export identical bytes: tids are remapped to name-sorted order
    // precisely because intern order is racy under parallel sweeps.
    TraceSession forward, backward;
    auto f_cpu = forward.track("cpu");
    auto f_fixed = forward.track("fixed");
    forward.span(f_cpu, "a", 0.0, 1e-6);
    forward.span(f_fixed, "b", 0.0, 1e-6);
    auto b_fixed = backward.track("fixed");
    auto b_cpu = backward.track("cpu");
    backward.span(b_cpu, "a", 0.0, 1e-6);
    backward.span(b_fixed, "b", 0.0, 1e-6);

    std::ostringstream fwd, bwd;
    forward.exportChromeTrace(fwd);
    backward.exportChromeTrace(bwd);
    EXPECT_EQ(fwd.str(), bwd.str());
}

TEST(ObsTrace, InstrumentationIsInertWithoutASession)
{
    // The zero-cost-when-off contract at the API level: nothing
    // attached, current() is null, and a session that never attached
    // records independently without touching the global slot.
    ASSERT_EQ(TraceSession::current(), nullptr);
    TraceSession session;
    session.track("cpu");
    session.instant(0, "local", 0.0);
    EXPECT_EQ(TraceSession::current(), nullptr);
    EXPECT_EQ(session.eventCount(), 1u);
}
