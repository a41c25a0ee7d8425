/**
 * @file
 * Tests for the Session builder: interval-tree construction, nesting
 * validation, GC copies, episode extraction and sample ranges.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/flat_tree.hh"
#include "core/session.hh"
#include "trace_builder.hh"

namespace lag::core
{
namespace
{

using trace::IntervalKind;
using trace::TraceError;
using trace::TraceGcKind;
using trace::TraceThreadState;

TEST(SessionTest, BuildsSimpleEpisodeTree)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(msToNs(10))
        .intervalBegin(msToNs(11), IntervalKind::Listener, "app.A",
                       "act")
        .intervalBegin(msToNs(12), IntervalKind::Paint, "app.B",
                       "paint")
        .intervalEnd(msToNs(15), IntervalKind::Paint)
        .intervalEnd(msToNs(18), IntervalKind::Listener)
        .dispatchEnd(msToNs(20));
    const Session session = builder.buildSession(secToNs(1));

    ASSERT_EQ(session.episodes().size(), 1u);
    const Episode &episode = session.episodes()[0];
    EXPECT_EQ(episode.duration(), msToNs(10));
    const IntervalNode &root = session.episodeRoot(episode);
    EXPECT_EQ(root.type, IntervalType::Dispatch);
    ASSERT_EQ(root.children.size(), 1u);
    const IntervalNode &listener = root.children[0];
    EXPECT_EQ(listener.type, IntervalType::Listener);
    EXPECT_EQ(session.symbol(listener.classSym), "app.A");
    ASSERT_EQ(listener.children.size(), 1u);
    EXPECT_EQ(listener.children[0].type, IntervalType::Paint);
    EXPECT_EQ(listener.children[0].duration(), msToNs(3));
}

TEST(SessionTest, SiblingIntervalsStaySiblings)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(1, IntervalKind::Paint, "a.P1", "paint")
        .intervalEnd(msToNs(4), IntervalKind::Paint)
        .intervalBegin(msToNs(5), IntervalKind::Paint, "a.P2", "paint")
        .intervalEnd(msToNs(9), IntervalKind::Paint)
        .dispatchEnd(msToNs(10));
    const Session session = builder.buildSession(secToNs(1));
    const IntervalNode &root =
        session.episodeRoot(session.episodes()[0]);
    ASSERT_EQ(root.children.size(), 2u);
    EXPECT_EQ(session.symbol(root.children[0].classSym), "a.P1");
    EXPECT_EQ(session.symbol(root.children[1].classSym), "a.P2");
}

TEST(SessionTest, GcCopiedToEveryThread)
{
    test::TraceBuilder builder;
    const ThreadId worker = builder.addThread("Worker");
    builder.gc(msToNs(10), msToNs(25), TraceGcKind::Major);
    const Session session = builder.buildSession(secToNs(1));

    ASSERT_EQ(session.threads().size(), 2u);
    for (const auto &tree : session.threads()) {
        ASSERT_EQ(tree.roots.size(), 1u)
            << "thread " << tree.name << " missing its GC copy";
        EXPECT_EQ(tree.roots[0].type, IntervalType::Gc);
        EXPECT_EQ(tree.roots[0].gcKind, TraceGcKind::Major);
        EXPECT_EQ(tree.roots[0].duration(), msToNs(15));
    }
    (void)worker;
}

TEST(SessionTest, GcNestsIntoDeepestContainingInterval)
{
    // The paper's Figure 1: a GC inside a native call inside paints.
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(msToNs(1), IntervalKind::Paint, "s.JFrame",
                       "paint")
        .intervalBegin(msToNs(2), IntervalKind::Native,
                       "sun.java2d.loops.DrawLine", "DrawLine")
        .gc(msToNs(3), msToNs(9), TraceGcKind::Minor)
        .intervalEnd(msToNs(12), IntervalKind::Native)
        .intervalEnd(msToNs(14), IntervalKind::Paint)
        .dispatchEnd(msToNs(15));
    const Session session = builder.buildSession(secToNs(1));
    const IntervalNode &root =
        session.episodeRoot(session.episodes()[0]);
    const IntervalNode &paint = root.children.at(0);
    const IntervalNode &native = paint.children.at(0);
    ASSERT_EQ(native.type, IntervalType::Native);
    ASSERT_EQ(native.children.size(), 1u);
    EXPECT_EQ(native.children[0].type, IntervalType::Gc);
    EXPECT_EQ(native.children[0].duration(), msToNs(6));
}

TEST(SessionTest, GcBetweenEpisodesBecomesRoot)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0).dispatchEnd(msToNs(5));
    builder.gc(msToNs(10), msToNs(20));
    builder.dispatchBegin(msToNs(30)).dispatchEnd(msToNs(35));
    const Session session = builder.buildSession(secToNs(1));
    const auto &roots = session.threadTree(0).roots;
    ASSERT_EQ(roots.size(), 3u);
    EXPECT_EQ(roots[0].type, IntervalType::Dispatch);
    EXPECT_EQ(roots[1].type, IntervalType::Gc);
    EXPECT_EQ(roots[2].type, IntervalType::Dispatch);
    // Only the dispatches are episodes.
    EXPECT_EQ(session.episodes().size(), 2u);
}

TEST(SessionTest, SampleRangesAssigned)
{
    test::TraceBuilder builder;
    builder.sample(msToNs(5), TraceThreadState::Runnable);  // before
    builder.dispatchBegin(msToNs(10)).dispatchEnd(msToNs(30));
    builder.rawSample([] {
        trace::TraceSample s;
        s.time = msToNs(15);
        return s;
    }());
    builder.rawSample([] {
        trace::TraceSample s;
        s.time = msToNs(25);
        return s;
    }());
    builder.rawSample([] {
        trace::TraceSample s;
        s.time = msToNs(40);
        return s;
    }());
    const Session session = builder.buildSession(secToNs(1));
    const Episode &episode = session.episodes()[0];
    EXPECT_EQ(episode.firstSample, 1u);
    EXPECT_EQ(episode.lastSample, 3u);
}

TEST(SessionTest, PerceptibleCount)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0).dispatchEnd(msToNs(50));
    builder.dispatchBegin(msToNs(60)).dispatchEnd(msToNs(200));
    builder.dispatchBegin(msToNs(210)).dispatchEnd(msToNs(310));
    const Session session = builder.buildSession(secToNs(1));
    EXPECT_EQ(session.perceptibleCount(msToNs(100)), 2u);
    EXPECT_EQ(session.perceptibleCount(msToNs(500)), 0u);
}

TEST(SessionTest, UnterminatedIntervalRejected)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0).intervalBegin(
        1, IntervalKind::Listener, "a.A", "m");
    EXPECT_THROW(builder.buildSession(secToNs(1)), TraceError);
}

TEST(SessionTest, MismatchedEndTypeRejected)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(1, IntervalKind::Listener, "a.A", "m")
        .dispatchEnd(msToNs(5)); // ends dispatch with listener open
    EXPECT_THROW(builder.buildSession(secToNs(1)), TraceError);
}

TEST(SessionTest, EndWithoutBeginRejected)
{
    test::TraceBuilder builder;
    builder.intervalEnd(msToNs(5), IntervalKind::Paint);
    EXPECT_THROW(builder.buildSession(secToNs(1)), TraceError);
}

TEST(SessionTest, GcCrossingIntervalBoundaryRejected)
{
    // A GC that overlaps an interval without containment means the
    // world was not stopped — the trace is inconsistent.
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(msToNs(1), IntervalKind::Paint, "a.P", "paint")
        .intervalEnd(msToNs(10), IntervalKind::Paint)
        .dispatchEnd(msToNs(11));
    builder.raw().events.push_back([] {
        trace::TraceEvent e;
        e.type = trace::EventType::GcBegin;
        e.time = msToNs(5);
        return e;
    }());
    builder.raw().events.push_back([] {
        trace::TraceEvent e;
        e.type = trace::EventType::GcEnd;
        e.time = msToNs(20);
        return e;
    }());
    // Re-sort events by time so validate() passes and the builder
    // sees a GC crossing the paint boundary.
    auto &events = builder.raw().events;
    std::stable_sort(events.begin(), events.end(),
                     [](const trace::TraceEvent &a,
                        const trace::TraceEvent &b) {
                         return a.time < b.time;
                     });
    EXPECT_THROW(builder.buildSession(secToNs(1)), TraceError);
}

TEST(SessionTest, OverlappingGcRejected)
{
    test::TraceBuilder builder;
    auto &events = builder.raw().events;
    trace::TraceEvent b1;
    b1.type = trace::EventType::GcBegin;
    b1.time = 10;
    trace::TraceEvent b2 = b1;
    b2.time = 20;
    events.push_back(b1);
    events.push_back(b2);
    EXPECT_THROW(builder.buildSession(secToNs(1)), TraceError);
}

TEST(SessionTest, GuiThreadLookup)
{
    test::TraceBuilder builder;
    builder.addThread("W");
    const Session session = builder.buildSession(secToNs(1));
    EXPECT_EQ(session.guiThread(), 0u);
    EXPECT_THROW(session.threadTree(99), TraceError);
}

TEST(SessionTest, EpisodesSortedByBeginAcrossSamples)
{
    test::TraceBuilder builder;
    for (int i = 0; i < 5; ++i) {
        builder.dispatchBegin(msToNs(10 * i))
            .dispatchEnd(msToNs(10 * i + 5));
    }
    const Session session = builder.buildSession(secToNs(1));
    ASSERT_EQ(session.episodes().size(), 5u);
    for (std::size_t i = 1; i < 5; ++i) {
        EXPECT_GT(session.episodes()[i].begin,
                  session.episodes()[i - 1].begin);
    }
}

TEST(IntervalNodeTest, TypeTimeSkipsNestedSameType)
{
    IntervalNode root;
    root.type = IntervalType::Dispatch;
    root.begin = 0;
    root.end = 100;
    IntervalNode outer_native;
    outer_native.type = IntervalType::Native;
    outer_native.begin = 10;
    outer_native.end = 50;
    IntervalNode inner_native;
    inner_native.type = IntervalType::Native;
    inner_native.begin = 20;
    inner_native.end = 30;
    outer_native.children.push_back(inner_native);
    root.children.push_back(outer_native);
    IntervalVec roots;
    roots.push_back(root);
    const FlatTree tree = flattenForest(roots);
    // Inner native must not be double counted.
    EXPECT_EQ(flatTypeTime(tree, 0, IntervalType::Native), 40);
    EXPECT_EQ(flatTypeTime(tree, 0, IntervalType::Gc), 0);
}

TEST(IntervalNodeTest, DescendantsAndDepth)
{
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(1, IntervalKind::Listener, "a.A", "m")
        .intervalBegin(2, IntervalKind::Paint, "a.B", "m")
        .intervalEnd(3, IntervalKind::Paint)
        .intervalBegin(4, IntervalKind::Paint, "a.C", "m")
        .intervalEnd(5, IntervalKind::Paint)
        .intervalEnd(6, IntervalKind::Listener)
        .dispatchEnd(7);
    const Session session = builder.buildSession(secToNs(1));
    const FlatSession flat = flattenSession(session);
    const FlatTree &tree = flat.trees()[flat.episodeTree(0)];
    EXPECT_EQ(flatDescendantCount(tree, flat.episodeNode(0)), 3u);
    EXPECT_EQ(flatDepth(tree, flat.episodeNode(0)), 3u);
    // The node tree keeps depth() for the sketch renderer.
    EXPECT_EQ(session.episodeRoot(session.episodes()[0]).depth(), 3u);
}

} // namespace
} // namespace lag::core
