/**
 * @file
 * Test helper: hand-built analysis inputs shared by the flat-tree
 * tests and the golden-digest suite.
 *
 * Sessions come through TraceBuilder, so every interval in them is
 * nested the way Session::fromTrace builds it (GC nodes are leaves).
 * The forests are assembled node by node and can take shapes no
 * trace produces: nesting chains of any depth and GC nodes with
 * children, which exercise the general (non-prefix-sum) scans.
 */

#ifndef LAG_TESTS_ANALYSIS_FIXTURES_HH
#define LAG_TESTS_ANALYSIS_FIXTURES_HH

#include <cstddef>
#include <string>
#include <utility>

#include "core/interval.hh"
#include "core/session.hh"
#include "trace_builder.hh"

namespace lag::test
{

/** A session exercising every interval type, nesting and GC. */
inline core::Session
richSession()
{
    using trace::IntervalKind;
    TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(1000, IntervalKind::Listener, "app.A", "act")
        .intervalBegin(2000, IntervalKind::Native, "app.N", "jni")
        .gc(3000, 4000)
        .intervalEnd(msToNs(6), IntervalKind::Native)
        .intervalEnd(msToNs(8), IntervalKind::Listener)
        .intervalBegin(msToNs(9), IntervalKind::Paint, "app.P", "p")
        .intervalEnd(msToNs(12), IntervalKind::Paint)
        .dispatchEnd(msToNs(14));
    builder.dispatchBegin(msToNs(20))
        .intervalBegin(msToNs(21), IntervalKind::Async, "app.Q", "r")
        .intervalBegin(msToNs(22), IntervalKind::Paint, "app.P", "p")
        .intervalEnd(msToNs(23), IntervalKind::Paint)
        .intervalEnd(msToNs(24), IntervalKind::Async)
        .dispatchEnd(msToNs(25));
    builder.dispatchBegin(msToNs(30)).dispatchEnd(msToNs(31));
    return builder.buildSession(secToNs(1));
}

/** Three episodes of one pattern, two of another, one without
 * internal structure; lags straddle the 100 ms threshold. */
inline core::Session
miningSession()
{
    TraceBuilder builder;
    for (int k = 0; k < 3; ++k) {
        const TimeNs base = msToNs(100 * k);
        builder.listenerEpisode(base, base + msToNs(50), "app.A");
    }
    for (int k = 0; k < 2; ++k) {
        const TimeNs base = msToNs(400 + 200 * k);
        builder.listenerEpisode(base, base + msToNs(150), "app.B");
    }
    builder.dispatchBegin(msToNs(800)).dispatchEnd(msToNs(801));
    return builder.buildSession(secToNs(1));
}

/** One episode nesting @p depth Native calls with a Listener at the
 * bottom, so the trigger search has to reach the deepest level. */
inline core::Session
deepSession(std::size_t depth)
{
    using trace::IntervalKind;
    TraceBuilder builder;
    builder.dispatchBegin(0);
    for (std::size_t d = 0; d < depth; ++d) {
        builder.intervalBegin(static_cast<TimeNs>(1000 * (d + 1)),
                              IntervalKind::Native, "app.N", "jni");
    }
    const auto bottom = static_cast<TimeNs>(1000 * (depth + 1));
    builder.intervalBegin(bottom, IntervalKind::Listener, "app.L", "act")
        .intervalEnd(bottom + 500, IntervalKind::Listener);
    for (std::size_t d = depth; d > 0; --d) {
        builder.intervalEnd(
            static_cast<TimeNs>(bottom + 1000 * (depth - d + 1)),
            IntervalKind::Native);
    }
    builder.dispatchEnd(static_cast<TimeNs>(bottom + 1000 * (depth + 1)));
    return builder.buildSession(secToNs(1));
}

/** One hand-built node (heap storage). */
inline core::IntervalNode
node(core::IntervalType type, TimeNs begin, TimeNs end,
     SymbolId cls = 0, SymbolId method = 0)
{
    core::IntervalNode n;
    n.type = type;
    n.begin = begin;
    n.end = end;
    n.classSym = cls;
    n.methodSym = method;
    return n;
}

/** A nesting chain of @p depth nodes: @p depth - 1 Native calls
 * around a @p leaf node (Native by default, which is no trigger
 * marker, so every walk must reach the bottom). */
inline core::IntervalVec
deepForest(std::size_t depth,
           core::IntervalType leaf = core::IntervalType::Native)
{
    core::IntervalNode current = node(leaf, 0, 10);
    for (std::size_t d = 1; d < depth; ++d) {
        core::IntervalNode parent =
            node(core::IntervalType::Native, 0, 10);
        parent.children.push_back(std::move(current));
        current = std::move(parent);
    }
    core::IntervalVec roots;
    roots.push_back(std::move(current));
    return roots;
}

/** Three Dispatch roots whose GC nodes have children — shapes only
 * a hand-built tree can take.  Symbols are interned in @p strings. */
inline core::IntervalVec
gcParentForest(trace::StringTable &strings)
{
    using core::IntervalType;
    const SymbolId app = strings.intern("app.Main");
    const SymbolId act = strings.intern("act");
    const SymbolId jni = strings.intern("jni");
    const SymbolId paint = strings.intern("paint");

    core::IntervalVec roots;

    // Native call with a GC inside that itself holds a listener and
    // a paint; a second native with a GC leaf; a root-level GC with
    // a native child; an async whose GC hides a paint.
    core::IntervalNode first = node(IntervalType::Dispatch, 0, 100);
    {
        core::IntervalNode native =
            node(IntervalType::Native, 10, 60, app, jni);
        core::IntervalNode gc = node(IntervalType::Gc, 20, 40);
        core::IntervalNode listener =
            node(IntervalType::Listener, 22, 30, app, act);
        listener.children.push_back(
            node(IntervalType::Paint, 24, 28, app, paint));
        gc.children.push_back(std::move(listener));
        native.children.push_back(std::move(gc));
        core::IntervalNode inner =
            node(IntervalType::Native, 45, 55, app, jni);
        inner.children.push_back(node(IntervalType::Gc, 47, 50));
        native.children.push_back(std::move(inner));
        first.children.push_back(std::move(native));

        core::IntervalNode rootGc = node(IntervalType::Gc, 70, 90);
        rootGc.children.push_back(
            node(IntervalType::Native, 72, 80, app, jni));
        first.children.push_back(std::move(rootGc));

        core::IntervalNode async =
            node(IntervalType::Async, 91, 99, app, act);
        core::IntervalNode asyncGc = node(IntervalType::Gc, 92, 95);
        asyncGc.children.push_back(
            node(IntervalType::Paint, 93, 94, app, paint));
        async.children.push_back(std::move(asyncGc));
        first.children.push_back(std::move(async));
    }
    roots.push_back(std::move(first));

    // The first marker sits below a GC: an async wrapping a paint.
    core::IntervalNode second = node(IntervalType::Dispatch, 200, 300);
    {
        core::IntervalNode gc = node(IntervalType::Gc, 210, 290);
        core::IntervalNode async =
            node(IntervalType::Async, 220, 280, app, act);
        async.children.push_back(
            node(IntervalType::Paint, 230, 240, app, paint));
        gc.children.push_back(std::move(async));
        second.children.push_back(std::move(gc));
    }
    roots.push_back(std::move(second));

    // Nothing but a GC holding a listener: structureless once GC is
    // projected away, yet it still has a trigger.
    core::IntervalNode third = node(IntervalType::Dispatch, 400, 500);
    {
        core::IntervalNode gc = node(IntervalType::Gc, 410, 490);
        gc.children.push_back(
            node(IntervalType::Listener, 420, 430, app, act));
        third.children.push_back(std::move(gc));
    }
    roots.push_back(std::move(third));
    return roots;
}

} // namespace lag::test

#endif // LAG_TESTS_ANALYSIS_FIXTURES_HH
