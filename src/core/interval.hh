/**
 * @file
 * Interval trees: LagAlyzer's central data structure.
 *
 * The paper's Table I defines six interval types; LagAlyzer
 * represents the activity of each thread as a tree of properly
 * nested intervals of these types (paper §II.A). GC intervals are
 * special: because a collection stops the world, a copy of each GC
 * interval is added to every thread's tree.
 */

#ifndef LAG_CORE_INTERVAL_HH
#define LAG_CORE_INTERVAL_HH

#include <cstdint>
#include <vector>

#include "trace/trace.hh"
#include "util/arena.hh"
#include "util/types.hh"

namespace lag::core
{

struct IntervalNode;

/** Allocator for interval-tree storage; default-constructed = heap. */
using IntervalAllocator = ArenaAllocator<IntervalNode>;

/**
 * Vector of interval nodes.  A default-constructed IntervalVec
 * allocates from the global heap (hand-built trees in tests and
 * benchmarks need nothing special); Session::fromTrace seeds its
 * builders with an arena-backed allocator, which propagates through
 * container moves so the whole tree lands in the session's arena.
 */
using IntervalVec = std::vector<IntervalNode, IntervalAllocator>;

/**
 * Hard bound on interval-tree nesting depth.  Session::fromTrace
 * rejects deeper traces up front with a TraceError, so a hostile
 * trace nesting millions of intervals is an input error.  The one
 * node-tree walk, IntervalNode::depth (used by viz::sketch),
 * recurses on the C stack and throws TraceError past this bound as
 * a second line of defense for hand-built trees.  The analyses run
 * on the flat layout (flat_tree.hh), whose walks are iterative and
 * take any depth.
 */
inline constexpr std::size_t kMaxIntervalDepth = 1000;

/** The six interval types of Table I. */
enum class IntervalType : std::uint8_t
{
    Dispatch = 0, ///< start to end of a given episode
    Listener = 1, ///< a listener notification call
    Paint = 2,    ///< a graphics rendering operation
    Native = 3,   ///< a JNI native call
    Async = 4,    ///< handling of an event posted in a background thread
    Gc = 5,       ///< a garbage collection
};

/** Human-readable name of an interval type (as in Table I). */
const char *intervalTypeName(IntervalType type);

/** Map a trace interval kind to the core interval type. */
IntervalType fromTraceKind(trace::IntervalKind kind);

/** One node of a thread's interval tree. */
struct IntervalNode
{
    IntervalType type = IntervalType::Dispatch;
    TimeNs begin = 0;
    TimeNs end = 0;

    /** Symbolic information (class, method); 0 for Dispatch/Gc. */
    SymbolId classSym = 0;
    SymbolId methodSym = 0;

    /** Minor/major; meaningful for Gc nodes only. */
    trace::TraceGcKind gcKind = trace::TraceGcKind::Minor;

    IntervalVec children;

    DurationNs duration() const { return end - begin; }

    /** True when [other.begin, other.end] lies within this node. */
    bool
    contains(TimeNs b, TimeNs e) const
    {
        return begin <= b && e <= end;
    }

    /** Depth of the subtree; a leaf has depth 1. */
    std::size_t depth() const;
};

} // namespace lag::core

#endif // LAG_CORE_INTERVAL_HH
