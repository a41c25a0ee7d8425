#include "session.hh"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "util/logging.hh"

namespace lag::core
{

namespace
{

using trace::EventType;
using trace::TraceError;

/** Per-thread state while replaying the event stream. */
struct TreeBuilder
{
    explicit TreeBuilder(const IntervalAllocator &alloc)
        : roots(alloc), stack(alloc)
    {
    }

    IntervalVec roots;
    IntervalVec stack; ///< open nodes, innermost last
};

/** Per-thread tallies from the counting pre-pass. */
struct ThreadCounts
{
    std::vector<std::size_t> open; ///< begin-event indices
    std::size_t roots = 0;
    std::size_t maxDepth = 0;
};

/**
 * Counting pre-pass: replay the event stream once without building
 * anything, recording each begin event's eventual child count, each
 * thread's root count and maximum nesting depth, and the number of
 * collections.  The build pass then reserves every vector exactly,
 * so arena storage is never abandoned to regrowth.  Malformed
 * streams are deliberately tolerated here — the build pass raises
 * the authoritative errors.
 */
struct PrePass
{
    std::vector<std::uint32_t> childCount; ///< by begin-event index
    std::unordered_map<ThreadId, ThreadCounts> threads;
    std::size_t collections = 0;
};

PrePass
countEvents(const trace::Trace &trace)
{
    PrePass pre;
    pre.childCount.assign(trace.events.size(), 0);
    for (const auto &thread : trace.threads)
        pre.threads.emplace(thread.id, ThreadCounts{});
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
        const auto &event = trace.events[i];
        switch (event.type) {
          case EventType::DispatchBegin:
          case EventType::IntervalBegin: {
            auto it = pre.threads.find(event.thread);
            if (it == pre.threads.end())
                break;
            // Nesting depth is data-dependent and usually tiny; a
            // reserve here would just guess.
            it->second.open.push_back(i); // lag-lint: allow(reserve-loop)
            it->second.maxDepth = std::max(it->second.maxDepth,
                                           it->second.open.size());
            break;
          }
          case EventType::DispatchEnd:
          case EventType::IntervalEnd: {
            auto it = pre.threads.find(event.thread);
            if (it == pre.threads.end() || it->second.open.empty())
                break;
            it->second.open.pop_back();
            if (it->second.open.empty())
                ++it->second.roots;
            else
                ++pre.childCount[it->second.open.back()];
            break;
          }
          case EventType::GcBegin:
            break;
          case EventType::GcEnd:
            ++pre.collections;
            break;
        }
    }
    return pre;
}

/** Close the innermost open node and attach it to its parent. */
void
closeTop(TreeBuilder &builder, TimeNs time, bool expect_dispatch,
         ThreadId thread)
{
    if (builder.stack.empty()) {
        throw TraceError("interval end without begin on thread " +
                         std::to_string(thread));
    }
    IntervalNode node = std::move(builder.stack.back());
    builder.stack.pop_back();
    const bool is_dispatch = node.type == IntervalType::Dispatch;
    if (is_dispatch != expect_dispatch) {
        throw TraceError("mismatched begin/end types on thread " +
                         std::to_string(thread));
    }
    if (time < node.begin)
        throw TraceError("interval ends before it begins");
    node.end = time;
    if (builder.stack.empty())
        builder.roots.push_back(std::move(node));
    else
        builder.stack.back().children.push_back(std::move(node));
}

/**
 * Insert a copy of @p gc among @p siblings, descending into the
 * deepest non-GC node that fully contains it. Partial overlap means
 * the trace is inconsistent (the world was not stopped).
 */
void
insertGcInto(IntervalVec &siblings, const IntervalNode &gc)
{
    // Find a sibling that fully contains the collection.
    for (auto &sibling : siblings) {
        if (sibling.type == IntervalType::Gc)
            continue;
        if (sibling.contains(gc.begin, gc.end)) {
            insertGcInto(sibling.children, gc);
            return;
        }
    }
    // Insert here, keeping time order and checking for crossings.
    auto it = siblings.begin();
    while (it != siblings.end() && it->begin < gc.begin)
        ++it;
    if (it != siblings.begin()) {
        const auto &prev = *(it - 1);
        if (prev.end > gc.begin) {
            throw TraceError(
                "GC interval crosses an interval boundary (begin)");
        }
    }
    if (it != siblings.end() && it->begin < gc.end)
        throw TraceError("GC interval crosses an interval boundary (end)");
    siblings.insert(it, gc);
}

} // namespace

Session
Session::fromTrace(trace::Trace trace, const SessionBuildOptions &options)
{
    LAG_SPAN_ARG("session.build", "events", trace.events.size());
    static obs::Counter &build_count =
        obs::metrics().counter("session.build.count");
    build_count.add();

    trace.validate();

    Session session;
    if (options.useArena)
        session.arena_ = std::make_unique<Arena>();
    // Null arena degrades to the global heap; either way every node
    // vector below is seeded with this allocator so tree storage
    // follows it through container moves.
    const IntervalAllocator alloc(session.arena_.get());

    session.meta_ = std::move(trace.meta);
    session.samples_ = std::move(trace.samples);
    session.strings_ = std::move(trace.strings);

    // Phase spans via optional: the phases share too much local
    // state for nested scopes.
    std::optional<obs::Span> phase_span;
    phase_span.emplace("session.build.prepass");
    const PrePass pre = countEvents(trace);

    phase_span.emplace("session.build.replay");
    std::unordered_map<ThreadId, TreeBuilder> builders;
    for (const auto &thread : trace.threads) {
        const auto it =
            builders.emplace(thread.id, TreeBuilder(alloc)).first;
        const ThreadCounts &tallies = pre.threads.at(thread.id);
        if (tallies.maxDepth >= kMaxIntervalDepth) {
            // Reject up front: node-tree copies and the sketch's
            // IntervalNode::depth recurse on the C stack, and depth()
            // would hit its own guard anyway (kMaxIntervalDepth
            // leaves headroom for the GC leaf copies inserted below
            // the deepest frame).
            throw TraceError(
                "trace nests intervals deeper than the supported "
                "maximum (" +
                std::to_string(kMaxIntervalDepth) + ")");
        }
        // Root slots plus room for root-level GC copies; the stack
        // never regrows past the deepest nesting seen.
        it->second.roots.reserve(tallies.roots + pre.collections);
        it->second.stack.reserve(tallies.maxDepth);
    }
    session.threads_.reserve(trace.threads.size());

    std::vector<IntervalNode> collections;
    collections.reserve(pre.collections);
    bool gc_open = false;
    IntervalNode gc_node;

    for (std::size_t i = 0; i < trace.events.size(); ++i) {
        const auto &event = trace.events[i];
        switch (event.type) {
          case EventType::DispatchBegin: {
            IntervalNode node;
            node.type = IntervalType::Dispatch;
            node.begin = event.time;
            node.children = IntervalVec(alloc);
            node.children.reserve(pre.childCount[i]);
            builders.at(event.thread).stack.push_back(std::move(node));
            break;
          }
          case EventType::DispatchEnd:
            closeTop(builders.at(event.thread), event.time,
                     /*expect_dispatch=*/true, event.thread);
            break;
          case EventType::IntervalBegin: {
            IntervalNode node;
            node.type = fromTraceKind(event.kind);
            node.begin = event.time;
            node.classSym = event.classSym;
            node.methodSym = event.methodSym;
            node.children = IntervalVec(alloc);
            node.children.reserve(pre.childCount[i]);
            builders.at(event.thread).stack.push_back(std::move(node));
            break;
          }
          case EventType::IntervalEnd:
            closeTop(builders.at(event.thread), event.time,
                     /*expect_dispatch=*/false, event.thread);
            break;
          case EventType::GcBegin:
            if (gc_open)
                throw TraceError("overlapping GC intervals");
            gc_open = true;
            gc_node = IntervalNode{};
            gc_node.type = IntervalType::Gc;
            gc_node.begin = event.time;
            gc_node.gcKind = event.gcKind;
            break;
          case EventType::GcEnd:
            if (!gc_open)
                throw TraceError("GC end without begin");
            gc_open = false;
            gc_node.end = event.time;
            if (gc_node.end < gc_node.begin)
                throw TraceError("GC ends before it begins");
            collections.push_back(gc_node);
            break;
        }
    }
    if (gc_open)
        throw TraceError("unterminated GC interval");

    for (const auto &thread : trace.threads) {
        TreeBuilder &builder = builders.at(thread.id);
        if (!builder.stack.empty()) {
            throw TraceError("unterminated interval on thread " +
                             std::to_string(thread.id));
        }
        ThreadTree tree;
        tree.id = thread.id;
        tree.name = thread.name;
        tree.isGui = thread.isGui;
        tree.roots = std::move(builder.roots);

        // "Because a GC stops all threads, for a given garbage
        // collection we add a separate copy of the GC interval to
        // the interval trees of each thread" (paper §II.A).
        for (const auto &gc : collections)
            insertGcInto(tree.roots, gc);

        session.threads_.push_back(std::move(tree));
    }

    // Collect episodes from dispatch threads, in time order.
    phase_span.emplace("session.build.episodes");
    std::size_t episodeCount = 0;
    for (const auto &tree : session.threads_) {
        if (!tree.isGui)
            continue;
        for (const auto &root : tree.roots) {
            if (root.type == IntervalType::Dispatch)
                ++episodeCount;
        }
    }
    session.episodes_.reserve(episodeCount);
    for (std::size_t t = 0; t < session.threads_.size(); ++t) {
        const ThreadTree &tree = session.threads_[t];
        if (!tree.isGui)
            continue;
        for (std::size_t r = 0; r < tree.roots.size(); ++r) {
            const IntervalNode &root = tree.roots[r];
            if (root.type != IntervalType::Dispatch)
                continue;
            Episode episode;
            episode.thread = tree.id;
            episode.treeIndex = t;
            episode.rootIndex = r;
            episode.begin = root.begin;
            episode.end = root.end;
            session.episodes_.push_back(episode);
        }
    }
    std::sort(session.episodes_.begin(), session.episodes_.end(),
              [](const Episode &a, const Episode &b) {
                  return a.begin < b.begin;
              });

    // Assign each episode its in-flight sample range.
    const auto &samples = session.samples_;
    for (auto &episode : session.episodes_) {
        const auto lo = std::lower_bound(
            samples.begin(), samples.end(), episode.begin,
            [](const trace::TraceSample &s, TimeNs t) {
                return s.time < t;
            });
        auto hi = lo;
        while (hi != samples.end() && hi->time <= episode.end)
            ++hi;
        episode.firstSample =
            static_cast<std::size_t>(lo - samples.begin());
        episode.lastSample =
            static_cast<std::size_t>(hi - samples.begin());
    }

    return session;
}

Session::Session(const Session &other)
    : meta_(other.meta_), threads_(other.threads_),
      episodes_(other.episodes_), samples_(other.samples_),
      strings_(other.strings_)
{
    // threads_ copied via ArenaAllocator's
    // select_on_container_copy_construction: heap-backed, so no
    // arena is needed (or shared) here.
}

Session &
Session::operator=(const Session &other)
{
    if (this != &other) {
        Session copy(other);
        *this = std::move(copy);
    }
    return *this;
}

const ThreadTree &
Session::threadTree(ThreadId id) const
{
    for (const auto &tree : threads_) {
        if (tree.id == id)
            return tree;
    }
    throw trace::TraceError("unknown thread id " + std::to_string(id));
}

const IntervalNode &
Session::episodeRoot(const Episode &episode) const
{
    lag_assert(episode.treeIndex < threads_.size(), "bad tree index");
    const ThreadTree &tree = threads_[episode.treeIndex];
    lag_assert(episode.rootIndex < tree.roots.size(), "bad root index");
    return tree.roots[episode.rootIndex];
}

ThreadId
Session::guiThread() const
{
    for (const auto &tree : threads_) {
        if (tree.isGui)
            return tree.id;
    }
    throw trace::TraceError("trace has no GUI thread");
}

std::size_t
Session::perceptibleCount(DurationNs threshold) const
{
    std::size_t count = 0;
    for (const auto &episode : episodes_) {
        if (episode.duration() >= threshold)
            ++count;
    }
    return count;
}

} // namespace lag::core
