#include "flat_tree.hh"

#include <algorithm>

#include "util/hash.hh"
#include "util/logging.hh"

namespace lag::core
{

namespace
{

/** @name Signature byte sinks.
 * One emission routine, two sinks: the hasher folds the signature's
 * byte stream (so the hash equals fnv1a(signature) with no
 * intermediate string), and the string sink materializes that
 * stream for first-seen patterns.
 * @{ */

struct HashSink
{
    Fnv1aHasher hasher;

    void put(char c) { hasher.addBytes(&c, 1); }

    void
    put(std::string_view s)
    {
        hasher.addBytes(s.data(), s.size());
    }
};

struct StringSink
{
    std::string &out;

    void put(char c) { out += c; }

    void
    put(std::string_view s)
    {
        out.append(s.data(), s.size());
    }
};

/** @} */

/** Emit one node's own bytes: type char plus [class.method]. */
template <typename Sink>
void
emitNodePayload(const FlatTree &tree, std::uint32_t i,
                const trace::StringTable &strings, Sink &sink)
{
    switch (tree.typeOf(i)) {
      case IntervalType::Dispatch: sink.put('D'); break;
      case IntervalType::Listener: sink.put('L'); break;
      case IntervalType::Paint:    sink.put('P'); break;
      case IntervalType::Native:   sink.put('N'); break;
      case IntervalType::Async:    sink.put('A'); break;
      case IntervalType::Gc:
        lag_panic("GC nodes are excluded before signature emission");
    }
    if (tree.classSym[i] != 0 || tree.methodSym[i] != 0) {
        sink.put('[');
        sink.put(strings.lookup(tree.classSym[i]));
        sink.put('.');
        sink.put(strings.lookup(tree.methodSym[i]));
        sink.put(']');
    }
}

/**
 * Emit the full signature of the subtree at @p root into @p sink,
 * walked with an explicit frame stack instead of recursion.
 */
template <typename Sink>
void
emitSignature(const FlatTree &tree, std::uint32_t root,
              const trace::StringTable &strings, Sink &sink,
              FlatSigStack &stack)
{
    emitNodePayload(tree, root, strings, sink);
    stack.clear();
    stack.reserve(16);
    stack.push_back({root + 1, tree.subtreeEnd[root], false});
    while (!stack.empty()) {
        FlatSigFrame &frame = stack.back();
        std::uint32_t j = frame.cursor;
        const std::uint32_t limit = frame.end;
        while (j < limit && tree.typeOf(j) == IntervalType::Gc)
            j = tree.subtreeEnd[j];
        if (j >= limit) {
            if (frame.opened)
                sink.put(')');
            stack.pop_back();
            continue;
        }
        if (!frame.opened) {
            sink.put('(');
            frame.opened = true;
        }
        frame.cursor = tree.subtreeEnd[j];
        emitNodePayload(tree, j, strings, sink);
        // Invalidates `frame`; its cursor is already advanced.
        stack.push_back({j + 1, tree.subtreeEnd[j], false});
    }
}

/** Projected (non-GC) subtree size, valid under gcLeavesOnly. */
std::uint32_t
nonGcSubtreeSize(const FlatTree &tree, std::uint32_t i)
{
    return tree.subtreeSize(i) -
           (tree.gcCountBefore[tree.subtreeEnd[i]] -
            tree.gcCountBefore[i]);
}

} // namespace

FlatTree
flattenForest(const IntervalVec &roots, Arena *arena)
{
    FlatTree tree(arena);

    // Sizing pre-pass (order does not matter, only the count), so
    // every parallel array is reserved exactly and arena storage is
    // never abandoned to regrowth.
    std::size_t n = 0;
    {
        std::vector<const IntervalNode *> dfs;
        dfs.reserve(64);
        for (const IntervalNode &root : roots)
            dfs.push_back(&root);
        while (!dfs.empty()) {
            const IntervalNode *node = dfs.back();
            dfs.pop_back();
            ++n;
            for (const IntervalNode &child : node->children)
                dfs.push_back(&child);
        }
    }

    tree.begin.reserve(n);
    tree.end.reserve(n);
    tree.subtreeEnd.reserve(n);
    tree.classSym.reserve(n);
    tree.methodSym.reserve(n);
    tree.type.reserve(n);
    tree.gcKind.reserve(n);
    tree.roots.reserve(roots.size());
    tree.gcCountBefore.reserve(n + 1);
    tree.gcTimeBefore.reserve(n + 1);
    tree.gcCountBefore.push_back(0);
    tree.gcTimeBefore.push_back(0);

    const auto emit = [&tree](const IntervalNode &node) {
        const auto idx =
            static_cast<std::uint32_t>(tree.begin.size());
        tree.begin.push_back(node.begin);
        tree.end.push_back(node.end);
        tree.subtreeEnd.push_back(0); // patched when subtree closes
        tree.classSym.push_back(node.classSym);
        tree.methodSym.push_back(node.methodSym);
        tree.type.push_back(static_cast<std::uint8_t>(node.type));
        tree.gcKind.push_back(
            static_cast<std::uint8_t>(node.gcKind));
        const bool is_gc = node.type == IntervalType::Gc;
        tree.gcCountBefore.push_back(tree.gcCountBefore.back() +
                                     (is_gc ? 1U : 0U));
        tree.gcTimeBefore.push_back(tree.gcTimeBefore.back() +
                                    (is_gc ? node.duration() : 0));
        if (is_gc && !node.children.empty())
            tree.gcLeavesOnly = false;
        return idx;
    };

    struct Frame
    {
        const IntervalNode *node;
        std::uint32_t flatIndex;
        std::size_t nextChild;
    };
    std::vector<Frame> stack;
    stack.reserve(64);

    for (const IntervalNode &root : roots) {
        tree.roots.push_back(
            static_cast<std::uint32_t>(tree.begin.size()));
        stack.push_back(Frame{&root, emit(root), 0});
        while (!stack.empty()) {
            Frame &frame = stack.back();
            if (frame.nextChild < frame.node->children.size()) {
                const IntervalNode &child =
                    frame.node->children[frame.nextChild++];
                stack.push_back(Frame{&child, emit(child), 0});
            } else {
                tree.subtreeEnd[frame.flatIndex] =
                    static_cast<std::uint32_t>(tree.begin.size());
                stack.pop_back();
            }
        }
    }
    return tree;
}

FlatSession
flattenSession(const Session &session, bool use_arena)
{
    FlatSession out;
    if (use_arena)
        out.arena_ = std::make_unique<Arena>();

    out.trees_.reserve(session.threads().size());
    for (const ThreadTree &thread : session.threads())
        out.trees_.push_back(
            flattenForest(thread.roots, out.arena_.get()));

    const auto &episodes = session.episodes();
    out.episodeTree_.reserve(episodes.size());
    out.episodeNode_.reserve(episodes.size());
    for (const Episode &episode : episodes) {
        out.episodeTree_.push_back(
            static_cast<std::uint32_t>(episode.treeIndex));
        out.episodeNode_.push_back(
            out.trees_[episode.treeIndex].roots[episode.rootIndex]);
    }
    return out;
}

std::size_t
flatDepth(const FlatTree &tree, std::uint32_t i)
{
    // Ancestor ends-stack scan: pop ancestors whose subtree closed,
    // push self; the stack height is the depth at each node.  The
    // stack is thread-local so the per-episode hot path never
    // allocates (it only grows to the deepest tree each thread sees).
    static thread_local std::vector<std::uint32_t> ends;
    ends.clear();
    std::size_t deepest = 0;
    const std::uint32_t limit = tree.subtreeEnd[i];
    for (std::uint32_t j = i; j < limit; ++j) {
        while (!ends.empty() && ends.back() <= j)
            ends.pop_back();
        // Capacity persists across calls (thread-local scratch).
        ends.push_back(tree.subtreeEnd[j]); // lag-lint: allow(reserve-loop)
        deepest = std::max(deepest, ends.size());
    }
    return deepest;
}

DurationNs
flatTypeTime(const FlatTree &tree, std::uint32_t i,
             IntervalType wanted)
{
    if (wanted == IntervalType::Gc && tree.gcLeavesOnly)
        return tree.gcTimeIn(i);
    DurationNs total = 0;
    std::uint32_t j = i + 1;
    const std::uint32_t limit = tree.subtreeEnd[i];
    while (j < limit) {
        if (tree.typeOf(j) == wanted) {
            // Matching subtrees are not descended (same-type
            // nesting is never double counted).
            total += tree.duration(j);
            j = tree.subtreeEnd[j];
        } else {
            ++j;
        }
    }
    return total;
}

std::size_t
flatNonGcDescendants(const FlatTree &tree, std::uint32_t i)
{
    if (tree.gcLeavesOnly)
        return tree.subtreeSize(i) - 1 - tree.gcCountIn(i);
    std::size_t count = 0;
    std::uint32_t j = i + 1;
    const std::uint32_t limit = tree.subtreeEnd[i];
    while (j < limit) {
        if (tree.typeOf(j) == IntervalType::Gc) {
            j = tree.subtreeEnd[j];
        } else {
            ++count;
            ++j;
        }
    }
    return count;
}

std::size_t
flatNonGcDepth(const FlatTree &tree, std::uint32_t i)
{
    // Reused across calls for the same reason as in flatDepth.
    static thread_local std::vector<std::uint32_t> ends;
    ends.clear();
    std::size_t deepest = 0;
    std::uint32_t j = i;
    const std::uint32_t limit = tree.subtreeEnd[i];
    while (j < limit) {
        if (j != i && tree.typeOf(j) == IntervalType::Gc) {
            j = tree.subtreeEnd[j];
            continue;
        }
        while (!ends.empty() && ends.back() <= j)
            ends.pop_back();
        // Capacity persists across calls (thread-local scratch).
        ends.push_back(tree.subtreeEnd[j]); // lag-lint: allow(reserve-loop)
        deepest = std::max(deepest, ends.size());
        ++j;
    }
    return deepest;
}

std::uint64_t
flatSignatureHash(const FlatTree &tree, std::uint32_t i,
                  const trace::StringTable &strings,
                  FlatSigStack &scratch)
{
    HashSink sink;
    emitSignature(tree, i, strings, sink, scratch);
    return sink.hasher.digest();
}

void
flatSignatureString(const FlatTree &tree, std::uint32_t i,
                    const trace::StringTable &strings,
                    std::string &out, FlatSigStack &scratch)
{
    StringSink sink{out};
    emitSignature(tree, i, strings, sink, scratch);
}

std::uint64_t
flatSignatureHash(const FlatTree &tree, std::uint32_t i,
                  const trace::StringTable &strings)
{
    FlatSigStack scratch;
    return flatSignatureHash(tree, i, strings, scratch);
}

std::string
flatSignatureString(const FlatTree &tree, std::uint32_t i,
                    const trace::StringTable &strings)
{
    std::string out;
    FlatSigStack scratch;
    flatSignatureString(tree, i, strings, out, scratch);
    return out;
}

bool
flatStructureEquals(const FlatTree &a, std::uint32_t ia,
                    const FlatTree &b, std::uint32_t ib)
{
    std::uint32_t ja = ia;
    std::uint32_t jb = ib;
    const std::uint32_t ea = a.subtreeEnd[ia];
    const std::uint32_t eb = b.subtreeEnd[ib];

    if (a.gcLeavesOnly && b.gcLeavesOnly) {
        // Hot path, O(1) memory: a preorder payload sequence plus
        // per-node projected subtree sizes determines the non-GC
        // tree uniquely.
        while (true) {
            while (ja < ea && a.typeOf(ja) == IntervalType::Gc)
                ja = a.subtreeEnd[ja];
            while (jb < eb && b.typeOf(jb) == IntervalType::Gc)
                jb = b.subtreeEnd[jb];
            const bool doneA = ja >= ea;
            const bool doneB = jb >= eb;
            if (doneA || doneB)
                return doneA == doneB;
            if (a.type[ja] != b.type[jb] ||
                a.classSym[ja] != b.classSym[jb] ||
                a.methodSym[ja] != b.methodSym[jb])
                return false;
            if (nonGcSubtreeSize(a, ja) != nonGcSubtreeSize(b, jb))
                return false;
            ++ja;
            ++jb;
        }
    }

    // General path (GC nodes with children — hand-built trees):
    // compare payload plus projected depth, tracked with ancestor
    // ends-stacks; preorder + depth also determines the tree.
    std::vector<std::uint32_t> sa;
    std::vector<std::uint32_t> sb;
    sa.reserve(16);
    sb.reserve(16);
    while (true) {
        while (ja < ea && a.typeOf(ja) == IntervalType::Gc)
            ja = a.subtreeEnd[ja];
        while (jb < eb && b.typeOf(jb) == IntervalType::Gc)
            jb = b.subtreeEnd[jb];
        const bool doneA = ja >= ea;
        const bool doneB = jb >= eb;
        if (doneA || doneB)
            return doneA == doneB;
        while (!sa.empty() && sa.back() <= ja)
            sa.pop_back();
        while (!sb.empty() && sb.back() <= jb)
            sb.pop_back();
        if (sa.size() != sb.size())
            return false;
        if (a.type[ja] != b.type[jb] ||
            a.classSym[ja] != b.classSym[jb] ||
            a.methodSym[ja] != b.methodSym[jb])
            return false;
        sa.push_back(a.subtreeEnd[ja]);
        sb.push_back(b.subtreeEnd[jb]);
        ++ja;
        ++jb;
    }
}

} // namespace lag::core
