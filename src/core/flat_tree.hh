/**
 * @file
 * Structure-of-arrays flattening of a session's interval trees.
 *
 * The node tree (interval.hh) is the build-time representation:
 * vectors of vectors, one heap (or arena) object per child list,
 * walked by pointer-chasing recursion.  Every analysis stage walks
 * those trees once per episode, so after the zero-copy decode and
 * the incremental cache the scalar walks dominate a warm analysis
 * pass.  FlatTree re-stores one thread's whole forest as parallel
 * arrays in DFS preorder:
 *
 *     begin[] end[] type[] classSym[] methodSym[] gcKind[]
 *     subtreeEnd[]   — one past the last descendant of node i
 *
 * Preorder plus `subtreeEnd` turns any subtree into the contiguous
 * index slice [i, subtreeEnd[i]): descendant counts become index
 * arithmetic, preorder searches become linear scans over a byte
 * array, and type-time walks become branchy-but-local loops instead
 * of recursion.  GC nodes
 * are leaves in every Session::fromTrace tree, so per-node GC
 * count/time prefix sums additionally make "GC time under this
 * subtree" an O(1) subtraction; trees where a GC node has children
 * (hand-built inputs) fall back to the general scan.
 *
 * The arrays live in a FlatSession-owned bump arena by default
 * (mirroring SessionBuildOptions), sized exactly up front, so
 * flattening composes with Session::fromTrace without adding heap
 * churn.  Flattening is iterative by construction — an explicit
 * stack, never the C stack — so hostile nesting depth cannot
 * overflow anything here.
 *
 * Every per-episode analysis (pattern signatures, triggers, GC and
 * native time) runs on this layout only.  tests/golden/ pins the
 * results, as digests frozen from the node-tree walks the flat ones
 * replaced.
 */

#ifndef LAG_CORE_FLAT_TREE_HH
#define LAG_CORE_FLAT_TREE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "interval.hh"
#include "session.hh"
#include "util/arena.hh"
#include "util/types.hh"

namespace lag::core
{

/** Vector type of the flat arrays; default-constructed = heap. */
template <typename T>
using FlatVec = std::vector<T, ArenaAllocator<T>>;

/** One thread's interval forest in structure-of-arrays preorder. */
struct FlatTree
{
    FlatTree() = default;

    /** Seed every array from @p arena (null = global heap). */
    explicit FlatTree(Arena *arena)
        : begin(ArenaAllocator<TimeNs>(arena)),
          end(ArenaAllocator<TimeNs>(arena)),
          subtreeEnd(ArenaAllocator<std::uint32_t>(arena)),
          classSym(ArenaAllocator<SymbolId>(arena)),
          methodSym(ArenaAllocator<SymbolId>(arena)),
          type(ArenaAllocator<std::uint8_t>(arena)),
          gcKind(ArenaAllocator<std::uint8_t>(arena)),
          roots(ArenaAllocator<std::uint32_t>(arena)),
          gcCountBefore(ArenaAllocator<std::uint32_t>(arena)),
          gcTimeBefore(ArenaAllocator<DurationNs>(arena))
    {
    }

    /** @name Parallel per-node arrays (DFS preorder). @{ */
    FlatVec<TimeNs> begin;
    FlatVec<TimeNs> end;
    FlatVec<std::uint32_t> subtreeEnd; ///< one past last descendant
    FlatVec<SymbolId> classSym;
    FlatVec<SymbolId> methodSym;
    FlatVec<std::uint8_t> type;   ///< IntervalType
    FlatVec<std::uint8_t> gcKind; ///< trace::TraceGcKind
    /** @} */

    /** Flat index of each root, in root (= time) order. */
    FlatVec<std::uint32_t> roots;

    /** Prefix sums over nodes [0, i): number of GC nodes and total
     * GC duration.  Size node count + 1.  Valid as subtree
     * aggregates only while gcLeavesOnly holds. */
    FlatVec<std::uint32_t> gcCountBefore;
    FlatVec<DurationNs> gcTimeBefore;

    /** True when every GC node is a leaf (always, for trees built
     * by Session::fromTrace); enables the O(1) GC aggregates. */
    bool gcLeavesOnly = true;

    std::size_t size() const { return begin.size(); }

    DurationNs
    duration(std::uint32_t i) const
    {
        return end[i] - begin[i];
    }

    IntervalType
    typeOf(std::uint32_t i) const
    {
        return static_cast<IntervalType>(type[i]);
    }

    /** Nodes in the subtree rooted at @p i, including @p i. */
    std::uint32_t
    subtreeSize(std::uint32_t i) const
    {
        return subtreeEnd[i] - i;
    }

    /** GC nodes inside [i, subtreeEnd[i]) excluding @p i itself. */
    std::uint32_t
    gcCountIn(std::uint32_t i) const
    {
        return gcCountBefore[subtreeEnd[i]] - gcCountBefore[i + 1];
    }

    /** Total duration of GC nodes below @p i (gcLeavesOnly only). */
    DurationNs
    gcTimeIn(std::uint32_t i) const
    {
        return gcTimeBefore[subtreeEnd[i]] - gcTimeBefore[i + 1];
    }
};

/**
 * All per-thread flat trees of one session plus the episode-to-node
 * index, built once per analysis pass by flattenSession().  Owns
 * the arena its arrays live in; move-only for exactly that reason.
 */
class FlatSession
{
  public:
    FlatSession() = default;
    FlatSession(FlatSession &&) noexcept = default;
    FlatSession &operator=(FlatSession &&) noexcept = default;
    FlatSession(const FlatSession &) = delete;
    FlatSession &operator=(const FlatSession &) = delete;

    /** Flat trees, parallel to Session::threads(). */
    const std::vector<FlatTree> &trees() const { return trees_; }

    /** Tree index of episode @p e (parallel to episodes()). */
    std::uint32_t
    episodeTree(std::size_t e) const
    {
        return episodeTree_[e];
    }

    /** Flat root-node index of episode @p e. */
    std::uint32_t
    episodeNode(std::size_t e) const
    {
        return episodeNode_[e];
    }

    /** Arena backing the arrays; null for heap builds. */
    const Arena *arena() const { return arena_.get(); }

  private:
    friend FlatSession flattenSession(const Session &session,
                                      bool use_arena);

    // Destroyed last: the trees' arrays live inside it.
    std::unique_ptr<Arena> arena_;
    std::vector<FlatTree> trees_;
    std::vector<std::uint32_t> episodeTree_;
    std::vector<std::uint32_t> episodeNode_;
};

/**
 * Flatten every thread tree of @p session.  Node counts are taken
 * from a sizing pre-pass so each array is reserved exactly; with
 * @p use_arena (the default) the arrays bump-allocate from a
 * session-independent arena owned by the result.
 */
FlatSession flattenSession(const Session &session,
                           bool use_arena = true);

/**
 * Flatten one interval forest (iteratively — safe at any nesting
 * depth).  The building block of flattenSession, exposed so tests
 * and benchmarks can flatten hand-built trees without a Session.
 * @p arena may be null (global heap).
 */
FlatTree flattenForest(const IntervalVec &roots,
                       Arena *arena = nullptr);

/** @name Flat walks.
 * All take a tree and a flat node index; @c flatDescendantCount is
 * pure index arithmetic, the rest are linear scans over the slice.
 * @{ */

/** Number of descendants of @p i (excluding @p i). */
inline std::size_t
flatDescendantCount(const FlatTree &tree, std::uint32_t i)
{
    return tree.subtreeSize(i) - 1;
}

/** Depth of the subtree at @p i; a leaf has depth 1. */
std::size_t flatDepth(const FlatTree &tree, std::uint32_t i);

/** Total duration of descendants of @p i with @p wanted type,
 * never descending into a matching node (nested same-type intervals
 * count once).  GC queries are O(1) via the prefix sums when
 * gcLeavesOnly. */
DurationNs flatTypeTime(const FlatTree &tree, std::uint32_t i,
                        IntervalType wanted);

/** Descendants of @p i that are not GC nodes or inside one (Table
 * III "Descs"). */
std::size_t flatNonGcDescendants(const FlatTree &tree,
                                 std::uint32_t i);

/** Depth of the subtree at @p i ignoring GC nodes; a leaf is 1. */
std::size_t flatNonGcDepth(const FlatTree &tree, std::uint32_t i);

/** @} */

/** @name Flat signature emission.
 * The canonical structural signature of a subtree (Pattern::
 * signature, paper §II.D): each node emits its type letter (D, L,
 * P, N, A), then "[class.method]" when either symbol is set, then
 * its children's signatures wrapped in "(...)" when it has any.
 * GC nodes and everything below them are skipped; timing is never
 * part of it.  Emitted straight from the flat slice: hash-only for
 * the per-episode hot path (no intermediate string), string
 * materialization for first-seen patterns, and an id-level
 * structural comparison that decides signature equality without
 * touching either string.
 * @{ */

/** One frame of the iterative signature walk (a child range plus
 * whether its '(' has been emitted). */
struct FlatSigFrame
{
    std::uint32_t cursor = 0;
    std::uint32_t end = 0;
    bool opened = false;
};

/** Reusable walk stack: pass the same one across episodes and the
 * per-episode emission allocates nothing. */
using FlatSigStack = std::vector<FlatSigFrame>;

/**
 * FNV-1a 64 of the signature of @p i, computed in one pass over the
 * slice with no intermediate string.  @p i must not be a GC node.
 */
std::uint64_t flatSignatureHash(const FlatTree &tree,
                                std::uint32_t i,
                                const trace::StringTable &strings,
                                FlatSigStack &scratch);

/** Append the signature of @p i to @p out. */
void flatSignatureString(const FlatTree &tree, std::uint32_t i,
                         const trace::StringTable &strings,
                         std::string &out, FlatSigStack &scratch);

/** Convenience one-shot forms (own scratch per call). */
std::uint64_t flatSignatureHash(const FlatTree &tree,
                                std::uint32_t i,
                                const trace::StringTable &strings);
std::string flatSignatureString(const FlatTree &tree,
                                std::uint32_t i,
                                const trace::StringTable &strings);

/**
 * True when the subtrees at @p ia / @p ib have identical non-GC
 * structure and identical (type, classSym, methodSym) per node.
 * Within one session symbol ids are interned uniquely, so id-level
 * equality implies signature-string equality (the converse can fail
 * for pathological symbol strings; mining falls back to a string
 * comparison in that case).
 */
bool flatStructureEquals(const FlatTree &a, std::uint32_t ia,
                         const FlatTree &b, std::uint32_t ib);

/** @} */

} // namespace lag::core

#endif // LAG_CORE_FLAT_TREE_HH
