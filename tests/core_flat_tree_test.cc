/**
 * @file
 * Tests for the flat (structure-of-arrays) interval trees: preorder
 * layout invariants, walk/signature/mining results on the shared
 * fixtures, iterative walks on hostile nesting, the general scans
 * for GC nodes with children, and structural equality.
 *
 * The expected walk, signature and mining values below are what the
 * node-tree reference walks returned on the same fixtures before
 * the analyses moved to the flat layout alone (tests/golden/ pins
 * the same inputs as digests).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis_fixtures.hh"
#include "core/flat_tree.hh"
#include "core/location.hh"
#include "core/pattern.hh"
#include "core/triggers.hh"
#include "util/hash.hh"

namespace lag::core
{
namespace
{

using test::richSession;

/** Preorder walk of a node tree collecting each node and its
 * subtree size (the node plus all descendants). */
std::size_t
preorder(const IntervalNode &node,
         std::vector<std::pair<const IntervalNode *, std::size_t>> &out)
{
    const std::size_t at = out.size();
    out.emplace_back(&node, 0);
    std::size_t size = 1;
    for (const auto &child : node.children)
        size += preorder(child, out);
    out[at].second = size;
    return size;
}

TEST(FlatTreeTest, PreorderLayoutMatchesNodeTree)
{
    const Session session = richSession();
    const FlatSession flat = flattenSession(session);
    ASSERT_EQ(flat.trees().size(), session.threads().size());

    for (std::size_t t = 0; t < flat.trees().size(); ++t) {
        const FlatTree &tree = flat.trees()[t];
        std::vector<std::pair<const IntervalNode *, std::size_t>> nodes;
        for (const IntervalNode &root :
             session.threads()[t].roots)
            preorder(root, nodes);
        ASSERT_EQ(tree.size(), nodes.size());
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const IntervalNode &node = *nodes[i].first;
            EXPECT_EQ(tree.typeOf(i), node.type) << i;
            EXPECT_EQ(tree.begin[i], node.begin) << i;
            EXPECT_EQ(tree.end[i], node.end) << i;
            EXPECT_EQ(tree.classSym[i], node.classSym) << i;
            EXPECT_EQ(tree.methodSym[i], node.methodSym) << i;
            // Subtree slice = this node plus all descendants.
            EXPECT_EQ(tree.subtreeSize(static_cast<std::uint32_t>(i)),
                      nodes[i].second)
                << i;
        }
    }
}

TEST(FlatTreeTest, EpisodeRefsPointAtEpisodeRoots)
{
    const Session session = richSession();
    const FlatSession flat = flattenSession(session);
    ASSERT_EQ(session.episodes().size(), 3u);
    for (std::size_t i = 0; i < session.episodes().size(); ++i) {
        const IntervalNode &root =
            session.episodeRoot(session.episodes()[i]);
        const FlatTree &tree = flat.trees()[flat.episodeTree(i)];
        const std::uint32_t node = flat.episodeNode(i);
        EXPECT_EQ(tree.begin[node], root.begin);
        EXPECT_EQ(tree.end[node], root.end);
        EXPECT_EQ(tree.typeOf(node), IntervalType::Dispatch);
    }
}

TEST(FlatTreeTest, WalksMatchNodeWalks)
{
    struct Expected
    {
        std::size_t descendants;
        std::size_t depth;
        DurationNs listener, paint, native, async, gc;
        DurationNs nativeExcludingGc;
        TriggerKind trigger;
    };
    // Per richSession episode, as the node-tree walks computed them.
    const Expected expected[] = {
        {4, 4, 7999000, 3000000, 5998000, 0, 1000, 5997000,
         TriggerKind::Input},
        {2, 3, 0, 1000000, 0, 3000000, 0, 0, TriggerKind::Output},
        {0, 1, 0, 0, 0, 0, 0, 0, TriggerKind::Unspecified},
    };

    const Session session = richSession();
    const FlatSession flat = flattenSession(session);
    ASSERT_EQ(session.episodes().size(), std::size(expected));
    for (std::size_t i = 0; i < session.episodes().size(); ++i) {
        SCOPED_TRACE(i);
        const Expected &want = expected[i];
        const FlatTree &tree = flat.trees()[flat.episodeTree(i)];
        const std::uint32_t node = flat.episodeNode(i);
        EXPECT_EQ(flatDescendantCount(tree, node), want.descendants);
        EXPECT_EQ(flatDepth(tree, node), want.depth);
        EXPECT_EQ(flatTypeTime(tree, node, IntervalType::Listener),
                  want.listener);
        EXPECT_EQ(flatTypeTime(tree, node, IntervalType::Paint),
                  want.paint);
        EXPECT_EQ(flatTypeTime(tree, node, IntervalType::Native),
                  want.native);
        EXPECT_EQ(flatTypeTime(tree, node, IntervalType::Async),
                  want.async);
        EXPECT_EQ(flatTypeTime(tree, node, IntervalType::Gc), want.gc);
        EXPECT_EQ(flatNativeTimeExcludingGc(tree, node),
                  want.nativeExcludingGc);
        EXPECT_EQ(flatEpisodeTrigger(tree, node), want.trigger);
    }
}

TEST(FlatTreeTest, SignaturesMatchNodeSignatures)
{
    // As the node-tree emission produced them.
    const char *expected[] = {
        "D(L[app.A.act](N[app.N.jni])P[app.P.p])",
        "D(A[app.Q.r](P[app.P.p]))",
        "D",
    };
    const Session session = richSession();
    const FlatSession flat = flattenSession(session);
    FlatSigStack scratch;
    ASSERT_EQ(session.episodes().size(), std::size(expected));
    for (std::size_t i = 0; i < session.episodes().size(); ++i) {
        const FlatTree &tree = flat.trees()[flat.episodeTree(i)];
        const std::uint32_t node = flat.episodeNode(i);
        EXPECT_EQ(flatSignatureString(tree, node, session.strings()),
                  expected[i]);
        EXPECT_EQ(flatSignatureHash(tree, node, session.strings(),
                                    scratch),
                  fnv1a(expected[i]));
    }
}

TEST(FlatTreeTest, FlatMiningIsByteIdenticalToNodeMining)
{
    const Session session = test::miningSession();
    const FlatSession flat = flattenSession(session);
    const PatternMiner miner(msToNs(100));
    const PatternSet set = miner.mine(session, flat);

    // As the node-tree miner grouped them.
    EXPECT_EQ(set.coveredEpisodes, 5u);
    EXPECT_EQ(set.structurelessEpisodes, 1u);
    ASSERT_EQ(set.patterns.size(), 2u);
    const Pattern &a = set.patterns[0];
    EXPECT_EQ(a.signature, "D(L[app.A.actionPerformed])");
    EXPECT_EQ(a.key, fnv1a(a.signature));
    EXPECT_EQ(a.episodes, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(a.minLag, msToNs(50));
    EXPECT_EQ(a.maxLag, msToNs(50));
    EXPECT_EQ(a.totalLag, msToNs(150));
    EXPECT_EQ(a.perceptibleCount, 0u);
    EXPECT_FALSE(a.firstPerceptible);
    EXPECT_EQ(a.descendants, 1u);
    EXPECT_EQ(a.depth, 2u);
    EXPECT_EQ(a.occurrence, OccurrenceClass::Never);
    const Pattern &b = set.patterns[1];
    EXPECT_EQ(b.signature, "D(L[app.B.actionPerformed])");
    EXPECT_EQ(b.episodes, (std::vector<std::size_t>{3, 4}));
    EXPECT_EQ(b.totalLag, msToNs(300));
    EXPECT_EQ(b.perceptibleCount, 2u);
    EXPECT_TRUE(b.firstPerceptible);
    EXPECT_EQ(b.occurrence, OccurrenceClass::Always);

    // The session-only convenience and any split of the episode
    // axis mine the same set.
    const PatternSet oneShot = miner.mine(session);
    std::vector<PatternShard> shards;
    shards.push_back(miner.mineRange(session, flat, 0, 2));
    shards.push_back(miner.mineRange(session, flat, 2, 6));
    const PatternSet merged = miner.merge(std::move(shards));
    for (const PatternSet *other : {&oneShot, &merged}) {
        ASSERT_EQ(other->patterns.size(), set.patterns.size());
        for (std::size_t p = 0; p < set.patterns.size(); ++p) {
            EXPECT_EQ(other->patterns[p].signature,
                      set.patterns[p].signature);
            EXPECT_EQ(other->patterns[p].episodes,
                      set.patterns[p].episodes);
        }
    }
}

TEST(FlatTreeTest, DeepTreesAreIterativeOnFlatAndGuardedOnNodes)
{
    const std::size_t depth = 2 * kMaxIntervalDepth;
    const IntervalVec roots = test::deepForest(depth);

    // The node tree's one recursive walk must refuse (TraceError),
    // not smash the stack.
    EXPECT_THROW(roots.front().depth(), trace::TraceError);

    // Flat walks are iterative by construction: any depth works.
    const FlatTree tree = flattenForest(roots);
    ASSERT_EQ(tree.size(), depth);
    EXPECT_EQ(flatDescendantCount(tree, 0), depth - 1);
    EXPECT_EQ(flatDepth(tree, 0), depth);
    EXPECT_EQ(flatTypeTime(tree, 0, IntervalType::Gc), 0);
    EXPECT_EQ(flatEpisodeTrigger(tree, 0), TriggerKind::Unspecified);
    trace::StringTable strings;
    const std::string sig = flatSignatureString(tree, 0, strings);
    EXPECT_EQ(sig.size(), depth + 2 * (depth - 1));
}

TEST(FlatTreeTest, GcParentsTakeTheGeneralScans)
{
    trace::StringTable strings;
    const FlatTree tree = flattenForest(test::gcParentForest(strings));
    ASSERT_FALSE(tree.gcLeavesOnly);
    ASSERT_EQ(tree.roots.size(), 3u);
    const std::uint32_t first = tree.roots[0];
    const std::uint32_t third = tree.roots[2];

    // GC subtrees vanish from the structure: the first root keeps
    // its two natives and the async, two levels deep below it.
    EXPECT_EQ(flatNonGcDescendants(tree, first), 3u);
    EXPECT_EQ(flatNonGcDepth(tree, first), 3u);
    EXPECT_EQ(flatSignatureString(tree, first, strings),
              "D(N[app.Main.jni](N[app.Main.jni])A[app.Main.act])");
    EXPECT_EQ(flatNonGcDescendants(tree, third), 0u);
    EXPECT_EQ(flatNonGcDepth(tree, third), 1u);
    EXPECT_EQ(flatSignatureString(tree, third, strings), "D");

    // GC time counts each outermost GC once, nested or not.
    EXPECT_EQ(flatTypeTime(tree, first, IntervalType::Gc), 20 + 3 + 20 + 3);
    // Native time: the outer native (50) less its GCs (20 + 3); the
    // native inside the root-level GC is not counted.
    EXPECT_EQ(flatNativeTimeExcludingGc(tree, first), 50 - 20 - 3);

    // Markers inside GC subtrees still decide the trigger.
    EXPECT_EQ(flatEpisodeTrigger(tree, first), TriggerKind::Input);
    EXPECT_EQ(flatEpisodeTrigger(tree, tree.roots[1]),
              TriggerKind::Output);
    EXPECT_EQ(flatEpisodeTrigger(tree, third), TriggerKind::Input);

    // GC-blind equality on the general path.
    EXPECT_TRUE(flatStructureEquals(tree, first, tree, first));
    EXPECT_FALSE(flatStructureEquals(tree, first, tree, third));
}

TEST(FlatTreeTest, StructureEqualsIsGcBlindAndSymbolSensitive)
{
    using trace::IntervalKind;
    // Symbol ids only compare within one session, so all three
    // episode shapes live in the same trace: plain, plain + GC,
    // different class.
    test::TraceBuilder builder;
    builder.dispatchBegin(0)
        .intervalBegin(1000, IntervalKind::Listener, "app.A", "act")
        .intervalEnd(msToNs(5), IntervalKind::Listener)
        .dispatchEnd(msToNs(6));
    builder.dispatchBegin(msToNs(10))
        .intervalBegin(msToNs(11), IntervalKind::Listener, "app.A",
                       "act")
        .gc(msToNs(12), msToNs(13))
        .intervalEnd(msToNs(15), IntervalKind::Listener)
        .dispatchEnd(msToNs(16));
    builder.dispatchBegin(msToNs(20))
        .intervalBegin(msToNs(21), IntervalKind::Listener, "app.B",
                       "act")
        .intervalEnd(msToNs(25), IntervalKind::Listener)
        .dispatchEnd(msToNs(26));
    const Session session = builder.buildSession(secToNs(1));
    const FlatSession flat = flattenSession(session);

    const auto treeOf = [&flat](std::size_t e) -> const FlatTree & {
        return flat.trees()[flat.episodeTree(e)];
    };
    // Same symbols, GC ignored: equal.
    EXPECT_TRUE(flatStructureEquals(treeOf(0), flat.episodeNode(0),
                                    treeOf(1), flat.episodeNode(1)));
    // Different class symbol: not equal.
    EXPECT_FALSE(flatStructureEquals(treeOf(0), flat.episodeNode(0),
                                     treeOf(2), flat.episodeNode(2)));
    // Reflexive.
    EXPECT_TRUE(flatStructureEquals(treeOf(2), flat.episodeNode(2),
                                    treeOf(2), flat.episodeNode(2)));
}

TEST(FlatTreeTest, GcPrefixSumsAnswerSubtreeQueries)
{
    const Session session = richSession();
    const FlatSession flat = flattenSession(session);
    const FlatTree &tree = flat.trees()[flat.episodeTree(0)];
    const std::uint32_t node = flat.episodeNode(0);
    ASSERT_TRUE(tree.gcLeavesOnly);
    // Episode 0 contains exactly one GC of 1000 ns (inside the
    // native call).
    EXPECT_EQ(tree.gcCountIn(node), 1u);
    EXPECT_EQ(tree.gcTimeIn(node), 1000);
    // Episode 2 (structureless) contains none.
    const FlatTree &tree2 = flat.trees()[flat.episodeTree(2)];
    EXPECT_EQ(tree2.gcCountIn(flat.episodeNode(2)), 0u);
}

} // namespace
} // namespace lag::core
