/**
 * @file
 * Analysis hot-path microbenchmarks on the flat layout.
 *
 * Each run prints one JSON line per kernel, timed on the same 60 s
 * GanttProject session:
 *
 *  - `flat_build`            cost of flattenSession itself
 *  - `sig_mpatterns_per_s`   one-pass signature hashing
 *                            (flatSignatureHash), millions of
 *                            signatures per second
 *  - `walk_mnodes_per_s`     structural walks (descendant count,
 *                            depth, GC time), millions of logical
 *                            nodes walked per second
 *  - `classify_mepisodes_per_s`  trigger classification
 *                            (flatEpisodeTrigger), millions of
 *                            episodes per second
 *  - `merge_mepisodes_per_s` the serial shard-merge tail of the
 *                            parallel miner (PatternMiner::merge
 *                            over 8 flat-mined shards)
 *
 * Before timing anything, the session's full analysis is checked
 * against its golden digest (tests/golden/fixtures.txt); a mismatch
 * prints to stderr and the process exits nonzero, so `ctest -L
 * perf` doubles as a correctness smoke.  `--smoke` runs few
 * iterations (CI); the full run uses enough repetitions for stable
 * rates. Record full-run lines in EXPERIMENTS.md when the hot path
 * changes.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "app/catalog.hh"
#include "app/session_runner.hh"
#include "core/flat_tree.hh"
#include "core/pattern.hh"
#include "core/triggers.hh"
#include "engine/result_cache.hh"
#include "golden.hh"

namespace
{

using namespace lag;

/** One cached 60 s GanttProject session and its flat layout. */
struct Fixture
{
    core::Session session;
    core::FlatSession flat;
    std::size_t episodes;
    std::uint64_t nodes;

    Fixture()
        : session([] {
              app::AppParams params =
                  app::catalogApp("GanttProject");
              params.sessionLength = secToNs(60);
              return core::Session::fromTrace(
                  app::runSession(params, 0).trace);
          }()),
          flat(core::flattenSession(session)),
          episodes(session.episodes().size()), nodes(0)
    {
        for (const core::FlatTree &tree : flat.trees())
            nodes += tree.size();
    }

    static const Fixture &
    get()
    {
        static const Fixture fixture;
        return fixture;
    }
};

/** Wall time of @p fn in milliseconds. */
template <typename Fn>
double
timedMs(const Fn &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
}

/** Golden-file key of the fixture session. */
constexpr const char *kGoldenKey = "session/GanttProject-60s";

/**
 * The fixture's full analysis must reproduce its golden digest.
 * Returns false (after printing both digests) when it does not.
 */
bool
verifyGolden(const Fixture &f)
{
    const auto golden = test::readGoldenFile(LAG_GOLDEN_FILE);
    const auto it = golden.find(kGoldenKey);
    const std::string actual = test::digestHex(test::analysisDigest(
        engine::analyzeSession(f.session, msToNs(100))));
    if (it == golden.end() || it->second != actual) {
        std::fprintf(stderr,
                     "%s: analysis digest %s, golden %s (%s)\n",
                     kGoldenKey, actual.c_str(),
                     it == golden.end() ? "missing" : it->second.c_str(),
                     LAG_GOLDEN_FILE);
        return false;
    }
    return true;
}

void
reportFlatBuild(const Fixture &f, int reps)
{
    const double ms = timedMs([&] {
        for (int r = 0; r < reps; ++r) {
            const core::FlatSession flat =
                core::flattenSession(f.session);
            benchmark::DoNotOptimize(flat.trees().data());
        }
    }) / reps;
    std::printf(
        "{\"bench\":\"flat_build\",\"trees\":%llu,\"nodes\":%llu,"
        "\"build_ms\":%.3f,\"mnodes_per_s\":%.1f}\n",
        static_cast<unsigned long long>(f.flat.trees().size()),
        static_cast<unsigned long long>(f.nodes), ms,
        ms > 0.0 ? static_cast<double>(f.nodes) / (ms * 1e3) : 0.0);
    std::fflush(stdout);
}

/** Print `{"bench":<name>,<count_key>:<count>,"reps":..,"flat":..}`
 * where "flat" is @p units millions per second. */
void
printRate(const char *name, const char *count_key,
          unsigned long long count, int reps, double units, double ms)
{
    std::printf("{\"bench\":\"%s\",\"%s\":%llu,\"reps\":%d,"
                "\"flat\":%.3f}\n",
                name, count_key, count, reps,
                ms > 0.0 ? units / 1e6 / (ms / 1e3) : 0.0);
    std::fflush(stdout);
}

void
reportSignatureHashing(const Fixture &f, int reps)
{
    const auto &strings = f.session.strings();
    const auto &trees = f.flat.trees();

    std::uint64_t sum = 0;
    core::FlatSigStack scratch;
    const double ms = timedMs([&] {
        for (int r = 0; r < reps; ++r) {
            for (std::size_t i = 0; i < f.episodes; ++i) {
                sum += core::flatSignatureHash(
                    trees[f.flat.episodeTree(i)],
                    f.flat.episodeNode(i), strings, scratch);
            }
        }
    }) / reps;
    benchmark::DoNotOptimize(sum);
    printRate("sig_mpatterns_per_s", "episodes", f.episodes, reps,
              static_cast<double>(f.episodes), ms);
}

void
reportStructuralWalks(const Fixture &f, int reps)
{
    const auto &trees = f.flat.trees();

    // Logical work per pass: every episode node visited once per
    // walk kind (count, depth, GC time). The flat layout answers two
    // of the three in O(1); the rate measures work accomplished,
    // not instructions retired.
    std::uint64_t episodeNodes = 0;
    for (std::size_t i = 0; i < f.episodes; ++i) {
        episodeNodes += core::flatDescendantCount(
                            trees[f.flat.episodeTree(i)],
                            f.flat.episodeNode(i)) +
                        1;
    }

    std::uint64_t sum = 0;
    const double ms = timedMs([&] {
        for (int r = 0; r < reps; ++r) {
            for (std::size_t i = 0; i < f.episodes; ++i) {
                const core::FlatTree &tree =
                    trees[f.flat.episodeTree(i)];
                const std::uint32_t node = f.flat.episodeNode(i);
                sum += core::flatDescendantCount(tree, node) +
                       core::flatDepth(tree, node) +
                       static_cast<std::uint64_t>(core::flatTypeTime(
                           tree, node, core::IntervalType::Gc));
            }
        }
    }) / reps;
    benchmark::DoNotOptimize(sum);
    printRate("walk_mnodes_per_s", "logical_nodes", 3 * episodeNodes,
              reps, 3.0 * static_cast<double>(episodeNodes), ms);
}

void
reportClassification(const Fixture &f, int reps)
{
    const auto &trees = f.flat.trees();

    std::uint64_t sum = 0;
    const double ms = timedMs([&] {
        for (int r = 0; r < reps; ++r) {
            for (std::size_t i = 0; i < f.episodes; ++i) {
                sum += static_cast<std::uint64_t>(
                    core::flatEpisodeTrigger(
                        trees[f.flat.episodeTree(i)],
                        f.flat.episodeNode(i)));
            }
        }
    }) / reps;
    benchmark::DoNotOptimize(sum);
    printRate("classify_mepisodes_per_s", "episodes", f.episodes, reps,
              static_cast<double>(f.episodes), ms);
}

void
reportSummaryMerge(const Fixture &f, int reps)
{
    // The merge step of the sharded miner: mine 8 shards once (off
    // the clock, on the flat path), then time reducing copies of
    // them — the serial tail every parallel mine pays.
    constexpr std::size_t kShards = 8;
    const core::PatternMiner miner(msToNs(100));
    std::vector<core::PatternShard> shards;
    shards.reserve(kShards);
    for (std::size_t s = 0; s < kShards; ++s) {
        const std::size_t begin = f.episodes * s / kShards;
        const std::size_t end = f.episodes * (s + 1) / kShards;
        shards.push_back(
            miner.mineRange(f.session, f.flat, begin, end));
    }

    std::size_t patternSum = 0;
    const double merge_ms = timedMs([&] {
        for (int r = 0; r < reps; ++r) {
            patternSum +=
                miner.merge(shards).patterns.size();
        }
    }) / reps;
    benchmark::DoNotOptimize(patternSum);

    const double m = static_cast<double>(f.episodes) / 1e6;
    std::printf(
        "{\"bench\":\"merge_mepisodes_per_s\",\"shards\":%llu,"
        "\"episodes\":%llu,\"reps\":%d,\"patterns\":%llu,"
        "\"merged\":%.3f}\n",
        static_cast<unsigned long long>(kShards),
        static_cast<unsigned long long>(f.episodes), reps,
        static_cast<unsigned long long>(patternSum / reps),
        merge_ms > 0.0 ? m / (merge_ms / 1e3) : 0.0);
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int in = 1; in < argc; ++in) {
        if (std::string_view(argv[in]) == "--smoke")
            smoke = true;
    }

    const Fixture &f = Fixture::get();
    if (!verifyGolden(f))
        return 1;

    const int reps = smoke ? 3 : 100;
    reportFlatBuild(f, smoke ? 3 : 20);
    reportSignatureHashing(f, reps);
    reportStructuralWalks(f, reps);
    reportClassification(f, reps);
    reportSummaryMerge(f, smoke ? 3 : 50);
    return 0;
}
