/**
 * @file
 * Golden-digest suite for the analysis pipeline.
 *
 * tests/golden/ pins the analysis of every catalog app model (each
 * session of a 3 s quick study), of one 60 s session long enough to
 * shard, and of the hand-built fixtures in analysis_fixtures.hh as
 * FNV-1a digests (see golden.hh).  The
 * digests were frozen from the node-tree reference analysis; the
 * flat pipelines — analyzeSession, analyzeSessionParallel at any
 * worker count, and a result-cache round trip — must reproduce them
 * exactly.  On a mismatch the test prints the actual digest lines,
 * which is how a deliberate change of results or format is
 * re-frozen.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis_fixtures.hh"
#include "app/catalog.hh"
#include "app/session_runner.hh"
#include "app/study.hh"
#include "core/flat_tree.hh"
#include "core/location.hh"
#include "core/triggers.hh"
#include "engine/parallel_analysis.hh"
#include "engine/pool.hh"
#include "engine/result_cache.hh"
#include "golden.hh"
#include "scratch_dir.hh"
#include "util/hash.hh"

namespace lag::engine
{
namespace
{

/** Fail with every differing key plus the full actual file when
 * @p actual does not reproduce tests/golden/@p name. */
void
expectGolden(const std::string &name, const test::GoldenDigests &actual)
{
    const std::vector<std::string> bad = test::goldenMismatches(
        test::readGoldenFile(std::string(LAG_GOLDEN_DIR) + "/" + name),
        actual);
    if (bad.empty())
        return;
    std::string keys;
    for (const std::string &key : bad)
        keys += "  " + key + "\n";
    ADD_FAILURE() << bad.size() << " digest(s) differ from tests/golden/"
                  << name << ":\n"
                  << keys
                  << "Actual digests (to re-freeze a deliberate change, "
                     "replace the file's data lines with these):\n"
                  << test::formatGoldenFile(actual);
}

/** The study the quick_study digests pin: every catalog app, every
 * session, 3 s long, default seeds. */
app::StudyConfig
goldenStudy(const std::string &cache_dir)
{
    app::StudyConfig config = app::StudyConfig::quickStudy(3);
    config.cacheDir = cache_dir;
    config.jobs = 4;
    return config;
}

std::string
studyKey(const app::StudyConfig &config, std::size_t app,
         std::uint32_t session)
{
    return "study/" + config.apps[app].name + "/" +
           std::to_string(session);
}

constexpr core::IntervalType kTimedTypes[] = {
    core::IntervalType::Listener, core::IntervalType::Paint,
    core::IntervalType::Native, core::IntervalType::Async,
    core::IntervalType::Gc};

/**
 * Per-root analysis record of a hand-built forest, one text line
 * per root: signature, trigger, native time excluding GC, time per
 * interval type, descendant count and depth.  Forests have no
 * Session, so their digest is over this record instead of
 * serializeSessionAnalysis bytes.
 */
std::string
forestRecord(const core::FlatTree &tree,
             const trace::StringTable &strings)
{
    std::string out;
    for (const std::uint32_t root : tree.roots) {
        out += core::flatSignatureString(tree, root, strings);
        out += ' ';
        out += core::triggerKindName(core::flatEpisodeTrigger(tree, root));
        out += ' ' +
               std::to_string(core::flatNativeTimeExcludingGc(tree, root));
        for (const core::IntervalType type : kTimedTypes)
            out += ' ' + std::to_string(core::flatTypeTime(tree, root, type));
        out += ' ' + std::to_string(core::flatDescendantCount(tree, root));
        out += ' ' + std::to_string(core::flatDepth(tree, root));
        out += '\n';
    }
    return out;
}

TEST(FlatEquivalence, EveryAppModelAnalyzesByteIdentically)
{
    const test::ScratchDir dir("study");
    const app::StudyConfig config = goldenStudy(dir.path);
    ASSERT_GE(config.apps.size(), 14u)
        << "catalog shrank; the suite must cover every app model";
    app::Study study(config);
    study.ensureTraces();

    const DurationNs threshold = config.perceptibleThreshold;
    ThreadPool one(1);
    ThreadPool eight(8);
    test::GoldenDigests serial, jobs1, jobs8;
    for (std::size_t a = 0; a < config.apps.size(); ++a) {
        for (std::uint32_t s = 0; s < config.sessionsPerApp; ++s) {
            const core::Session session = study.loadSession(a, s);
            const std::string key = studyKey(config, a, s);
            serial.emplace_back(key, test::analysisDigest(analyzeSession(
                                         session, threshold)));
            jobs1.emplace_back(
                key, test::analysisDigest(
                         analyzeSessionParallel(session, threshold, one)));
            jobs8.emplace_back(
                key, test::analysisDigest(analyzeSessionParallel(
                         session, threshold, eight)));
        }
    }
    {
        SCOPED_TRACE("analyzeSession");
        expectGolden("quick_study.txt", serial);
    }
    {
        SCOPED_TRACE("analyzeSessionParallel, jobs=1");
        expectGolden("quick_study.txt", jobs1);
    }
    {
        SCOPED_TRACE("analyzeSessionParallel, jobs=8");
        expectGolden("quick_study.txt", jobs8);
    }
}

TEST(FlatEquivalence, CacheRoundTripPreservesFlatResults)
{
    const test::ScratchDir dir("cache");
    const app::StudyConfig config = goldenStudy(dir.path);
    app::Study study(config);
    study.ensureTraces();

    // Cold (just computed) -> stored -> warm (loaded) must still be
    // the golden bytes: the cache never changes a result.
    const ResultCache cache(dir.path, config.fingerprint());
    test::GoldenDigests loaded;
    for (std::size_t a = 0; a < config.apps.size(); ++a) {
        for (std::uint32_t s = 0; s < config.sessionsPerApp; ++s) {
            cache.store(config.apps[a].name, s,
                        analyzeSession(study.loadSession(a, s),
                                       config.perceptibleThreshold));
            const std::optional<SessionAnalysis> warm =
                cache.load(config.apps[a].name, s);
            ASSERT_TRUE(warm.has_value()) << studyKey(config, a, s);
            loaded.emplace_back(studyKey(config, a, s),
                                test::analysisDigest(*warm));
        }
    }
    expectGolden("quick_study.txt", loaded);
}

/** A 60 s GanttProject session: long enough that
 * analyzeSessionParallel really cuts shards (bench_micro times the
 * same session and checks the same digest). */
core::Session
longSession()
{
    app::AppParams params = app::catalogApp("GanttProject");
    params.sessionLength = secToNs(60);
    return core::Session::fromTrace(app::runSession(params, 0).trace);
}

TEST(FlatEquivalence, FixturesMatchGoldenDigests)
{
    const DurationNs threshold = msToNs(100);
    const std::size_t deep = core::kMaxIntervalDepth - 100;
    ThreadPool pool(8);

    struct Named
    {
        const char *name;
        core::Session session;
    };
    const Named sessions[] = {
        {"session/rich", test::richSession()},
        {"session/mining", test::miningSession()},
        {"session/deep", test::deepSession(deep)},
        {"session/GanttProject-60s", longSession()},
    };
    ASSERT_GT(shardCountFor(pool.workerCount(),
                            sessions[3].session.episodes().size()),
              1u);
    test::GoldenDigests serial, parallel;
    for (const Named &entry : sessions) {
        serial.emplace_back(entry.name,
                            test::analysisDigest(
                                analyzeSession(entry.session, threshold)));
        parallel.emplace_back(entry.name,
                              test::analysisDigest(analyzeSessionParallel(
                                  entry.session, threshold, pool)));
    }

    trace::StringTable strings;
    const core::IntervalVec forests[] = {
        test::deepForest(deep, core::IntervalType::Listener),
        test::gcParentForest(strings),
    };
    const char *forestNames[] = {"forest/deep", "forest/gc-parents"};
    for (std::size_t f = 0; f < std::size(forests); ++f) {
        const std::string flat =
            forestRecord(core::flattenForest(forests[f]), strings);
        serial.emplace_back(forestNames[f], fnv1a(flat));
        parallel.emplace_back(forestNames[f], fnv1a(flat));
    }

    {
        SCOPED_TRACE("flat, serial");
        expectGolden("fixtures.txt", serial);
    }
    {
        SCOPED_TRACE("flat, parallel");
        expectGolden("fixtures.txt", parallel);
    }
}

} // namespace
} // namespace lag::engine
