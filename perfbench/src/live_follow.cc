/**
 * @file
 * Workload `live_follow`: `lagd --follow` under a live writer and an
 * open-loop query load, in one process.
 *
 * Set-up simulates several paper-length sessions from the seed
 * (app::runSession), keeps their encoded bytes, and computes each
 * app's batch `/v1/patterns` answer (engine::analyzeSession, then
 * core::mergeAnalyses and core::patternsJson — what `lag_replay
 * --batch-json` prints).
 *
 * One round of the timed phase starts a fresh serve::HotStore in
 * follow mode, an engine::IngestPipeline that publishes through
 * HotStore::applyIngest, and a serve::HttpServer on an ephemeral
 * port, then runs against them:
 *
 *  - one writer thread appending every session to its trace file in
 *    4093-byte chunks (prime, so flushes land mid-record) on an
 *    open-loop schedule at kRecordsPerSecond per session;
 *  - an epoch thread calling IngestPipeline::runEpoch every 100 ms on
 *    an open-loop schedule, as `lagd --follow` does with its default
 *    --epoch-ms;
 *  - one query thread sending GETs, one connection at a time, on an
 *    open-loop schedule at one fixed rate, once every app has been
 *    published.
 *
 * The query mix models viewers of the live session: each viewer
 * re-reads every view the store serves for a followed session once
 * per epoch, that is /v1/patterns, /v1/cdf and /v1/episodes (of the
 * top pattern) for each app, then one /v1/figures/<id>, ten GETs per
 * epoch or 100 per second. The fixed rates are 1, 2, 4 and 8 such
 * viewers.
 *
 * Rounds cycle through the fixed rates. When the writer is done and
 * every source complete, each app's live `/v1/patterns` must equal
 * its batch answer byte for byte.
 *
 * The gated figures are freshness (ingest lag) and the server-side
 * service time of /v1/patterns. Query latency from the due time is
 * printed too, but on a shared 4-vCPU VM a request's round trip moved
 * by up to 2.5x between runs of one seed, wider than any bound a
 * later change could be held to.
 */

#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "app/catalog.hh"
#include "app/session_runner.hh"
#include "app/study.hh"
#include "bench.hh"
#include "core/aggregate.hh"
#include "core/figure_json.hh"
#include "core/session.hh"
#include "engine/ingest.hh"
#include "engine/pool.hh"
#include "engine/result_cache.hh"
#include "engine/study_driver.hh"
#include "serve/client.hh"
#include "serve/router.hh"
#include "serve/server.hh"
#include "serve/store.hh"
#include "trace/io.hh"

namespace perfbench
{

namespace
{

constexpr lag::DurationNs kThreshold = 100'000'000; // 100 ms
constexpr std::int64_t kEpochMs = 100;
/** OS names of the threads that run the epochs: a round's epoch
 * thread and the engine pool's workers (see nameWorkers()). */
constexpr char kEpochThreadName[] = "lagbench-epoch";
constexpr char kPoolThreadName[] = "lagbench-pool";
const std::vector<std::string> kEpochThreads = {kEpochThreadName,
                                                kPoolThreadName};
constexpr double kDrainMs = 500;
/** Per session: the pace at which the repo's CI ingest smoke replays
 * a recorded session into `lagd --follow` (lag_replay --rps 20000). */
constexpr double kRecordsPerSecond = 20'000;
constexpr std::size_t kChunkBytes = 4093;
constexpr double kQuerySeconds = 2.5;
/** The latency a query may take at a sustainable rate. */
constexpr double kLatencyLimitMs = 10.0;
/** GETs one viewer sends per second: every view of every app once per
 * epoch (3 apps x 3 views + 1 figure = 10 per 100 ms). */
constexpr double kViewerRate = 100;
constexpr double kMidRate = 2 * kViewerRate; // requests per second
/** Query rate of each round, cycled; every other round runs at the
 * mid rate, so the headline latencies pool the most samples. */
constexpr double kRates[] = {kMidRate, kViewerRate, kMidRate,
                             4 * kViewerRate, kMidRate, 8 * kViewerRate};
constexpr double kDistinctRates[] = {kViewerRate, kMidRate,
                                     4 * kViewerRate, 8 * kViewerRate};
/** Three concurrently followed sessions of similar record counts
 * (~60-70k), so they finish together. */
const char *const kApps[] = {"Arabeske", "Euclide", "SwingSet"};

/** One session to stream, with its batch answer. */
struct Source
{
    std::string app;
    std::string bytes;
    std::uint64_t records = 0;
    std::string batchPatterns;
};

/** One scheduled append. */
struct Chunk
{
    double dueMs = 0.0;
    std::size_t file = 0;
    std::size_t offset = 0;
    std::size_t length = 0;
};

/** Everything one round measured. */
struct Round
{
    double rate = 0.0;
    std::vector<double> queryMs;     ///< done - due
    std::vector<double> lateMs;      ///< sent - due
    std::vector<double> handlerUs;   ///< inside Router::dispatch
    std::vector<double> transportUs; ///< round trip - handler
    std::vector<double> patternsMs;  ///< /v1/patterns service time
    std::vector<double> lagMs;       ///< write -> covering publish
    std::vector<double> epochMs;       ///< epochs that published
    std::vector<double> epochPrefixMb; ///< prefix bytes they analyzed
    TimedOps epochOps; ///< the same epochs, on the epoch thread + pool
    std::uint64_t epochs = 0;          ///< every runEpoch call
    std::uint64_t requests = 0;
    std::uint64_t usefulBytes = 0;
    std::uint64_t reanalyzedBytes = 0;
    std::uint64_t backlogMax = 0;
    std::uint64_t records = 0;
    double finalLateMs = 0.0;
    double cpuS = 0.0;
};

std::vector<Source>
simulateSources(std::uint64_t seed, lag::engine::ThreadPool &pool)
{
    std::vector<Source> sources(std::size(kApps));
    lag::engine::parallelFor(pool, sources.size(), [&](std::size_t i) {
        lag::app::AppParams params = lag::app::catalogApp(kApps[i]);
        params.baseSeed = mixSeed(seed, 0x6c697665 + i);
        lag::app::SessionRunResult run = lag::app::runSession(params, 0);
        Source &source = sources[i];
        source.app = run.trace.meta.appName;
        source.records = run.trace.threads.size() +
                         run.trace.strings.size() +
                         run.trace.events.size() +
                         run.trace.samples.size();
        source.bytes = lag::trace::serializeTrace(run.trace);
        const lag::core::Session session =
            lag::core::Session::fromTrace(
                lag::trace::deserializeTrace(source.bytes));
        const lag::engine::SessionAnalysis analysis =
            lag::engine::analyzeSession(session, kThreshold);
        source.batchPatterns = lag::core::patternsJson(
            source.app,
            lag::core::mergeAnalyses({analysis.patternSummary}),
            "episodes", 0);
    });
    return sources;
}

/** Every session's chunks at kRecordsPerSecond, merged by due time. */
std::vector<Chunk>
writeSchedule(const std::vector<Source> &sources)
{
    std::vector<Chunk> chunks;
    for (std::size_t f = 0; f < sources.size(); ++f) {
        const double bytes_per_ms =
            static_cast<double>(sources[f].bytes.size()) *
            kRecordsPerSecond / 1e3 /
            static_cast<double>(sources[f].records);
        for (std::size_t offset = 0; offset < sources[f].bytes.size();
             offset += kChunkBytes) {
            chunks.push_back(
                {static_cast<double>(offset) / bytes_per_ms, f, offset,
                 std::min(kChunkBytes,
                          sources[f].bytes.size() - offset)});
        }
    }
    std::stable_sort(chunks.begin(), chunks.end(),
                     [](const Chunk &a, const Chunk &b) {
                         return a.dueMs < b.dueMs;
                     });
    return chunks;
}

Clock::time_point
after(Clock::time_point start, double ms)
{
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(ms));
}

/** First pattern key in a /v1/patterns body, or "". */
std::string
firstPatternKey(const std::string &body)
{
    const std::string marker = "\"key\":\"";
    const std::size_t at = body.find(marker);
    if (at == std::string::npos)
        return {};
    const std::size_t begin = at + marker.size();
    const std::size_t end = body.find('"', begin);
    return end == std::string::npos ? std::string()
                                    : body.substr(begin, end - begin);
}

/** Collects failures from the round's threads. */
class Failures
{
  public:
    void add(const std::string &what)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        list_.push_back(what);
    }
    std::vector<std::string> take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return std::move(list_);
    }

  private:
    std::mutex mutex_;
    std::vector<std::string> list_;
};

Round
runRound(const std::vector<Source> &sources,
         const std::vector<Chunk> &schedule, double rate,
         const std::string &dir, lag::engine::ThreadPool &pool,
         Result &result)
{
    namespace serve = lag::serve;
    Round round;
    round.rate = rate;
    Failures failures;
    std::filesystem::create_directories(dir);
    std::vector<std::string> paths;
    for (const Source &source : sources) {
        paths.push_back(dir + "/" + source.app + ".lag");
        std::ofstream(paths.back(), std::ios::binary | std::ios::trunc);
    }

    lag::app::StudyConfig config = lag::app::StudyConfig::paperStudy();
    config.cacheDir = dir + "/cache";
    config.jobs = static_cast<std::uint32_t>(pool.workerCount());
    serve::HotStore store(config, pool);
    store.startFollow();

    // Written by the epoch thread only (publish runs on it).
    struct Publish
    {
        std::size_t file = 0;
        double epochStartMs = 0.0;
        double doneMs = 0.0;
        std::uint64_t cursor = 0; ///< source cursor after the epoch
    };
    std::vector<Publish> publishes;
    double epoch_start_ms = 0.0;
    Clock::time_point t0 = Clock::now();
    lag::engine::IngestOptions ingest_options;
    ingest_options.perceptibleThreshold = kThreshold;
    ingest_options.epochMillis = kEpochMs;
    lag::engine::IngestPipeline pipeline(
        pool, ingest_options,
        [&](const lag::engine::IngestUpdate &update) {
            {
                Span span("serve.apply_ingest");
                store.applyIngest(update);
            }
            const auto it =
                std::find(paths.begin(), paths.end(), update.path);
            publishes.push_back(
                {static_cast<std::size_t>(it - paths.begin()),
                 epoch_start_ms, msSince(t0)});
        });
    for (const std::string &path : paths)
        pipeline.addSource(path);

    // The wrapper route times the inner dispatch and returns the time
    // in a header, so the client can split handler from transport.
    serve::Router inner;
    store.installRoutes(inner);
    serve::Router outer;
    outer.addPrefix("GET", "/", [&inner](const serve::HttpRequest &r) {
        Span span("serve.handler");
        const Clock::time_point start = Clock::now();
        serve::HttpResponse response = inner.dispatch(r);
        const auto ns = std::chrono::duration_cast<
                            std::chrono::nanoseconds>(Clock::now() -
                                                      start)
                            .count();
        response.headers.emplace_back("X-Bench-Handler-Ns",
                                      std::to_string(ns));
        return response;
    });
    serve::HttpServer server(serve::ServerConfig{}, std::move(outer),
                             pool);
    server.start();
    serve::ClientOptions client;
    client.port = server.port();

    std::atomic<bool> all_published{false};
    std::atomic<double> query_start_ms{0.0};
    std::atomic<bool> writer_done{false};
    std::atomic<bool> abandon{false};
    std::vector<std::vector<std::pair<double, std::size_t>>> writes(
        sources.size());
    const double cpu_before = processCpuSeconds();
    t0 = Clock::now();

    // The writer stands in for the profiled application recording its
    // trace: it generates the load and calls no public function of the
    // program, so it is not a driving thread for stage coverage.
    std::thread writer([&] {
        labelThread("writer");
        Span loop("gen.loop");
        try {
            std::vector<std::ofstream> outs;
            for (const std::string &path : paths)
                outs.emplace_back(path, std::ios::binary | std::ios::app);
            for (const Chunk &chunk : schedule) {
                {
                    Span idle("sched.idle");
                    std::this_thread::sleep_until(
                        after(t0, chunk.dueMs));
                }
                if (abandon.load())
                    break;
                Span write("gen.write", chunk.length);
                std::ofstream &out = outs[chunk.file];
                out.write(sources[chunk.file].bytes.data() + chunk.offset,
                          static_cast<std::streamsize>(chunk.length));
                out.flush();
                if (!out)
                    throw std::runtime_error("write failed");
                writes[chunk.file].emplace_back(
                    msSince(t0), chunk.offset + chunk.length);
            }
        } catch (const std::exception &e) {
            failures.add(std::string("writer: ") + e.what());
        }
        writer_done.store(true);
    });

    std::thread epochs([&] {
        labelThread("epochs");
        // Named so that epochOps can count this thread with the pool's.
        pthread_setname_np(pthread_self(), kEpochThreadName);
        Span loop("bench.loop");
        try {
            std::vector<std::uint64_t> cursor(sources.size(), 0);
            std::set<std::size_t> seen;
            // Epochs run on a fixed schedule that outlasts the writer's
            // by kDrainMs, so a round's epoch count is fixed by its
            // inputs; more are cut only if the sources lag behind.
            const auto scheduled = static_cast<std::int64_t>(
                (schedule.back().dueMs + kDrainMs) / kEpochMs) + 1;
            for (std::int64_t k = 0;; ++k) {
                {
                    Span idle("sched.idle");
                    std::this_thread::sleep_until(
                        after(t0, static_cast<double>(k * kEpochMs)));
                }
                const bool last = writer_done.load();
                const SchedTimes sched_before = schedTimes(kEpochThreads);
                epoch_start_ms = msSince(t0);
                const std::size_t first = publishes.size();
                {
                    Span epoch("engine.ingest_epoch");
                    pipeline.runEpoch();
                }
                const double epoch_ms = msSince(t0) - epoch_start_ms;
                const SchedTimes sched_after = schedTimes(kEpochThreads);
                ++round.epochs;
                std::vector<lag::engine::IngestSourceStatus> status;
                {
                    Span span("engine.ingest_status");
                    status = pipeline.status();
                }
                std::uint64_t backlog = 0;
                std::uint64_t prefix = 0;
                for (std::size_t f = 0; f < status.size(); ++f)
                    backlog += status[f].backlogBytes;
                for (std::size_t p = first; p < publishes.size(); ++p) {
                    const std::size_t f = publishes[p].file;
                    const std::uint64_t now = status[f].cursorBytes;
                    round.usefulBytes += now - std::min(now, cursor[f]);
                    round.reanalyzedBytes += now;
                    prefix += now;
                    publishes[p].cursor = now;
                    cursor[f] = now;
                    seen.insert(f);
                }
                if (prefix > 0) {
                    round.epochMs.push_back(epoch_ms);
                    round.epochOps.add(epoch_ms, sched_before, sched_after);
                    round.epochPrefixMb.push_back(
                        static_cast<double>(prefix) / 1e6);
                }
                round.backlogMax = std::max(round.backlogMax, backlog);
                if (seen.size() == sources.size() &&
                    !all_published.load()) {
                    query_start_ms.store(msSince(t0));
                    all_published.store(true);
                }
                if (k + 1 >= scheduled && last && pipeline.allComplete())
                    break;
                if (k * kEpochMs > 120'000)
                    throw std::runtime_error("sources never completed");
            }
        } catch (const std::exception &e) {
            failures.add(std::string("epoch thread: ") + e.what());
            abandon.store(true);
        }
        all_published.store(true);
    });

    std::vector<std::string> top_key(sources.size());
    const std::vector<std::string> figures = lag::core::figureIds();
    /** The j-th GET of the schedule: see the file comment. */
    auto target = [&](std::size_t j) {
        const std::size_t apps = sources.size();
        const std::size_t per_viewer = 3 * apps + 1;
        const std::size_t k = j % per_viewer;
        if (k == 3 * apps) {
            return "/v1/figures/" +
                   figures[(j / per_viewer) % figures.size()];
        }
        const std::string &app = sources[k % apps].app;
        if (k < apps)
            return "/v1/patterns?app=" + app;
        if (k < 2 * apps)
            return "/v1/cdf?app=" + app;
        return "/v1/episodes?app=" + app + "&pattern=" + top_key[k % apps];
    };
    std::thread queries([&] {
        labelThread("query");
        Span loop("bench.loop");
        {
            Span wait("sched.wait_apps");
            while (!all_published.load())
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        const Clock::time_point q0 = after(t0, query_start_ms.load());
        const auto n = static_cast<std::size_t>(rate * kQuerySeconds);
        for (std::size_t j = 0; j < n && !abandon.load(); ++j) {
            const Clock::time_point due = after(q0, j * 1e3 / rate);
            {
                Span idle("sched.idle");
                std::this_thread::sleep_until(due);
            }
            const std::string path = target(j);
            const Clock::time_point sent = Clock::now();
            serve::ClientResult reply;
            double handler_us = 0.0;
            {
                Span request("serve.request", j);
                reply = serve::httpRequest(client, "GET", path);
                handler_us =
                    std::strtod(
                        std::string(reply.header("x-bench-handler-ns"))
                            .c_str(),
                        nullptr) /
                    1e3;
                // The server's handler span charges its part.
                request.chargedElsewhere(
                    static_cast<std::int64_t>(handler_us * 1e3));
            }
            const Clock::time_point done = Clock::now();
            ++round.requests;
            if (!reply.ok || reply.status != 200) {
                failures.add("GET " + path + " -> " +
                             std::to_string(reply.status) + " " +
                             reply.error);
                continue;
            }
            const std::size_t k = j % (3 * sources.size() + 1);
            if (k < sources.size()) {
                top_key[k] = firstPatternKey(reply.body);
                round.patternsMs.push_back(handler_us / 1e3);
            }
            round.handlerUs.push_back(handler_us);
            round.transportUs.push_back(
                std::chrono::duration<double, std::micro>(done - sent)
                    .count() -
                handler_us);
            round.queryMs.push_back(
                std::chrono::duration<double, std::milli>(done - due)
                    .count());
            round.lateMs.push_back(
                std::chrono::duration<double, std::milli>(sent - due)
                    .count());
        }
        if (!round.lateMs.empty())
            round.finalLateMs = round.lateMs.back();
    });

    writer.join();
    epochs.join();
    queries.join();
    round.cpuS = processCpuSeconds() - cpu_before;

    // Ingest lag: a chunk's records are covered by the first publish
    // of its file whose cursor reaches the chunk's end, or that comes
    // from an epoch begun after the chunk was flushed (that epoch's
    // poll saw every byte of it, so every record the chunk completed).
    for (std::size_t f = 0; f < sources.size(); ++f) {
        std::size_t p = 0;
        for (const auto &[written_ms, end] : writes[f]) {
            while (p < publishes.size() &&
                   (publishes[p].file != f ||
                    (publishes[p].cursor < end &&
                     publishes[p].epochStartMs < written_ms)))
                ++p;
            if (p == publishes.size()) {
                failures.add("no publish covers byte " +
                             std::to_string(end) + " of " + paths[f]);
                break;
            }
            round.lagMs.push_back(
                std::max(0.0, publishes[p].doneMs - written_ms));
        }
    }

    // Oracles: every source complete at its full size, and each app's
    // live answer equal to its batch answer.
    Span oracle("bench.check");
    const auto status = pipeline.status();
    for (std::size_t f = 0; f < sources.size(); ++f) {
        round.records += status[f].recordsDecoded;
        result.check(status[f].complete &&
                         status[f].cursorBytes == sources[f].bytes.size() &&
                         status[f].error.empty(),
                     "live_follow: " + paths[f] + " not fully ingested");
        const serve::ClientResult live = serve::httpRequest(
            client, "GET", "/v1/patterns?app=" + sources[f].app);
        result.check(live.ok && live.status == 200 &&
                         live.body == sources[f].batchPatterns,
                     "live_follow: live /v1/patterns for " +
                         sources[f].app + " differs from batch");
    }
    for (const std::string &what : failures.take())
        result.check(false, "live_follow: " + what);
    // Every request counts, refused ones as failed.
    result.attempted += round.queryMs.size();
    server.stop();
    return round;
}

/**
 * One epoch of a fresh pipeline over a file that already holds the
 * first @p bytes of @p source: the catch-up `lagd --follow` does
 * when it starts on a session being recorded.
 */
double
catchUpMs(const Source &source, std::size_t bytes, const std::string &dir,
          lag::engine::ThreadPool &pool)
{
    const std::string path = dir + "/catch-up.lag";
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(source.bytes.data(),
               static_cast<std::streamsize>(
                   std::min(bytes, source.bytes.size())));
    lag::engine::IngestOptions options;
    options.perceptibleThreshold = kThreshold;
    lag::engine::IngestPipeline pipeline(pool, options, nullptr);
    pipeline.addSource(path);
    Span span("engine.ingest_catch_up", bytes);
    const Clock::time_point start = Clock::now();
    pipeline.runEpoch();
    const double ms = msSince(start);
    std::filesystem::remove(path);
    return ms;
}

/** Keep @p sources in @p dir, for the memory-probe child. */
void
saveSources(const std::vector<Source> &sources, const std::string &dir)
{
    std::ofstream index(dir + "/sources.txt", std::ios::trunc);
    for (const Source &source : sources) {
        index << source.app << ' ' << source.records << '\n';
        std::ofstream(dir + "/" + source.app + ".src",
                      std::ios::binary | std::ios::trunc)
            << source.bytes;
        std::ofstream(dir + "/" + source.app + ".batch.json",
                      std::ios::binary | std::ios::trunc)
            << source.batchPatterns;
    }
    if (!index)
        throw std::runtime_error("cannot save sources in " + dir);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    if (!in)
        throw std::runtime_error("cannot read " + path);
    return bytes.str();
}

/** Give each of @p pool's workers the OS name kPoolThreadName, so
 * that schedTimes() finds them. Each task waits until all have
 * started, so every worker runs exactly one. */
void
nameWorkers(lag::engine::ThreadPool &pool)
{
    std::mutex mutex;
    std::condition_variable all_started;
    std::size_t started = 0;
    const std::size_t workers = pool.workerCount();
    for (std::size_t i = 0; i < workers; ++i) {
        pool.submit([&] {
            pthread_setname_np(pthread_self(), kPoolThreadName);
            std::unique_lock<std::mutex> lock(mutex);
            ++started;
            all_started.notify_all();
            all_started.wait(lock, [&] { return started == workers; });
        });
    }
    pool.waitIdle();
}

} // namespace

void
probeLiveFollow(const RunOptions &options)
{
    std::vector<Source> sources;
    std::ifstream index(options.probeDir + "/sources.txt");
    Source source;
    while (index >> source.app >> source.records) {
        source.bytes = slurp(options.probeDir + "/" + source.app + ".src");
        source.batchPatterns =
            slurp(options.probeDir + "/" + source.app + ".batch.json");
        sources.push_back(source);
    }
    if (sources.size() != std::size(kApps))
        throw std::runtime_error("no sources in " + options.probeDir);
    lag::engine::ThreadPool pool(options.jobs);
    Result result;
    runRound(sources, writeSchedule(sources), kMidRate,
             options.probeDir + "/probe-" + std::to_string(::getpid()),
             pool, result);
    if (result.failed != 0)
        throw std::runtime_error("probe round failed its checks");
}

void
runLiveFollow(const RunOptions &options, Result &result)
{
    // A set-up takes under a second, and a shared host's speed drifts
    // over seconds. Four set-ups before the timed phase and three after
    // it put the median of seven at both ends of the run; each one must
    // regenerate the same inputs.
    constexpr int kSetupsBefore = 4;
    constexpr int kSetupsAfter = 3;
    lag::engine::ThreadPool pool(options.jobs);
    nameWorkers(pool);

    std::vector<Source> sources;
    std::vector<double> setup_s;
    auto set_up = [&] {
        const Clock::time_point start = Clock::now();
        std::vector<Source> again = simulateSources(options.seed, pool);
        saveSources(again, options.scratch);
        setup_s.push_back(msSince(start) / 1e3);
        if (sources.empty()) {
            sources = std::move(again);
            return;
        }
        for (std::size_t f = 0; f < sources.size(); ++f) {
            result.check(again[f].bytes == sources[f].bytes &&
                             again[f].batchPatterns ==
                                 sources[f].batchPatterns,
                         "live_follow: set-up of " + sources[f].app +
                             " did not repeat for the same seed");
        }
    };
    for (int k = 0; k < kSetupsBefore; ++k)
        set_up();
    const std::vector<Chunk> schedule = writeSchedule(sources);

    // A traced run prices its spans with one untraced mid-rate round
    // first; the rounds after it are recorded.
    std::vector<Round> rounds;
    std::vector<Round> untraced;
    const double budget_ms = options.seconds * 1e3;
    const Clock::time_point start = Clock::now();
    std::size_t n = 0;
    if (options.trace) {
        const std::string dir = options.scratch + "/round-untraced";
        untraced.push_back(
            runRound(sources, schedule, kMidRate, dir, pool, result));
        std::filesystem::remove_all(dir);
    }
    // Whole cycles of kRates, so every run pools the same mix of rates.
    while (n % std::size(kRates) != 0 || msSince(start) < budget_ms) {
        setTracing(options.trace);
        const double rate = kRates[n % std::size(kRates)];
        const std::string dir =
            options.scratch + "/round-" + std::to_string(n);
        rounds.push_back(
            runRound(sources, schedule, rate, dir, pool, result));
        std::filesystem::remove_all(dir);
        ++n;
    }
    setTracing(false);
    for (int k = 0; k < kSetupsAfter; ++k)
        set_up();
    // One probe: a round takes seconds, and its peak repeats closely.
    const double peak_rss = probeRssMb(options, options.scratch, 1);

    // Counts a fixed seed fixes: every round decodes the same records
    // in the same number of epochs, and sends rate x kQuerySeconds
    // requests.
    for (const Round &r : rounds) {
        result.check(r.records == rounds[0].records &&
                         r.epochs == rounds[0].epochs,
                     "live_follow: records or epochs changed between "
                     "rounds (" +
                         std::to_string(r.records) + "/" +
                         std::to_string(r.epochs) + " vs " +
                         std::to_string(rounds[0].records) + "/" +
                         std::to_string(rounds[0].epochs) + ")");
        result.check(r.requests == static_cast<std::uint64_t>(
                                       r.rate * kQuerySeconds),
                     "live_follow: a round sent the wrong number of "
                     "requests");
    }

    // Pool the rounds at one rate, or at every rate (0).
    auto pooled = [&](double rate, std::vector<double> Round::*field) {
        std::vector<double> all;
        for (const Round &r : rounds) {
            if (rate == 0 || r.rate == rate)
                all.insert(all.end(), (r.*field).begin(),
                           (r.*field).end());
        }
        return all;
    };
    double max_rps = 0.0;
    for (const double rate : kDistinctRates) {
        bool ok = true;
        for (const Round &r : rounds) {
            if (r.rate == rate) {
                // A failed request misses the limit.
                ok = ok && r.queryMs.size() == r.requests &&
                     quantile(r.queryMs, 0.99) <= kLatencyLimitMs &&
                     r.finalLateMs <= kLatencyLimitMs;
            }
        }
        if (ok)
            max_rps = std::max(max_rps, rate);
    }
    // Query latency is taken at the mid rate. The gated figures pool
    // every round: a cycle's fixed mix of rates triples their samples.
    const std::vector<double> query_ms = pooled(kMidRate, &Round::queryMs);
    const std::vector<double> lag_ms = pooled(0, &Round::lagMs);
    const std::vector<double> service_ms = pooled(0, &Round::patternsMs);
    double records = 0.0;
    double all_records = 0.0;
    double epoch_ms_total = 0.0;
    double epoch_adjusted_ms = 0.0;
    double cpu_s = 0.0;
    for (const Round &r : rounds) {
        records = static_cast<double>(r.records);
        all_records += static_cast<double>(r.records);
        cpu_s += r.cpuS / static_cast<double>(rounds.size());
        for (const double ms : r.epochMs)
            epoch_ms_total += ms;
        epoch_adjusted_ms += r.epochOps.adjustedTotalMs();
    }
    // Ingest capacity: records taken in per second of epoch time,
    // contention-adjusted as TimedOps describes: epochs fan out over
    // every vCPU, so other tenants' load sets their wall time most.
    const double ingest_per_s = all_records / (epoch_adjusted_ms / 1e3);
    const double ingest_wall_per_s = all_records / (epoch_ms_total / 1e3);
    std::vector<double> rtt_ms;
    for (const Round &r : rounds) {
        if (r.rate != kMidRate)
            continue;
        for (std::size_t i = 0; i < r.handlerUs.size(); ++i)
            rtt_ms.push_back((r.handlerUs[i] + r.transportUs[i]) / 1e3);
    }
    double mb = 0.0;
    for (const Source &s : sources)
        mb += static_cast<double>(s.bytes.size()) / 1e6;

    const double ok = result.okFrac();
    result.endToEnd = {
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"peak_rss_mb", peak_rss, "MiB"},
        {"ok_frac", ok, "ratio"},
        {"op_p50_ms", quantile(lag_ms, 0.5), "ms"},
        {"op_tail_ms", quantile(lag_ms, 0.99), "ms"},
        {"aux_p50_ms", quantile(service_ms, 0.5), "ms"},
        {"aux_tail_ms", windowedQuantile(service_ms, 0.9), "ms"},
        {"work_cpu_s", cpu_s, "s"},
        {"throughput_per_s", ingest_per_s, "1/s"},
    };
    result.named = {
        {"rounds", static_cast<double>(rounds.size()), "count"},
        {"sessions", static_cast<double>(sources.size()), "count"},
        {"session_mb_total", mb, "MB"},
        {"records_per_round", records, "count"},
        {"write_seconds", schedule.back().dueMs / 1e3, "s"},
        {"ingest_lag_p50_ms", quantile(lag_ms, 0.5), "ms"},
        {"ingest_lag_p99_ms", quantile(lag_ms, 0.99), "ms"},
        {"ingest_lag_samples", static_cast<double>(lag_ms.size()),
         "count"},
        {"ingest_records_per_epoch_s", ingest_per_s, "1/s"},
        {"ingest_records_per_epoch_wall_s", ingest_wall_per_s, "1/s"},
        {"patterns_service_p50_ms", quantile(service_ms, 0.5), "ms"},
        {"patterns_service_p90_ms", quantile(service_ms, 0.9), "ms"},
        {"patterns_service_p99_ms", quantile(service_ms, 0.99), "ms"},
        {"patterns_service_samples",
         static_cast<double>(service_ms.size()), "count"},
        {"query_p50_ms", quantile(query_ms, 0.5), "ms"},
        {"query_p90_ms", quantile(query_ms, 0.9), "ms"},
        {"query_p99_ms", quantile(query_ms, 0.99), "ms"},
        {"query_samples", static_cast<double>(query_ms.size()), "count"},
        {"query_max_rps", max_rps, "1/s"},
        {"request_rtt_p50_ms", quantile(rtt_ms, 0.5), "ms"},
        {"request_rtt_p99_ms", quantile(rtt_ms, 0.99), "ms"},
        {"error_frac", 1.0 - ok, "ratio"},
    };
    for (const double rate : kDistinctRates) {
        const std::vector<double> at = pooled(rate, &Round::queryMs);
        result.named.push_back({"query_p99_ms_at_" +
                                    std::to_string(static_cast<int>(rate)),
                                quantile(at, 0.99), "ms"});
    }
    if (!options.trace)
        return;

    const std::vector<ThreadSpans> threads = collectSpans();
    const auto stats = spanStats(threads);
    auto pct = [&](const char *name, double q, double scale) {
        const auto it = stats.find(name);
        return it == stats.end()
                   ? 0.0
                   : quantile(it->second.durationsMs, q) * scale;
    };
    // Least-squares slope of epoch time against prefix size.
    std::vector<double> xs = pooled(kMidRate, &Round::epochPrefixMb);
    std::vector<double> ys = pooled(kMidRate, &Round::epochMs);
    double mx = 0, my = 0, sxy = 0, sxx = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        mx += xs[i] / xs.size();
        my += ys[i] / ys.size();
    }
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sxy += (xs[i] - mx) * (ys[i] - my);
        sxx += (xs[i] - mx) * (xs[i] - mx);
    }
    std::uint64_t useful = 0, reanalyzed = 0, backlog = 0;
    double epochs = 0.0, requests = 0.0;
    for (const Round &r : rounds) {
        useful += r.usefulBytes;
        reanalyzed += r.reanalyzedBytes;
        backlog = std::max(backlog, r.backlogMax);
        if (r.rate == kMidRate) {
            epochs = static_cast<double>(r.epochs);
            requests = static_cast<double>(r.requests);
        }
    }
    const std::vector<double> epoch_ms = pooled(kMidRate, &Round::epochMs);
    const std::vector<double> untraced_query =
        untraced.empty() ? std::vector<double>{} : untraced[0].queryMs;
    result.perLayer = {
        {"app.ensure_traces_s", quantile(setup_s, 0.5), "s"},
        {"app.sessions_simulated", static_cast<double>(sources.size()),
         "count"},
        {"engine.ingest_epoch_ms_p50", quantile(epoch_ms, 0.5), "ms"},
        {"engine.ingest_epoch_ms_max", quantile(epoch_ms, 1.0), "ms"},
        {"engine.ingest_epochs", epochs, "count"},
        {"engine.ingest_epoch_ms_per_mb", sxx > 0 ? sxy / sxx : 0.0,
         "ms/MB"},
        {"engine.ingest_useful_frac",
         reanalyzed > 0 ? static_cast<double>(useful) /
                              static_cast<double>(reanalyzed)
                        : 0.0,
         "ratio"},
        {"engine.ingest_backlog_bytes_max", static_cast<double>(backlog),
         "bytes"},
        {"engine.ingest_records", records, "count"},
        {"serve.handler_us_p50",
         quantile(pooled(kMidRate, &Round::handlerUs), 0.5), "us"},
        {"serve.handler_us_p99",
         quantile(pooled(kMidRate, &Round::handlerUs), 0.99), "us"},
        {"serve.transport_us_p50",
         quantile(pooled(kMidRate, &Round::transportUs), 0.5), "us"},
        {"serve.transport_us_p99",
         quantile(pooled(kMidRate, &Round::transportUs), 0.99), "us"},
        {"serve.apply_ingest_ms_p50", pct("serve.apply_ingest", 0.5, 1.0),
         "ms"},
        {"serve.apply_ingest_ms_max", pct("serve.apply_ingest", 1.0, 1.0),
         "ms"},
        {"serve.gen_late_ms_p99",
         quantile(pooled(kMidRate, &Round::lateMs), 0.99), "ms"},
        {"serve.requests", requests, "count"},
        {"serve.query_max_rps", max_rps, "1/s"},
        {"bench.trace_overhead_ratio",
         quantile(query_ms, 0.5) / quantile(untraced_query, 0.5),
         "ratio"},
    };
    // Catch-up cost against the backlog one epoch finds: linear work
    // doubles from 256 to 512 KiB.
    const double catch_up_256 =
        catchUpMs(sources[0], 256 << 10, options.scratch, pool);
    const double catch_up_512 =
        catchUpMs(sources[0], 512 << 10, options.scratch, pool);
    result.perLayer.push_back(
        {"engine.ingest_catch_up_ms_512k", catch_up_512, "ms"});
    result.perLayer.push_back({"engine.ingest_catch_up_growth",
                               catch_up_512 / catch_up_256, "ratio"});
    finishTrace(options, threads, "bench.loop", rounds.size(), {}, result);
}

} // namespace perfbench
