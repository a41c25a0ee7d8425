/**
 * @file
 * Workload `study_batch`: re-analysis of the whole paper study.
 *
 * Set-up simulates the 14-app x 4-session paper study from the seed
 * (app::Study::ensureTraces), takes the figure-JSON digest of a
 * jobs = 1 full pass as the reference, and fills the `.ares` result
 * cache. The timed phase repeats the two passes a user of the batch
 * harnesses runs, one recompute pass then six warm ones, all at
 * jobs = 4:
 *
 *  - recompute: engine::aggregateFromCache with incremental = false
 *    through this file's SessionLoader (trace::readTraceFile, then
 *    core::Session::fromTrace), engine::averageSessionAnalyses per
 *    app, core::figureJson for every core::figureIds() entry;
 *  - warm: the same with incremental = true, answered from `.ares`
 *    entries, so the loader must never run.
 *
 * Both passes must reproduce the reference digest byte for byte.
 *
 * In a recompute pass the calling thread only waits inside
 * aggregateFromCache while pool workers run the loader and the
 * engine's per-session analysis. The loader's spans charge trace and
 * core on the workers; the engine's share is the pass's CPU time less
 * everything timed (engine.analyze_busy_ms). The caller's wait itself
 * charges no layer, so no work is counted twice.
 */

#include <atomic>
#include <filesystem>

#include "app/study.hh"
#include "bench.hh"
#include "core/figure_json.hh"
#include "core/session.hh"
#include "engine/incremental.hh"
#include "engine/pool.hh"
#include "engine/result_cache.hh"
#include "obs/metrics.hh"
#include "trace/io.hh"

namespace perfbench
{

namespace
{

/** The simulated study on disk. */
struct StudyInputs
{
    lag::app::StudyConfig config;
    std::vector<std::string> names;
    std::vector<std::vector<std::string>> paths;
    std::vector<std::vector<std::uint64_t>> sizes;
};

/** What one pass did, counted by the loader. */
struct PassCounts
{
    std::atomic<std::uint64_t> loaderCalls{0};
    std::atomic<std::uint64_t> decodeAllocs{0};
    std::atomic<std::uint64_t> buildAllocs{0};
    std::atomic<std::uint64_t> decodeBytes{0};
    std::atomic<std::uint64_t> episodes{0};
    std::atomic<std::int64_t> decodeNs{0};
    std::atomic<std::int64_t> buildNs{0};
};

/** One pass's output and cost. */
struct Pass
{
    std::uint64_t digest = 0;
    double wallMs = 0.0;
    SchedTimes schedBefore; ///< just before the timed region
    SchedTimes schedAfter;  ///< just after it
    double cpuS = 0.0;
    std::uint64_t loaderCalls = 0;
    std::uint64_t decodeAllocs = 0;
    std::uint64_t buildAllocs = 0;
    std::uint64_t decodeBytes = 0;
    std::uint64_t episodes = 0;
    std::uint64_t programDecodedBytes = 0; ///< obs counter delta
    double decodeBusyMs = 0.0;  ///< loader's readTraceFile, all workers
    double buildBusyMs = 0.0;   ///< loader's Session::fromTrace
    double analyzeBusyMs = 0.0; ///< CPU not spent in a timed stage
};

std::int64_t
nsSince(Clock::time_point start)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start)
        .count();
}

StudyInputs
simulateStudy(std::uint64_t seed, const std::string &dir,
              unsigned jobs)
{
    StudyInputs in;
    in.config = lag::app::StudyConfig::paperStudy();
    in.config.jobs = jobs;
    in.config.cacheDir = dir;
    for (std::size_t a = 0; a < in.config.apps.size(); ++a) {
        in.config.apps[a].baseSeed = mixSeed(seed, a);
        in.names.push_back(in.config.apps[a].name);
    }
    lag::app::Study study(in.config);
    in.paths = study.ensureTraces();
    for (const auto &app : in.paths) {
        in.sizes.emplace_back();
        for (const std::string &path : app)
            in.sizes.back().push_back(std::filesystem::file_size(path));
    }
    return in;
}

std::uint64_t
decodedBytesCounter()
{
    return lag::obs::metrics().snapshot().counterValue(
        "trace.decode.bytes");
}

Pass
runPass(const StudyInputs &in, lag::engine::ThreadPool &pool,
        bool incremental)
{
    PassCounts counts;
    const lag::engine::SessionLoader loader =
        [&in, &counts](std::size_t a, std::uint32_t s) {
            counts.loaderCalls.fetch_add(1);
            lag::trace::Trace trace;
            {
                Span span("trace.decode", in.sizes[a][s]);
                const std::uint64_t before = threadAllocs();
                const Clock::time_point start = Clock::now();
                trace = lag::trace::readTraceFile(in.paths[a][s]);
                counts.decodeNs.fetch_add(nsSince(start));
                counts.decodeAllocs.fetch_add(threadAllocs() - before);
            }
            counts.decodeBytes.fetch_add(in.sizes[a][s]);
            Span span("core.build");
            const std::uint64_t before = threadAllocs();
            const Clock::time_point start = Clock::now();
            lag::core::Session session =
                lag::core::Session::fromTrace(std::move(trace));
            counts.buildNs.fetch_add(nsSince(start));
            counts.buildAllocs.fetch_add(threadAllocs() - before);
            counts.episodes.fetch_add(session.episodes().size());
            return session;
        };

    const lag::engine::ResultCache cache(in.config.cacheDir,
                                         in.config.fingerprint());
    lag::engine::AggregateOptions options;
    options.incremental = incremental;

    const std::uint64_t decoded_before = decodedBytesCounter();
    const double cpu_before = processCpuSeconds();
    Pass pass;
    pass.schedBefore = schedTimes();
    const Clock::time_point start = Clock::now();
    lag::engine::StudyAggregate aggregate;
    {
        Span span(incremental ? "engine.cache_aggregate"
                              : "engine.aggregate");
        const Clock::time_point call = Clock::now();
        aggregate = lag::engine::aggregateFromCache(
            cache, in.names, in.config.sessionsPerApp,
            in.config.perceptibleThreshold, pool, loader, options);
        // The caller waited while the workers' spans and the CPU
        // subtraction below charged the pass.
        if (!incremental)
            span.chargedElsewhere(nsSince(call));
    }
    std::vector<lag::core::AppFigureData> figures;
    const Clock::time_point average_start = Clock::now();
    {
        Span span("engine.average");
        for (std::size_t a = 0; a < in.names.size(); ++a) {
            figures.push_back(lag::engine::averageSessionAnalyses(
                in.names[a], aggregate.grid[a]));
        }
    }
    std::vector<std::string> json;
    {
        Span span("core.figure_json");
        for (const std::string &id : lag::core::figureIds())
            json.push_back(lag::core::figureJson(id, figures));
    }
    const double tail_ms = msSince(average_start);
    pass.wallMs = msSince(start);
    pass.schedAfter = schedTimes();
    pass.cpuS = processCpuSeconds() - cpu_before;
    pass.programDecodedBytes = decodedBytesCounter() - decoded_before;
    pass.decodeBusyMs = static_cast<double>(counts.decodeNs.load()) / 1e6;
    pass.buildBusyMs = static_cast<double>(counts.buildNs.load()) / 1e6;
    // Everything else the pass's threads did ran inside the engine:
    // analyzeSession and the cache writes on the workers.
    pass.analyzeBusyMs = pass.cpuS * 1e3 - pass.decodeBusyMs -
                         pass.buildBusyMs - tail_ms;

    Span span("bench.digest");
    std::uint64_t digest = 1469598103934665603ULL;
    for (const std::string &bytes : json)
        digest = digestBytes(bytes, digest);
    pass.digest = digest;
    pass.loaderCalls = counts.loaderCalls.load();
    pass.decodeAllocs = counts.decodeAllocs.load();
    pass.buildAllocs = counts.buildAllocs.load();
    pass.decodeBytes = counts.decodeBytes.load();
    pass.episodes = counts.episodes.load();
    return pass;
}

/** A count that must repeat exactly across passes of one run. */
void
checkRepeat(Result &result, const char *what, std::uint64_t expected,
            std::uint64_t got)
{
    result.check(expected == got,
                 std::string("study_batch: ") + what + " changed from " +
                     std::to_string(expected) + " to " +
                     std::to_string(got));
}

} // namespace

void
probeStudyBatch(const RunOptions &options)
{
    lag::engine::ThreadPool pool(options.jobs);
    const StudyInputs in =
        simulateStudy(options.seed, options.probeDir, options.jobs);
    runPass(in, pool, false);
}

void
runStudyBatch(const RunOptions &options, Result &result)
{
    // Two set-ups before the timed phase and one after it put the
    // median of three at both ends of the run, as a shared host's speed
    // drifts; each one must reproduce the first one's figures.
    constexpr int kSetupsBefore = 2;
    constexpr int kSetupsAfter = 1;
    constexpr int kWarmPerPass = 6;
    lag::engine::ThreadPool serial(1);
    lag::engine::ThreadPool pool(options.jobs);

    StudyInputs in;
    Pass reference;
    std::vector<double> setup_s;
    std::vector<double> ensure_s;
    std::string previous;
    auto set_up = [&] {
        const std::string dir =
            options.scratch + "/study-" + std::to_string(setup_s.size());
        const Clock::time_point start = Clock::now();
        in = simulateStudy(options.seed, dir, options.jobs);
        ensure_s.push_back(msSince(start) / 1e3);
        const Pass again = runPass(in, serial, false);
        result.check(setup_s.empty() || again.digest == reference.digest,
                     "study_batch: set-up did not repeat for the same "
                     "seed");
        reference = again;
        const Pass cold = runPass(in, pool, true); // fills .ares
        result.check(cold.digest == reference.digest,
                     "study_batch: cold incremental figures differ "
                     "from the jobs=1 reference");
        const Pass recompute = runPass(in, pool, false);
        const Pass warm = runPass(in, pool, true);
        result.check(recompute.digest == reference.digest &&
                         warm.digest == reference.digest,
                     "study_batch: warm-up figures differ from the "
                     "jobs=1 reference");
        setup_s.push_back(msSince(start) / 1e3);
        if (!previous.empty())
            std::filesystem::remove_all(previous);
        previous = dir;
    };
    for (int k = 0; k < kSetupsBefore; ++k)
        set_up();

    // Timed phase. A traced run spends its first third untraced, to
    // price the spans, and records the rest.
    const double budget_ms = options.seconds * 1e3;
    const double untraced_ms = options.trace ? budget_ms / 3 : budget_ms;
    TimedOps recompute_ops, warm_ops, untraced_ops, traced_ops;
    std::vector<double> pass_cpu_s;
    std::vector<double> efficiency, analyze_busy_ms;
    std::uint64_t warm_loader_calls = 0;
    const Clock::time_point start = Clock::now();
    while (msSince(start) < budget_ms) {
        const bool traced = options.trace && msSince(start) >= untraced_ms;
        setTracing(traced);
        Span iteration("bench.loop");
        const Pass recompute = runPass(in, pool, false);
        // Warm passes are short; six per recompute pass give their p90
        // more than ten samples beyond it in a 20 s run.
        std::vector<Pass> warm;
        for (int w = 0; w < kWarmPerPass; ++w)
            warm.push_back(runPass(in, pool, true));
        Span check("bench.check");
        result.check(recompute.digest == reference.digest,
                     "study_batch: recompute figures differ from the "
                     "jobs=1 reference");
        for (const Pass &pass : warm) {
            result.check(pass.digest == reference.digest,
                         "study_batch: warm figures differ from the "
                         "jobs=1 reference");
            result.check(pass.loaderCalls == 0 &&
                             pass.programDecodedBytes == 0,
                         "study_batch: warm pass decoded a trace");
            warm_loader_calls += pass.loaderCalls;
            warm_ops.add(pass.wallMs, pass.schedBefore, pass.schedAfter);
        }
        checkRepeat(result, "decode allocations",
                    reference.decodeAllocs, recompute.decodeAllocs);
        checkRepeat(result, "build allocations", reference.buildAllocs,
                    recompute.buildAllocs);
        checkRepeat(result, "sessions loaded", reference.loaderCalls,
                    recompute.loaderCalls);
        checkRepeat(result, "episodes built", reference.episodes,
                    recompute.episodes);
        recompute_ops.add(recompute.wallMs, recompute.schedBefore,
                          recompute.schedAfter);
        pass_cpu_s.push_back(recompute.cpuS);
        (traced ? traced_ops : untraced_ops)
            .add(recompute.wallMs, recompute.schedBefore,
                 recompute.schedAfter);
        if (traced) {
            efficiency.push_back(recompute.cpuS * 1e3 /
                                 (options.jobs * recompute.wallMs));
            analyze_busy_ms.push_back(recompute.analyzeBusyMs);
        }
    }
    setTracing(false);
    for (int k = 0; k < kSetupsAfter; ++k)
        set_up();
    const double peak_rss = probeRssMb(options, previous, 3);

    const double episodes = static_cast<double>(reference.episodes);
    const double pass_p50 = recompute_ops.adjusted(0.5);
    const double warm_p50 = warm_ops.adjusted(0.5);
    const double ok = result.okFrac();
    result.endToEnd = {
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"peak_rss_mb", peak_rss, "MiB"},
        {"ok_frac", ok, "ratio"},
        {"op_p50_ms", pass_p50, "ms"},
        {"op_tail_ms", recompute_ops.adjusted(0.9), "ms"},
        {"aux_p50_ms", warm_p50, "ms"},
        {"aux_tail_ms", warm_ops.adjusted(0.9), "ms"},
        {"work_cpu_s", quantile(pass_cpu_s, 0.5), "s"},
        {"throughput_per_s", episodes / (pass_p50 / 1e3), "1/s"},
    };
    result.named = {
        {"passes", static_cast<double>(recompute_ops.size()), "count"},
        {"episodes", episodes, "count"},
        {"study_mb", static_cast<double>(reference.decodeBytes) / 1e6,
         "MB"},
        {"batch_pass_s", pass_p50 / 1e3, "s"},
        {"batch_cpu_s", quantile(pass_cpu_s, 0.5), "s"},
        {"warm_pass_ms", warm_p50, "ms"},
        {"batch_pass_wall_s", quantile(recompute_ops.wallMs(), 0.5) / 1e3,
         "s"},
        {"warm_pass_wall_ms", quantile(warm_ops.wallMs(), 0.5), "ms"},
        {"episodes_per_s", episodes / (pass_p50 / 1e3), "1/s"},
        {"error_frac", 1.0 - ok, "ratio"},
    };
    if (!options.trace)
        return;

    const std::vector<ThreadSpans> threads = collectSpans();
    const auto stats = spanStats(threads);
    auto per_pass = [&](const char *name) {
        const auto it = stats.find(name);
        return it == stats.end() || traced_ops.size() == 0
                   ? 0.0
                   : it->second.totalMs /
                         static_cast<double>(traced_ops.size());
    };
    auto median_of = [&](const char *name) {
        const auto it = stats.find(name);
        return it == stats.end() ? 0.0
                                 : quantile(it->second.durationsMs, 0.5);
    };
    const double decode_ms = per_pass("trace.decode");
    const double build_ms = per_pass("core.build");
    double analyze_total_ms = 0.0;
    for (const double ms : analyze_busy_ms)
        analyze_total_ms += ms;
    result.perLayer = {
        {"app.ensure_traces_s", quantile(ensure_s, 0.5), "s"},
        {"app.sessions_simulated",
         static_cast<double>(in.names.size() *
                             in.config.sessionsPerApp),
         "count"},
        {"trace.decode_busy_ms", decode_ms, "ms"},
        {"trace.decode_mb_per_s",
         decode_ms > 0.0 ? static_cast<double>(reference.decodeBytes) /
                               1e6 / (decode_ms / 1e3)
                         : 0.0,
         "MB/s"},
        {"trace.decode_allocs",
         static_cast<double>(reference.decodeAllocs), "count"},
        {"trace.decode_calls",
         static_cast<double>(reference.loaderCalls), "count"},
        {"core.build_busy_ms", build_ms, "ms"},
        {"core.build_allocs", static_cast<double>(reference.buildAllocs),
         "count"},
        {"core.figure_json_ms", median_of("core.figure_json"), "ms"},
        {"engine.analyze_busy_ms", quantile(analyze_busy_ms, 0.5), "ms"},
        {"engine.pool_efficiency", quantile(efficiency, 0.5), "ratio"},
        {"engine.average_ms", median_of("engine.average"), "ms"},
        {"engine.cache_aggregate_ms", median_of("engine.cache_aggregate"),
         "ms"},
        {"engine.warm_loader_calls",
         static_cast<double>(warm_loader_calls), "count"},
        {"bench.trace_overhead_ratio",
         traced_ops.adjusted(0.5) / untraced_ops.adjusted(0.5),
         "ratio"},
    };
    finishTrace(options, threads, "bench.loop", traced_ops.size(),
                {{"engine", analyze_total_ms}}, result);
}

} // namespace perfbench
