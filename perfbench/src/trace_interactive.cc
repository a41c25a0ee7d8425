/**
 * @file
 * Workload `trace_interactive`: what `analyze_trace` does to one
 * long session, repeated by one closed-loop client.
 *
 * Set-up simulates eight paper-length Jmol sessions (the app with
 * the most perceptible lag) from the seed with app::runSession,
 * writes them with trace::writeTraceFile, and keeps each one's
 * serial analysis bytes (engine::serializeSessionAnalysis of
 * engine::analyzeSession) as its reference. Eight sessions rather
 * than one keep a single odd session from setting the figures. One
 * operation of the timed phase, on the next session in turn, is
 *
 *   trace::readTraceFile (mapped) -> core::Session::fromTrace ->
 *   engine::analyzeSessionParallel on a 4-worker pool ->
 *   core::mergeAnalyses + core::patternsJson ->
 *   viz::renderEpisodeSketch of the slowest episode,
 *
 * and the auxiliary operation is the same with the serial
 * engine::analyzeSession (analyze_trace --jobs 1). Operations
 * alternate; every result is checked against the reference bytes.
 */

#include <filesystem>
#include <optional>

#include "app/catalog.hh"
#include "app/session_runner.hh"
#include "bench.hh"
#include "core/aggregate.hh"
#include "core/figure_json.hh"
#include "core/session.hh"
#include "engine/parallel_analysis.hh"
#include "engine/pool.hh"
#include "engine/result_cache.hh"
#include "engine/study_driver.hh"
#include "trace/io.hh"
#include "viz/sketch.hh"

namespace perfbench
{

namespace
{

constexpr lag::DurationNs kThreshold = 100'000'000; // 100 ms
constexpr std::uint32_t kSessions = 8;

/** What one operation produced and cost. */
struct Op
{
    double latencyMs = 0.0;
    SchedTimes schedBefore; ///< just before the timed region
    SchedTimes schedAfter;  ///< just after it
    double cpuS = 0.0;
    std::string analysis; ///< serializeSessionAnalysis bytes
    std::uint64_t outputDigest = 0;
    std::uint64_t decodeAllocs = 0;
    std::uint64_t buildAllocs = 0;
    std::size_t episodes = 0;
};

Op
runOp(const std::string &path, lag::engine::ThreadPool *pool)
{
    Op op;
    const double cpu_before = processCpuSeconds();
    op.schedBefore = schedTimes();
    const Clock::time_point start = Clock::now();
    lag::trace::Trace trace;
    {
        Span span("trace.decode");
        const std::uint64_t before = threadAllocs();
        trace = lag::trace::readTraceFile(
            path, lag::trace::TraceReadMode::Mapped);
        op.decodeAllocs = threadAllocs() - before;
    }
    const std::string app = trace.meta.appName;
    std::optional<lag::core::Session> built;
    {
        Span span("core.build");
        const std::uint64_t before = threadAllocs();
        built.emplace(lag::core::Session::fromTrace(std::move(trace)));
        op.buildAllocs = threadAllocs() - before;
    }
    const lag::core::Session &session = *built;
    std::optional<lag::engine::SessionAnalysis> result;
    if (pool != nullptr) {
        Span span("engine.analyze_parallel");
        result = lag::engine::analyzeSessionParallel(session, kThreshold,
                                                     *pool);
    } else {
        Span span("engine.analyze_serial");
        result = lag::engine::analyzeSession(session, kThreshold);
    }
    const lag::engine::SessionAnalysis &analysis = *result;
    std::optional<lag::core::MergedPatternSet> merged;
    {
        Span span("core.merge");
        merged = lag::core::mergeAnalyses({analysis.patternSummary});
    }
    std::string patterns;
    {
        Span span("core.patterns_json");
        patterns = lag::core::patternsJson(app, *merged, "episodes", 0);
    }
    std::string svg;
    {
        Span span("viz.sketch");
        const lag::core::Episode *slowest = nullptr;
        for (const lag::core::Episode &episode : session.episodes()) {
            if (slowest == nullptr ||
                episode.duration() > slowest->duration())
                slowest = &episode;
        }
        if (slowest != nullptr) {
            svg = lag::viz::renderEpisodeSketch(session, *slowest)
                      .finish();
        }
    }
    op.latencyMs = msSince(start);
    op.schedAfter = schedTimes();
    op.cpuS = processCpuSeconds() - cpu_before;
    op.episodes = session.episodes().size();

    {
        Span span("engine.serialize");
        op.analysis = lag::engine::serializeSessionAnalysis(analysis);
    }
    {
        Span span("bench.digest");
        op.outputDigest = digestBytes(svg, digestBytes(patterns));
    }
    // Tearing the results down is the layers' work too.
    {
        Span span("engine.release");
        result.reset();
    }
    {
        Span span("core.release");
        merged.reset();
        built.reset();
    }
    return op;
}

std::vector<std::string>
sessionPaths(const std::string &dir)
{
    std::vector<std::string> paths;
    for (std::uint32_t s = 0; s < kSessions; ++s)
        paths.push_back(dir + "/jmol-" + std::to_string(s) + ".lag");
    return paths;
}

} // namespace

void
probeTraceInteractive(const RunOptions &options)
{
    lag::engine::ThreadPool pool(options.jobs);
    for (const std::string &path : sessionPaths(options.probeDir))
        runOp(path, &pool);
}

void
runTraceInteractive(const RunOptions &options, Result &result)
{
    // A set-up takes about a second, and a shared host's speed drifts
    // over seconds. Three set-ups before the timed phase and two after
    // it put the median of five at both ends of the run; each one must
    // regenerate the same sessions and reference analyses.
    constexpr int kSetupsBefore = 3;
    constexpr int kSetupsAfter = 2;
    lag::engine::ThreadPool pool(options.jobs);
    const std::vector<std::string> paths = sessionPaths(options.scratch);

    std::vector<Op> references;
    std::vector<double> setup_s;
    std::vector<double> simulate_s;
    auto set_up = [&] {
        const Clock::time_point start = Clock::now();
        lag::app::AppParams params = lag::app::catalogApp("Jmol");
        params.baseSeed = mixSeed(options.seed, 0x6a6d6f6c);
        lag::engine::parallelFor(pool, kSessions, [&](std::size_t s) {
            const lag::app::SessionRunResult run = lag::app::runSession(
                params, static_cast<std::uint32_t>(s));
            std::filesystem::remove(paths[s]);
            lag::trace::writeTraceFile(run.trace, paths[s]);
        });
        simulate_s.push_back(msSince(start) / 1e3);
        std::vector<Op> serial(kSessions);
        for (std::uint32_t s = 0; s < kSessions; ++s) {
            serial[s] = runOp(paths[s], nullptr);
            const Op warm = runOp(paths[s], &pool);
            result.check(warm.analysis == serial[s].analysis &&
                             warm.outputDigest == serial[s].outputDigest,
                         "trace_interactive: parallel analysis differs "
                         "from serial in warm-up");
        }
        setup_s.push_back(msSince(start) / 1e3);
        for (std::uint32_t s = 0; s < references.size(); ++s) {
            result.check(serial[s].analysis == references[s].analysis &&
                             serial[s].outputDigest ==
                                 references[s].outputDigest,
                         "trace_interactive: set-up did not repeat for "
                         "the same seed");
        }
        // The latest set-up's allocation counts are the reference: a
        // process's first calls allocate once-only state.
        references = std::move(serial);
    };
    for (int k = 0; k < kSetupsBefore; ++k)
        set_up();
    double trace_mb = 0.0;
    double episodes = 0.0;
    for (std::uint32_t s = 0; s < kSessions; ++s) {
        trace_mb +=
            static_cast<double>(std::filesystem::file_size(paths[s])) /
            1e6 / kSessions;
        episodes += static_cast<double>(references[s].episodes) /
                    kSessions;
    }

    const double budget_ms = options.seconds * 1e3;
    const double untraced_ms = options.trace ? budget_ms / 3 : budget_ms;
    TimedOps parallel_ops, serial_ops, untraced_ops, traced_ops;
    std::vector<double> cpu_s;
    const Clock::time_point start = Clock::now();
    for (int i = 0; msSince(start) < budget_ms; ++i) {
        const bool traced = options.trace && msSince(start) >= untraced_ms;
        setTracing(traced);
        Span iteration("bench.loop");
        const bool parallel = i % 2 == 0;
        const Op &reference = references[(i / 2) % kSessions];
        const Op op = runOp(paths[(i / 2) % kSessions],
                            parallel ? &pool : nullptr);
        Span check("bench.check");
        result.check(op.analysis == reference.analysis,
                     std::string("trace_interactive: ") +
                         (parallel ? "parallel" : "serial") +
                         " analysis bytes differ from the serial "
                         "reference");
        result.check(op.outputDigest == reference.outputDigest,
                     "trace_interactive: patterns JSON or sketch SVG "
                     "changed between runs");
        result.check(op.decodeAllocs == reference.decodeAllocs &&
                         op.buildAllocs == reference.buildAllocs,
                     "trace_interactive: allocation counts changed "
                     "between runs");
        if (parallel) {
            parallel_ops.add(op.latencyMs, op.schedBefore, op.schedAfter);
            cpu_s.push_back(op.cpuS);
            (traced ? traced_ops : untraced_ops)
                .add(op.latencyMs, op.schedBefore, op.schedAfter);
        } else {
            serial_ops.add(op.latencyMs, op.schedBefore, op.schedAfter);
        }
    }
    setTracing(false);
    for (int k = 0; k < kSetupsAfter; ++k)
        set_up();
    const double peak_rss = probeRssMb(options, options.scratch, 3);

    const double p50 = parallel_ops.adjusted(0.5);
    const double p90 = parallel_ops.adjusted(0.9);
    const double ok = result.okFrac();
    result.endToEnd = {
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"peak_rss_mb", peak_rss, "MiB"},
        {"ok_frac", ok, "ratio"},
        {"op_p50_ms", p50, "ms"},
        {"op_tail_ms", p90, "ms"},
        {"aux_p50_ms", serial_ops.adjusted(0.5), "ms"},
        {"aux_tail_ms", serial_ops.adjusted(0.9), "ms"},
        {"work_cpu_s", quantile(cpu_s, 0.5), "s"},
        {"throughput_per_s", episodes / (p50 / 1e3), "1/s"},
    };
    result.named = {
        {"operations", static_cast<double>(parallel_ops.size()),
         "count"},
        {"sessions", kSessions, "count"},
        {"episodes_per_session", episodes, "count"},
        {"trace_mb_per_session", trace_mb, "MB"},
        {"trace_latency_p50_ms", p50, "ms"},
        {"trace_latency_p90_ms", p90, "ms"},
        {"serial_latency_p50_ms", serial_ops.adjusted(0.5), "ms"},
        {"trace_wall_latency_p50_ms",
         quantile(parallel_ops.wallMs(), 0.5), "ms"},
        {"trace_wall_latency_p90_ms",
         quantile(parallel_ops.wallMs(), 0.9), "ms"},
        {"error_frac", 1.0 - ok, "ratio"},
    };
    if (!options.trace)
        return;

    const std::vector<ThreadSpans> threads = collectSpans();
    const auto stats = spanStats(threads);
    auto median_of = [&](const char *name) {
        const auto it = stats.find(name);
        return it == stats.end() ? 0.0
                                 : quantile(it->second.durationsMs, 0.5);
    };
    auto mean_of = [&](std::uint64_t Op::*count) {
        double total = 0.0;
        for (const Op &op : references)
            total += static_cast<double>(op.*count);
        return total / kSessions;
    };
    const double decode_ms = median_of("trace.decode");
    const double parallel = median_of("engine.analyze_parallel");
    const double serial = median_of("engine.analyze_serial");
    result.perLayer = {
        {"app.ensure_traces_s", quantile(simulate_s, 0.5), "s"},
        {"app.sessions_simulated", kSessions, "count"},
        {"trace.decode_busy_ms", decode_ms, "ms"},
        {"trace.decode_mb_per_s",
         decode_ms > 0.0 ? trace_mb / (decode_ms / 1e3) : 0.0, "MB/s"},
        {"trace.decode_allocs", mean_of(&Op::decodeAllocs), "count"},
        {"trace.decode_calls", 1.0, "count"},
        {"core.build_busy_ms", median_of("core.build"), "ms"},
        {"core.build_allocs", mean_of(&Op::buildAllocs), "count"},
        {"core.patterns_json_ms", median_of("core.patterns_json"), "ms"},
        {"engine.analyze_parallel_ms", parallel, "ms"},
        {"engine.analyze_serial_ms", serial, "ms"},
        {"engine.shard_speedup", parallel > 0.0 ? serial / parallel : 0.0,
         "ratio"},
        {"engine.shards",
         static_cast<double>(lag::engine::shardCountFor(
             pool.workerCount(), static_cast<std::size_t>(episodes))),
         "count"},
        {"engine.pool_efficiency",
         quantile(cpu_s, 0.5) * 1e3 / (options.jobs * p50), "ratio"},
        {"viz.sketch_ms", median_of("viz.sketch"), "ms"},
        {"bench.trace_overhead_ratio",
         traced_ops.adjusted(0.5) / untraced_ops.adjusted(0.5),
         "ratio"},
    };
    finishTrace(options, threads, "bench.loop",
                traced_ops.size() * 2, {}, result);
}

} // namespace perfbench
