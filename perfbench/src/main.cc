/**
 * @file
 * lagbench — the LagAlyzer benchmark.
 *
 * Usage: lagbench --workload NAME --seed N --seconds N --trace 0|1
 *                 [--trace-out PATH]
 *
 * Workloads: study_batch, trace_interactive, live_follow (see
 * perfbench/README.md for what each measures and why). It
 * generates every input from --seed in a private scratch directory,
 * measures for --seconds, checks every output against an oracle, and
 * prints one human-readable line per metric followed by one JSON
 * object as the last line of stdout:
 *
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 *
 * --trace 0 reports the end-to-end metrics (spans off); --trace 1
 * records spans around every call into the program and reports the
 * per-layer metrics instead. `--rss-probe DIR` is internal: the
 * benchmark re-runs itself with it to measure one operation's peak RSS
 * in a fresh process. Exit status: 0 when the run completed
 * (check "correct"), 2 on a usage error, 1 on a failed run.
 */

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <random>
#include <set>
#include <string>

#include "bench.hh"

namespace
{

using perfbench::Metric;

/** The end-to-end metrics every workload reports, in order. */
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},         {"peak_rss_mb", "MiB"},
    {"ok_frac", "ratio"},     {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},     {"aux_p50_ms", "ms"},
    {"aux_tail_ms", "ms"},    {"work_cpu_s", "s"},
    {"throughput_per_s", "1/s"},
};

/** The per-layer metrics every traced run reports, in order. A
 * layer the workload bypasses reads 0. */
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"app.ensure_traces_s", "s"},
    {"app.sessions_simulated", "count"},
    {"trace.decode_busy_ms", "ms"},
    {"trace.decode_mb_per_s", "MB/s"},
    {"trace.decode_allocs", "count"},
    {"trace.decode_calls", "count"},
    {"core.build_busy_ms", "ms"},
    {"core.build_allocs", "count"},
    {"core.figure_json_ms", "ms"},
    {"core.patterns_json_ms", "ms"},
    {"engine.analyze_busy_ms", "ms"},
    {"engine.pool_efficiency", "ratio"},
    {"engine.average_ms", "ms"},
    {"engine.cache_aggregate_ms", "ms"},
    {"engine.warm_loader_calls", "count"},
    {"engine.analyze_parallel_ms", "ms"},
    {"engine.analyze_serial_ms", "ms"},
    {"engine.shard_speedup", "ratio"},
    {"engine.shards", "count"},
    {"engine.ingest_epoch_ms_p50", "ms"},
    {"engine.ingest_epoch_ms_max", "ms"},
    {"engine.ingest_epochs", "count"},
    {"engine.ingest_epoch_ms_per_mb", "ms/MB"},
    {"engine.ingest_useful_frac", "ratio"},
    {"engine.ingest_backlog_bytes_max", "bytes"},
    {"engine.ingest_records", "count"},
    {"engine.ingest_catch_up_ms_512k", "ms"},
    {"engine.ingest_catch_up_growth", "ratio"},
    {"viz.sketch_ms", "ms"},
    {"serve.handler_us_p50", "us"},
    {"serve.handler_us_p99", "us"},
    {"serve.transport_us_p50", "us"},
    {"serve.transport_us_p99", "us"},
    {"serve.apply_ingest_ms_p50", "ms"},
    {"serve.apply_ingest_ms_max", "ms"},
    {"serve.gen_late_ms_p99", "ms"},
    {"serve.requests", "count"},
    {"serve.query_max_rps", "1/s"},
    {"self.trace_ms", "ms"},
    {"self.core_ms", "ms"},
    {"self.engine_ms", "ms"},
    {"self.viz_ms", "ms"},
    {"self.serve_ms", "ms"},
    {"self.bench_ms", "ms"},
    {"bench.unattributed_frac", "ratio"},
    {"bench.trace_overhead_ratio", "ratio"},
};

int
usage(const std::string &why)
{
    std::cerr << "lagbench: " << why
              << "\nusage: lagbench --workload "
                 "study_batch|trace_interactive|live_follow "
                 "--seed N --seconds N --trace 0|1 [--trace-out PATH]\n"
                 "(--rss-probe DIR is internal: the memory-probe child)\n";
    return 2;
}

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' || text[0] == '-')
        return false;
    out = v;
    return true;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Fill @p names from @p measured; absent names take @p absent. */
std::vector<Metric>
ordered(const std::vector<std::pair<std::string, std::string>> &names,
        const std::vector<Metric> &measured, bool &missing)
{
    std::vector<Metric> out;
    for (const auto &[name, unit] : names) {
        const Metric *found = nullptr;
        for (const Metric &m : measured) {
            if (m.name == name)
                found = &m;
        }
        if (found == nullptr)
            missing = true;
        out.push_back({name, found != nullptr ? found->value : 0.0,
                       unit});
    }
    return out;
}

/** A scratch directory named from the pid and a random nonce, so two
 * benchmark processes never share (or remove) each other's inputs. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &workload)
    {
        std::random_device rd;
        path_ = ".perfbench-tmp/" + workload + "-" +
                std::to_string(::getpid()) + "-" +
                std::to_string(rd());
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
        std::filesystem::remove(".perfbench-tmp", ec); // if empty
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string trace_out;
    std::string rss_probe;
    std::uint64_t seed = 0;
    std::uint64_t seconds = 0;
    std::uint64_t trace = 2;
    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            return usage("unexpected argument '" + arg + "'");
        if (!seen.insert(arg).second)
            return usage("repeated flag '" + arg + "'");
        if (i + 1 >= argc)
            return usage(arg + " needs a value");
        const char *value = argv[++i];
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed") {
            if (!parseUnsigned(value, seed))
                return usage("--seed needs a non-negative integer");
        } else if (arg == "--seconds") {
            if (!parseUnsigned(value, seconds) || seconds < 1 ||
                seconds > 600)
                return usage("--seconds needs an integer in 1..600");
        } else if (arg == "--trace") {
            if (!parseUnsigned(value, trace) || trace > 1)
                return usage("--trace needs 0 or 1");
        } else if (arg == "--trace-out") {
            trace_out = value;
        } else if (arg == "--rss-probe") {
            rss_probe = value;
        } else {
            return usage("unknown flag '" + arg + "'");
        }
    }
    if (workload.empty() || seconds == 0 || trace > 1 ||
        seen.count("--seed") == 0)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");
    void (*run)(const perfbench::RunOptions &, perfbench::Result &) =
        nullptr;
    void (*probe)(const perfbench::RunOptions &) = nullptr;
    if (workload == "study_batch") {
        run = perfbench::runStudyBatch;
        probe = perfbench::probeStudyBatch;
    } else if (workload == "trace_interactive") {
        run = perfbench::runTraceInteractive;
        probe = perfbench::probeTraceInteractive;
    } else if (workload == "live_follow") {
        run = perfbench::runLiveFollow;
        probe = perfbench::probeLiveFollow;
    } else {
        return usage("unknown workload '" + workload + "'");
    }

    perfbench::RunOptions options;
    options.workload = workload;
    options.seed = seed;
    options.seconds = static_cast<int>(seconds);
    options.trace = trace == 1;
    options.traceOut = trace_out;
    if (!rss_probe.empty()) {
        // Memory-probe child of probeRssMb(): one operation on the
        // parent's inputs, then the peak RSS alone on stdout.
        options.probeDir = rss_probe;
        try {
            probe(options);
        } catch (const std::exception &e) {
            std::cerr << "lagbench: rss probe failed: " << e.what()
                      << '\n';
            return 1;
        }
        std::printf("%.6f\n", perfbench::peakRssMb());
        return 0;
    }

    perfbench::Result result;
    {
        ScratchDir scratch(workload);
        options.scratch = scratch.path();
        try {
            run(options, result);
        } catch (const std::exception &e) {
            std::cerr << "lagbench: " << workload
                      << " failed: " << e.what() << '\n';
            return 1;
        }
    }

    bool missing = false;
    std::vector<Metric> metrics =
        trace == 1 ? ordered(kPerLayer, result.perLayer, missing)
                   : ordered(kEndToEnd, result.endToEnd, missing);
    if (missing && trace == 0) {
        std::cerr << "lagbench: " << workload
                  << " did not report every end-to-end metric\n";
        return 1;
    }
    for (Metric &m : metrics) {
        // JSON has no NaN or infinity; such a figure is a failed run.
        if (!std::isfinite(m.value)) {
            result.check(false, m.name + " is not a finite number");
            m.value = 0.0;
        }
    }
    const bool correct = result.failed == 0 && result.attempted > 0;
    for (const Metric &m : result.named) {
        std::printf("%-16s %-32s %.6g %s\n", workload.c_str(),
                    m.name.c_str(), m.value, m.unit.c_str());
    }
    std::string json = "{\"correct\":";
    json += correct ? "true" : "false";
    json += ",\"attempted\":" + std::to_string(result.attempted);
    json += ",\"failed\":" + std::to_string(result.failed);
    json += ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::printf("%-16s %-32s %.6g %s\n", workload.c_str(),
                    m.name.c_str(), m.value, m.unit.c_str());
        if (i > 0)
            json += ',';
        json += "\"" + m.name + "\":{\"value\":" +
                jsonNumber(m.value) + ",\"unit\":\"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return 0;
}
