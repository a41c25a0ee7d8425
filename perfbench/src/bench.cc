#include "bench.hh"

#include <dirent.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "obs/json_check.hh"

extern char **environ;

// Counting allocator: every operator new in the process bumps a
// per-thread counter, so a call's allocations are the difference
// of threadAllocs() around it on the thread that made the call.
namespace
{

thread_local std::uint64_t t_allocs = 0;

void *
countedAlloc(std::size_t size)
{
    ++t_allocs;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    ++t_allocs;
    const auto a = static_cast<std::size_t>(align);
    const std::size_t rounded = (std::max<std::size_t>(size, 1) +
                                 a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++t_allocs;
    return std::malloc(size == 0 ? 1 : size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    ++t_allocs;
    return std::malloc(size == 0 ? 1 : size);
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace perfbench
{

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

SchedTimes
schedTimes(const std::vector<std::string> &prefixes)
{
    SchedTimes times;
    if (DIR *dir = ::opendir("/proc/self/task")) {
        while (const dirent *entry = ::readdir(dir)) {
            if (entry->d_name[0] == '.')
                continue;
            const std::string task =
                std::string("/proc/self/task/") + entry->d_name;
            if (!prefixes.empty()) {
                std::ifstream comm(task + "/comm");
                std::string name;
                std::getline(comm, name);
                bool match = false;
                for (const std::string &prefix : prefixes)
                    match = match || name.rfind(prefix, 0) == 0;
                if (!match)
                    continue;
            }
            std::ifstream stat(task + "/schedstat");
            double run = 0.0;
            double wait = 0.0;
            if (stat >> run >> wait) {
                times.runNs += run;
                times.waitNs += wait;
            }
        }
        ::closedir(dir);
    }
    // cpu  user nice system idle iowait irq softirq steal ...
    std::ifstream stat("/proc/stat");
    std::string label;
    double ticks[8] = {};
    stat >> label;
    for (double &t : ticks)
        stat >> t;
    const double ns_per_tick =
        1e9 / static_cast<double>(sysconf(_SC_CLK_TCK));
    times.busyNs = (ticks[0] + ticks[1] + ticks[2] + ticks[5] + ticks[6]) *
                   ns_per_tick;
    times.stealNs = ticks[7] * ns_per_tick;
    return times;
}

namespace
{

/** a - b, or 0 if a counter went backwards. */
double
delta(double a, double b)
{
    return std::max(0.0, a - b);
}

/** run / (run + lost), or 1 when the threads did not run. */
double
runShare(double run, double lost)
{
    return run > 0.0 ? run / (run + lost) : 1.0;
}

/** Steal not already counted as run-queue wait: a thread woken on an
 * idle vCPU waits while the host schedules that vCPU, and the guest
 * counts that delay both as the thread's wait and as steal. */
double
stealBeyondWait(double steal, double wait)
{
    return std::max(0.0, steal - wait);
}

} // namespace

void
TimedOps::add(double wallMs, const SchedTimes &before,
              const SchedTimes &after)
{
    const double run = delta(after.runNs, before.runNs);
    const double busy = delta(after.busyNs, before.busyNs);
    // /proc/stat counts in clock ticks: a short interval can show
    // less busy time than the threads ran.
    const double share = busy > run ? run / busy : 1.0;
    wallMs_.push_back(wallMs);
    runNs_.push_back(run);
    waitNs_.push_back(delta(after.waitNs, before.waitNs));
    stealNs_.push_back(delta(after.stealNs, before.stealNs) * share);
}

double
TimedOps::adjusted(double q) const
{
    constexpr std::size_t kWindows = 8;
    const std::size_t n = wallMs_.size();
    const std::size_t windows = std::min(kWindows, n);
    std::vector<double> values;
    for (std::size_t w = 0; w < windows; ++w) {
        double run = 0.0;
        double wait = 0.0;
        double steal = 0.0;
        std::vector<double> ms;
        for (std::size_t i = n * w / windows; i < n * (w + 1) / windows;
             ++i) {
            run += runNs_[i];
            wait += waitNs_[i];
            steal += stealNs_[i];
            ms.push_back(wallMs_[i] * runShare(runNs_[i], waitNs_[i]));
        }
        values.push_back(quantile(ms, q) *
                         runShare(run, stealBeyondWait(steal, wait)));
    }
    return quantile(values, 0.25);
}

double
TimedOps::adjustedTotalMs() const
{
    double ms = 0.0;
    double run = 0.0;
    double wait = 0.0;
    double steal = 0.0;
    for (std::size_t i = 0; i < wallMs_.size(); ++i) {
        ms += wallMs_[i] * runShare(runNs_[i], waitNs_[i]);
        run += runNs_[i];
        wait += waitNs_[i];
        steal += stealNs_[i];
    }
    return ms * runShare(run, stealBeyondWait(steal, wait));
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
probeRssMb(const RunOptions &options, const std::string &dir, int runs)
{
    std::vector<double> values;
    for (int i = 0; i < runs; ++i) {
        std::vector<std::string> args = {
            "/proc/self/exe", "--workload", options.workload,
            "--seed",         std::to_string(options.seed),
            "--seconds",      "1",
            "--trace",        "0",
            "--rss-probe",    dir};
        std::vector<char *> argv;
        for (std::string &arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        int fds[2];
        if (::pipe(fds) != 0)
            throw std::runtime_error("rss probe: pipe failed");
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
        posix_spawn_file_actions_addclose(&actions, fds[0]);
        posix_spawn_file_actions_addclose(&actions, fds[1]);
        pid_t pid = 0;
        const int rc = posix_spawn(&pid, "/proc/self/exe", &actions,
                                   nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(fds[1]);
        std::string out;
        if (rc == 0) {
            char buf[256];
            ssize_t n = 0;
            while ((n = ::read(fds[0], buf, sizeof buf)) != 0) {
                if (n > 0)
                    out.append(buf, static_cast<std::size_t>(n));
                else if (errno != EINTR)
                    break;
            }
        }
        ::close(fds[0]);
        int status = 0;
        while (rc == 0 && ::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("rss probe of " + dir + " failed");
        values.push_back(std::strtod(out.c_str(), nullptr));
    }
    return quantile(values, 0.5);
}

std::uint64_t
threadAllocs()
{
    return t_allocs;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
windowedQuantile(const std::vector<double> &values, double q)
{
    constexpr std::size_t kWindows = 5;
    if (values.size() < kWindows)
        return quantile(values, q);
    std::vector<double> tails;
    for (std::size_t w = 0; w < kWindows; ++w) {
        const auto begin = values.begin() + static_cast<std::ptrdiff_t>(
                                                values.size() * w / kWindows);
        const auto end =
            values.begin() + static_cast<std::ptrdiff_t>(
                                 values.size() * (w + 1) / kWindows);
        tails.push_back(quantile(std::vector<double>(begin, end), q));
    }
    return quantile(tails, 0.5);
}

std::uint64_t
digestBytes(const std::string &bytes, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt +
                      0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

void
Result::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::cerr << "perfbench: check failed: " << what << '\n';
    }
}

double
Result::okFrac() const
{
    return attempted == 0 ? 0.0
                          : 1.0 - static_cast<double>(failed) /
                                      static_cast<double>(attempted);
}

// ---- span recorder -------------------------------------------------

namespace
{

const Clock::time_point g_epoch = Clock::now();
std::atomic<bool> g_tracing{false};

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - g_epoch)
        .count();
}

/** One thread's span log. Appends lock only this thread's mutex, so
 * the collector can read a log while its thread parks in a pool. */
struct ThreadLog
{
    std::mutex mutex;
    ThreadSpans data;
    std::vector<int> open; ///< touched by the owning thread only
};

std::mutex g_logsMutex;
std::vector<std::unique_ptr<ThreadLog>> g_logs; // never shrinks

ThreadLog &
threadLog()
{
    thread_local ThreadLog *log = nullptr;
    if (log == nullptr) {
        std::lock_guard<std::mutex> lock(g_logsMutex);
        g_logs.push_back(std::make_unique<ThreadLog>());
        log = g_logs.back().get();
        log->data.tid = static_cast<int>(g_logs.size());
        log->data.label = "thread-" + std::to_string(log->data.tid);
    }
    return *log;
}

} // namespace

void
setTracing(bool on)
{
    g_tracing.store(on, std::memory_order_relaxed);
}

Span::Span(const char *name, std::uint64_t arg)
{
    if (!g_tracing.load(std::memory_order_relaxed))
        return;
    ThreadLog &log = threadLog();
    SpanRecord record;
    record.name = name;
    record.parent = log.open.empty() ? -1 : log.open.back();
    record.arg = arg;
    std::lock_guard<std::mutex> lock(log.mutex);
    index_ = static_cast<int>(log.data.spans.size());
    record.startNs = nowNs();
    log.data.spans.push_back(record);
    log.open.push_back(index_);
}

Span::~Span()
{
    if (index_ < 0)
        return;
    ThreadLog &log = threadLog();
    const std::int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(log.mutex);
    log.data.spans[static_cast<std::size_t>(index_)].endNs = end;
    log.open.pop_back();
}

void
Span::chargedElsewhere(std::int64_t ns)
{
    if (index_ < 0)
        return;
    ThreadLog &log = threadLog();
    std::lock_guard<std::mutex> lock(log.mutex);
    log.data.spans[static_cast<std::size_t>(index_)].elsewhereNs += ns;
}

void
labelThread(const std::string &label)
{
    ThreadLog &log = threadLog();
    std::lock_guard<std::mutex> lock(log.mutex);
    log.data.label = label;
}

std::vector<ThreadSpans>
collectSpans()
{
    std::vector<ThreadSpans> out;
    std::lock_guard<std::mutex> lock(g_logsMutex);
    for (const auto &log : g_logs) {
        std::lock_guard<std::mutex> inner(log->mutex);
        if (!log->data.spans.empty())
            out.push_back(log->data);
    }
    return out;
}

namespace
{

/** Spans as Chrome trace-event JSON. */
std::string
chromeTraceJson(const std::vector<ThreadSpans> &threads)
{
    std::ostringstream out;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            out << ',';
        first = false;
    };
    char buf[64];
    for (const ThreadSpans &thread : threads) {
        sep();
        out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
               "\"tid\":"
            << thread.tid << ",\"args\":{\"name\":\"" << thread.label
            << "\"}}";
        for (std::size_t i = 0; i < thread.spans.size(); ++i) {
            const SpanRecord &span = thread.spans[i];
            sep();
            out << "{\"ph\":\"X\",\"name\":\"" << span.name
                << "\",\"cat\":\"perfbench\",\"pid\":1,\"tid\":"
                << thread.tid << ",\"ts\":";
            std::snprintf(buf, sizeof buf, "%.3f",
                          static_cast<double>(span.startNs) / 1e3);
            out << buf << ",\"dur\":";
            std::snprintf(
                buf, sizeof buf, "%.3f",
                static_cast<double>(span.endNs - span.startNs) / 1e3);
            out << buf << ",\"args\":{\"id\":" << i
                << ",\"parent\":" << span.parent
                << ",\"arg\":" << span.arg << "}}";
        }
    }
    out << "]}";
    return out.str();
}

/**
 * Per span of @p thread, the time its direct children cover. The
 * children of one thread's span are nested inside it and disjoint from
 * each other, so that is the sum of their durations.
 */
std::vector<std::int64_t>
childCoveredNs(const ThreadSpans &thread)
{
    std::vector<std::int64_t> covered(thread.spans.size(), 0);
    for (const SpanRecord &span : thread.spans) {
        if (span.parent >= 0)
            covered[static_cast<std::size_t>(span.parent)] +=
                span.endNs - span.startNs;
    }
    return covered;
}

} // namespace

std::map<std::string, SpanStats>
spanStats(const std::vector<ThreadSpans> &threads)
{
    std::map<std::string, SpanStats> stats;
    for (const ThreadSpans &thread : threads) {
        const std::vector<std::int64_t> childNs = childCoveredNs(thread);
        for (std::size_t i = 0; i < thread.spans.size(); ++i) {
            const SpanRecord &span = thread.spans[i];
            SpanStats &s = stats[span.name];
            const double ms =
                static_cast<double>(span.endNs - span.startNs) / 1e6;
            s.totalMs += ms;
            s.selfMs += std::max(
                0.0, ms - static_cast<double>(childNs[i] +
                                              span.elsewhereNs) /
                              1e6);
            s.durationsMs.push_back(ms);
        }
    }
    return stats;
}

namespace
{

/** The layer a span charges: its name up to the first '.'. */
std::string_view
layerOf(const char *name)
{
    const std::string_view full(name);
    return full.substr(0, full.find('.'));
}

/** The program's layers, in report order. */
constexpr const char *kLayers[] = {"app",    "trace", "core",
                                   "engine", "viz",   "serve"};

bool
isProgramLayer(std::string_view layer)
{
    for (const char *l : kLayers) {
        if (layer == l)
            return true;
    }
    return false;
}

/** Self time summed per layer. */
std::map<std::string, double>
layerSelfMs(const std::vector<ThreadSpans> &threads)
{
    std::map<std::string, double> layers;
    for (const auto &[name, s] : spanStats(threads))
        layers[std::string(layerOf(name.c_str()))] += s.selfMs;
    return layers;
}

/**
 * Unattributed share of the time threads spend in spans named
 * @p root, worst over the threads that have one. Within a root, the
 * outermost `sched` spans are open-loop waits and leave the
 * denominator; the outermost program-layer spans are covered; the
 * rest (the benchmark's own work and calls no span names) is
 * unattributed. A span inside a covered or waiting span does not
 * count again.
 */
double
unattributedShare(const std::vector<ThreadSpans> &threads,
                  const char *root)
{
    // Open: a benchmark span inside a root, whose children are
    // classified in turn. Outside: not under a root.
    enum class Kind { Open, Root, Covered, Waiting, Outside };
    double worst = 0.0;
    for (const ThreadSpans &thread : threads) {
        std::vector<Kind> kind(thread.spans.size(), Kind::Outside);
        std::int64_t rootNs = 0;
        std::int64_t coveredNs = 0;
        std::int64_t waitingNs = 0;
        for (std::size_t i = 0; i < thread.spans.size(); ++i) {
            const SpanRecord &span = thread.spans[i];
            const std::int64_t ns = span.endNs - span.startNs;
            const Kind parent =
                span.parent < 0
                    ? Kind::Outside
                    : kind[static_cast<std::size_t>(span.parent)];
            if (parent == Kind::Outside) {
                if (std::string_view(span.name) == root) {
                    kind[i] = Kind::Root;
                    rootNs += ns;
                }
                continue;
            }
            if (parent != Kind::Root && parent != Kind::Open) {
                kind[i] = parent;
                continue;
            }
            const std::string_view layer = layerOf(span.name);
            if (isProgramLayer(layer)) {
                kind[i] = Kind::Covered;
                coveredNs += ns;
            } else if (layer == "sched") {
                kind[i] = Kind::Waiting;
                waitingNs += ns;
            } else {
                kind[i] = Kind::Open;
            }
        }
        const std::int64_t busyNs = rootNs - waitingNs;
        if (busyNs > 0) {
            worst = std::max(worst,
                             1.0 - static_cast<double>(coveredNs) /
                                       static_cast<double>(busyNs));
        }
    }
    return worst;
}

} // namespace

void
finishTrace(const RunOptions &options,
            const std::vector<ThreadSpans> &threads, const char *root,
            std::size_t ops, const std::map<std::string, double> &busyMs,
            Result &result)
{
    const std::string json = chromeTraceJson(threads);
    const lag::obs::JsonCheckResult valid =
        lag::obs::checkChromeTrace(json);
    result.check(valid.ok, "chrome trace invalid: " + valid.message);
    const std::string path = options.traceOut.empty()
                                 ? options.scratch + "/trace.json"
                                 : options.traceOut;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << json;
    result.check(static_cast<bool>(out), "cannot write " + path);

    std::map<std::string, double> layers = layerSelfMs(threads);
    for (const auto &[layer, ms] : busyMs)
        layers[layer] += ms;
    for (const char *layer :
         {"trace", "core", "engine", "viz", "serve", "bench"}) {
        const auto it = layers.find(layer);
        result.perLayer.push_back(
            {std::string("self.") + layer + "_ms",
             it == layers.end() || ops == 0
                 ? 0.0
                 : it->second / static_cast<double>(ops),
             "ms"});
    }
    const double unattributed = unattributedShare(threads, root);
    result.perLayer.push_back(
        {"bench.unattributed_frac", unattributed, "ratio"});
    result.check(unattributed <= 0.10,
                 "named stages cover under 90% of the timed wall time "
                 "(unattributed " +
                     std::to_string(unattributed) + ")");
}

} // namespace perfbench
