/**
 * @file
 * Shared machinery of the LagAlyzer benchmark: clocks,
 * process resource probes, exact allocation counts, the span
 * recorder for traced runs, and the result every workload fills in.
 *
 * Everything here lives outside the program under test. Spans are
 * recorded only around the calls the benchmark makes into the
 * public functions of each layer, so the layer a span charges is the
 * layer whose function the benchmark called.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since @p start. */
double msSince(Clock::time_point start);

/** Process CPU time (user + system, all threads) in seconds. */
double processCpuSeconds();

/**
 * Scheduler time of some of this process's threads, and of the
 * machine's vCPUs, so far: what TimedOps needs.
 */
struct SchedTimes
{
    double runNs = 0.0;   ///< the threads ran on a CPU
    double waitNs = 0.0;  ///< the threads were runnable but queued
    double stealNs = 0.0; ///< every vCPU: taken by the hypervisor
    double busyNs = 0.0;  ///< every vCPU: running any task
};

/**
 * Sample SchedTimes: run and wait from each thread's
 * /proc/self/task/TID/schedstat, steal and busy from /proc/stat. With
 * @p prefixes empty every thread counts, else only threads whose
 * name starts with one of them. The threads counted must all be
 * alive at both samples of an interval.
 */
SchedTimes schedTimes(const std::vector<std::string> &prefixes = {});

/**
 * The timed operations of one kind in one run, in the order they ran,
 * each with the scheduler time its threads got and lost.
 */
class TimedOps
{
  public:
    /** Record one operation of @p wallMs, sampled with schedTimes()
     * just before and just after it. */
    void add(double wallMs, const SchedTimes &before,
             const SchedTimes &after);

    std::size_t size() const { return wallMs_.size(); }
    const std::vector<double> &wallMs() const { return wallMs_; }

    /**
     * Contention-adjusted q-quantile in the calmer part of the run:
     * the time the operations' threads were runnable but got no CPU,
     * because other tenants of the machine had it, is taken out.
     *
     * Each operation's wall time is scaled by run / (run + wait), its
     * threads' own schedstat times. The operations are then cut into
     * kWindows consecutive slices; each slice's q-quantile is scaled
     * by run / (run + steal - wait) summed over the slice, where steal
     * is the vCPUs' steal pro-rated to the threads' share of busy vCPU
     * time (/proc/stat counts it in ticks, too coarse for one
     * operation) and only steal beyond the wait counts, since waking
     * a thread on an idle vCPU shows up as both. The lower quartile of
     * the slices is reported, so a slow spell covering up to three
     * quarters of the run does not set it; a slowdown of the program
     * itself moves every slice. Time the threads spent blocked (locks,
     * I/O, idle workers) stays in; with nothing else competing for
     * the CPUs this is the wall-time quantile.
     */
    double adjusted(double q) const;

    /** Sum of the wall times, scaled as in adjusted() over the whole
     * run as one slice. */
    double adjustedTotalMs() const;

  private:
    std::vector<double> wallMs_;
    std::vector<double> runNs_;
    std::vector<double> waitNs_;
    std::vector<double> stealNs_; ///< pro-rated
};

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** Heap allocations (`operator new` calls) made so far by the
 * calling thread; counted exactly by lagbench's own allocator. */
std::uint64_t threadAllocs();

// quantile(), digestBytes() and mixSeed() repeat what src/util has on
// purpose: the benchmark's statistics, oracles and inputs must not
// move when the program under test changes.

/** Linear-interpolated quantile, q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> values, double q);

/**
 * Tail of @p values (in the order they were measured) that one burst
 * of interference on a shared host cannot set alone: the median, over
 * kWindows consecutive equal-count slices, of each slice's
 * q-quantile.
 */
double windowedQuantile(const std::vector<double> &values, double q);

/** 64-bit FNV-1a of @p bytes, for output digests. */
std::uint64_t digestBytes(const std::string &bytes,
                          std::uint64_t seed = 1469598103934665603ULL);

/** Turn span recording on or off for every thread. */
void setTracing(bool on);

/**
 * RAII span: records [construction, destruction) on the calling
 * thread, nested under the thread's innermost open span. A no-op
 * when tracing is off. @p name must be a string literal; the part
 * before its first '.' names the layer it charges: a program layer
 * (app, trace, core, engine, viz, serve), `bench` for the
 * benchmark's own work, `sched` for open-loop waits, `gen` for load
 * generation.
 */
class Span
{
  public:
    explicit Span(const char *name, std::uint64_t arg = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** @p ns of this span's interval were spent by spans on other
     * threads (a server handler, pool workers) that charge their own
     * layer; they are left out of this span's self time. */
    void chargedElsewhere(std::int64_t ns);

  private:
    int index_ = -1;
};

/** One recorded span. */
struct SpanRecord
{
    const char *name = nullptr;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1; ///< index in the same thread's list, or -1
    std::uint64_t arg = 0;
    std::int64_t elsewhereNs = 0; ///< see Span::chargedElsewhere
};

/** Every span one thread recorded, in start order. */
struct ThreadSpans
{
    int tid = 0;
    std::string label;
    std::vector<SpanRecord> spans;
};

/** Name the calling thread in the trace output. */
void labelThread(const std::string &label);

/** Copy of every span recorded so far. Call when the threads that
 * record are idle (joined, or parked in an idle pool). */
std::vector<ThreadSpans> collectSpans();

/** Per-name totals over a set of spans. */
struct SpanStats
{
    double totalMs = 0.0;
    /** Duration not covered by child spans on the same thread nor
     * charged elsewhere. */
    double selfMs = 0.0;
    std::vector<double> durationsMs;
};

/** Aggregate spans by name. */
std::map<std::string, SpanStats>
spanStats(const std::vector<ThreadSpans> &threads);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Outcome of one run of one workload. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    /** The same quantities under their workload-specific names
     * (batch_pass_s, query_p99_ms, ...), printed for reading. */
    std::vector<Metric> named;

    /** Count one checked operation; a false @p ok counts as failed
     * and its @p what is reported on stderr. */
    void check(bool ok, const std::string &what);

    /** Share of attempted operations and checks that passed. */
    double okFrac() const;
};

/** Options every workload receives. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string scratch;  ///< unique per-process directory
    std::string traceOut; ///< Chrome trace path; empty = scratch
    std::string probeDir; ///< set in a memory-probe child only
    unsigned jobs = 4;
};

/**
 * Peak RSS in MiB of one operation of the workload, measured in a
 * fresh copy of this program (`--rss-probe DIR`) that runs the
 * workload's probe on the inputs in @p dir and nothing else: the
 * median of @p runs children. A fresh process keeps the figure free
 * of what set-up left in the allocator.
 */
double probeRssMb(const RunOptions &options, const std::string &dir,
                  int runs);

/** Mix @p seed and @p salt into a well-spread 64-bit value. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/**
 * Finish a traced run: validate and write the Chrome trace, then
 * add the per-layer self times (per traced operation, @p ops of
 * them) and the unattributed share to @p result.
 *
 * Every span named @p root is one iteration of a thread that drives
 * the program. Its time in `sched` spans is open-loop waiting and is
 * left out; of the rest, what no program-layer span covers is
 * unattributed. The run fails when that exceeds 10 % on any thread.
 * @p busyMs adds, per layer, work that no span on its own thread
 * measures (time on pool workers found by CPU subtraction).
 */
void finishTrace(const RunOptions &options,
                 const std::vector<ThreadSpans> &threads,
                 const char *root, std::size_t ops,
                 const std::map<std::string, double> &busyMs,
                 Result &result);

void runStudyBatch(const RunOptions &options, Result &result);
void runTraceInteractive(const RunOptions &options, Result &result);
void runLiveFollow(const RunOptions &options, Result &result);

/** One operation of each workload on the inputs in
 * options.probeDir, for probeRssMb(). */
void probeStudyBatch(const RunOptions &options);
void probeTraceInteractive(const RunOptions &options);
void probeLiveFollow(const RunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
