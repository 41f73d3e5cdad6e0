/**
 * @file
 * Shared pieces of the perfbench harness: the run configuration, the
 * report every workload fills in, order statistics, and the span
 * tracer used by the traced run.
 *
 * The harness measures the simulator only from outside: it times calls
 * into public entry points and reads counters the library already
 * exposes.  Nothing here reaches into the simulator's internals.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the monotonic clock (shared by forked children). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

inline double
secondsSince(std::int64_t t0_ns)
{
    return static_cast<double>(nowNs() - t0_ns) * 1e-9;
}

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;        ///< measured time (both halves when traced)
    bool trace = false;
    std::string out_dir;        ///< trace JSON and self-time table
};

/** Median of @p v (0 for an empty sample). */
double median(std::vector<double> v);

/** Linear-interpolated quantile @p q in [0, 1] (0 for empty). */
double quantile(std::vector<double> v, double q);

/**
 * Span recorder for the traced run.  Spans nest on one thread (every
 * workload records from its driving thread only); each span carries
 * the id of the job, trial or campaign it belongs to.  Disabled, a
 * Scope costs one branch and records nothing.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;       ///< "<layer>.<call>"
        std::uint64_t group = 0;    ///< job / trial / campaign id
        int parent = -1;        ///< index of the enclosing span
        int track = 0;          ///< 0 = main thread, 1 = forked trial
        std::int64_t t0 = 0, t1 = 0;    ///< monotonic ns
    };

    bool enabled = false;

    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, std::uint64_t group);
        ~Scope() { close(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** End the span now (idempotent); returns its length in ns,
         *  measured whether or not tracing is enabled. */
        std::int64_t close();

      private:
        Tracer &tracer;
        int index = -1;
        std::int64_t t0;
        std::int64_t length = -1;
    };

    /** Record a finished span measured elsewhere (e.g. in a forked
     *  child); parented to the innermost open span. */
    void add(const std::string &name, std::uint64_t group,
             std::int64_t t0, std::int64_t t1, int track = 0);

    /** Summed self time (ns) and span count per span name. */
    std::map<std::string, std::pair<double, std::uint64_t>>
    selfTimes() const;

    /** Spans as Chrome trace-event JSON (loads in Perfetto). */
    std::string chromeJson() const;

    /** Per-layer and per-call self-time table, as text. */
    std::string selfTimeTable() const;

  private:
    std::vector<Span> _spans;
    std::vector<int> open;
};

/** One reported metric. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** What a workload hands back to main(). */
struct Report
{
    bool correct = true;
    std::vector<std::string> errors;    ///< failed output checks
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> end_to_end;
    std::map<std::string, Metric> per_layer;
    std::uint64_t sim_digest = 0;

    /** Record an output check; a failure makes the run incorrect. */
    void check(bool ok, const std::string &what);

    void e2e(const std::string &name, double value, const char *unit)
    {
        end_to_end[name] = {value, unit};
    }
    void layer(const std::string &name, double value, const char *unit)
    {
        per_layer[name] = {value, unit};
    }
};

/**
 * Host-speed probe.  On a host shared with other virtual machines, the
 * speed this process gets drifts over tens of seconds, and the
 * simulator's speed drifts with it (by up to 1.7x on the development
 * VM).  A dependent-load chain or a multiply chain barely moves; what
 * moves is branchy, allocation-heavy container code like the
 * simulator's own.  So the probe sorts 32 Ki keys and makes 64 Ki
 * updates to a fresh hash table; over 10-second windows, the log of its
 * time explains 85-90% of the variance in the log of a job's time.
 * Page faults drift too, and the workloads spend 7-20% of their time
 * in the kernel (memory images, forks, store growth), so the probe
 * also faults in 256 fresh pages (about a tenth of its time).
 *
 * Host times are scaled to a reference reading: a time measured while
 * the probe takes p ms counts as time * referenceMs / p.  The probe
 * runs between operations, never inside a timed one, and reads no
 * state of the program under test.  It does share the process's heap
 * and caches: in `faults` it also pays the copy-on-write faults every
 * fork leaves behind, and reads 5-15% higher than in `modes`.
 */
class HostProbe
{
  public:
    /** Reference reading: the probe's typical time on the development
     *  VM (4 vCPUs, 2 MiB L2 per core, 300 MiB shared L3). */
    static constexpr double referenceMs = 4.0;

    HostProbe();

    /** Sample if 200 ms have passed since the last sample; returns the
     *  nanoseconds spent (0 when no sample was due). */
    std::int64_t tick();

    /** Sample now; returns the nanoseconds spent. */
    std::int64_t sample();

    /** Scale factor for a host time measured at @p t_ns: reference
     *  over the median reading within one second of it. */
    double factorAt(std::int64_t t_ns) const;

    /** Median reading over the whole run, in ms. */
    double medianMs() const;

  private:
    std::vector<std::uint32_t> keys;
    std::vector<std::pair<std::int64_t, double>> samples;   // (t, ms)
};

/**
 * Operation timings, grouped by machine mode and configuration (kernel
 * mix, campaign cell).  Each operation (a job, trial, miss row or
 * campaign) adds the instructions it committed and the host seconds it
 * took, scaled by the host probe at the time it ended.  A configuration
 * is summarised by its median operation, so a slowdown that hits a
 * minority of a run's operations moves none of the results.
 */
class RateTable
{
  public:
    explicit RateTable(const HostProbe &probe) : probe(&probe) {}

    void add(int mode, const std::string &config, double committed,
             double seconds, std::int64_t end_ns);

    /** Sum of median committed over sum of median seconds, in
     *  thousands of instructions per second (0 without operations). */
    double kips(int mode) const;

    /** Operations per second, each configuration's operations taking
     *  that configuration's median time. */
    double opsPerSecond() const;

    /** Every operation's time replaced by its configuration's median,
     *  in milliseconds. */
    std::vector<double> typicalMs() const;

    /** Every operation's own (scaled) time, in milliseconds. */
    std::vector<double> allMs() const;

  private:
    struct Cell
    {
        std::vector<double> committed, seconds;     // seconds scaled
    };
    const HostProbe *probe;
    std::map<std::pair<int, std::string>, Cell> cells;
};

/** The five machine modes and their names, in the order every table
 *  uses; modeIndex() maps a mode to its position. */
extern const rmt::SimMode machineModes[5];
extern const char *const modeNames[5];
int modeIndex(rmt::SimMode mode);

/**
 * Run @p setup @p reps times or until @p min_seconds have passed
 * (at least @p reps, at most 50 times); returns the median time of one
 * set-up, scaled by the host probe, which samples around every call.
 * Each call must tear down the previous call's state itself.
 */
template <typename F>
double
medianSetup(HostProbe &probe, F &&setup, unsigned reps, double min_seconds)
{
    std::vector<double> times;
    const std::int64_t start = nowNs();
    while (times.size() < 50 &&
           (times.size() < reps || secondsSince(start) < min_seconds)) {
        probe.sample();
        const std::int64_t t0 = nowNs();
        setup();
        const std::int64_t t1 = nowNs();
        probe.sample();
        times.push_back(static_cast<double>(t1 - t0) * 1e-9 *
                        probe.factorAt(t0 + (t1 - t0) / 2));
    }
    return median(times);
}

void runModes(const RunConfig &cfg, Tracer &tracer, Report &report);
void runFaults(const RunConfig &cfg, Tracer &tracer, Report &report);
void runServe(const RunConfig &cfg, Tracer &tracer, Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
