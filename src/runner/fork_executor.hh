/**
 * @file
 * fork()-per-trial campaign executor.
 *
 * A fault campaign runs thousands of trials of the same grid point,
 * and the PR-5 snapshot path still pays per trial for (a) building a
 * fresh Simulation and (b) deserialising the snapshot image into it.
 * ForkExecutor moves both costs out of the loop: the parent builds a
 * Simulation once per (grid point, snapshot barrier) and restores the
 * snapshot into it once; every trial is then a fork()ed child that
 * inherits the warmed simulator for free via copy-on-write, schedules
 * its fault, runs the tail, and streams one length-prefixed JobResult
 * frame back over a pipe (src/runner/wire.hh) before _exit()ing.
 *
 * The parent is the only process that touches the ResultSink, and it
 * fflush()es all stdio streams before each fork so no buffered bytes
 * can be replayed from a child.  A per-trial wall-clock watchdog
 * SIGKILLs children that overrun (the process-level analogue of the
 * in-sim hang watchdog).  Every trial's record is produced by the same
 * finalizeJobResult() path executeJob uses, and any fast-path error in
 * the child falls back to a full in-child executeJob(), so forked and
 * in-process campaigns are verdict-identical (tools/check.sh gates
 * this byte-for-byte).
 *
 * On non-POSIX builds — or with use_fork = false (`--no-fork`) — every
 * trial runs in-process through executeJob instead.
 */

#ifndef RMTSIM_RUNNER_FORK_EXECUTOR_HH
#define RMTSIM_RUNNER_FORK_EXECUTOR_HH

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "runner/runner.hh"

namespace rmt
{

struct ForkExecutorConfig
{
    /** Guards, caches and sink; the sink is fed from the parent only.
     *  timeout_seconds > 0 arms the process-level watchdog. */
    RunnerConfig runner;

    /** false = run every trial in-process (the `--no-fork` path). */
    bool use_fork = true;

    /** Warmed (grid point, barrier) simulations kept resident in the
     *  parent; older ones are evicted in LRU order. */
    unsigned warm_cache = 4;

    /** First-retry backoff after an abnormal child death (the retry
     *  budget itself is runner.max_attempts).  Doubles per attempt
     *  with deterministic jitter derived from the job seed — never
     *  from the clock, so retried campaigns stay reproducible.
     *  0 disables the sleep (tests). */
    unsigned retry_backoff_ms = 25;
};

class ForkExecutor
{
  public:
    struct Stats
    {
        std::uint64_t forked = 0;       ///< trials run in a child
        std::uint64_t inprocess = 0;    ///< trials run via executeJob
        std::uint64_t killed = 0;       ///< children SIGKILLed (timeout)
        std::uint64_t wire_errors = 0;  ///< garbled/truncated records
        std::uint64_t warm_builds = 0;  ///< warmed simulations built
        std::uint64_t retries = 0;      ///< re-forks after a crash
        std::uint64_t quarantined = 0;  ///< trials that exhausted retries
        /** Trials that stopped at a barrier matching the golden run
         *  (Simulation::setGoldenRun), forked or in-process. */
        std::uint64_t reconverged = 0;
        std::uint64_t cycles_skipped = 0;   ///< golden cycles not re-run
    };

    explicit ForkExecutor(const ForkExecutorConfig &config);
    ~ForkExecutor();

    /** Does this platform have fork()/pipes at all? */
    static bool supported();

    /**
     * Execute @p jobs sequentially, feeding the sink as each record
     * lands; returns results in job order.  Callable repeatedly (the
     * sampler's rounds); warmed simulations persist across calls.
     *
     * A trial whose child dies abnormally (signal, garbled/short wire
     * record, watchdog kill) is retried with exponential backoff until
     * runner.max_attempts is exhausted, then recorded with
     * JobResult::quarantined set so the campaign finishes degraded
     * instead of dying.  When runner.stop reads true the loop drains:
     * the in-flight trial completes and is recorded, no new trial
     * starts, and the returned vector holds only the finished prefix.
     */
    std::vector<JobResult> run(const std::vector<JobSpec> &jobs);

    const Stats &stats() const { return _stats; }

  private:
    struct WarmedSim;

    WarmedSim &warmFor(const JobSpec &spec, const SimOptions &capped);
    JobResult runForked(const JobSpec &spec, WarmedSim &warm,
                        bool &crashed);
    JobResult runWithRetry(const JobSpec &spec);
    void backoffSleep(std::uint64_t seed, unsigned attempt) const;
    /** Reap children that delivered their record; @p block waits for
     *  the ones still exiting. */
    void reapExited(bool block);

    ForkExecutorConfig _cfg;
    std::list<std::unique_ptr<WarmedSim>> _warm;    // LRU, front = hot
    std::vector<int> _exiting;      ///< delivered, not yet reaped
    Stats _stats;
};

} // namespace rmt

#endif // RMTSIM_RUNNER_FORK_EXECUTOR_HH
