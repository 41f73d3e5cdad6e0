#include "runner/fork_executor.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>
#include <thread>

#include "runner/snapshot_cache.hh"
#include "runner/wire.hh"

#if defined(__unix__) || defined(__APPLE__)
#define RMT_FORK_EXECUTOR_POSIX 1
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace rmt
{

/** One parent-resident simulation, built and (optionally) restored
 *  once, that children inherit via COW.  The parent never run()s it. */
struct ForkExecutor::WarmedSim
{
    std::string key;                ///< workloads | fingerprint | barrier
    SimOptions capped;
    std::optional<Simulation> sim;
    SnapshotForkInfo snap;
};

namespace
{

std::string
groupKey(const JobSpec &spec, const SimOptions &capped, Cycle barrier)
{
    std::string key;
    for (const auto &w : spec.workloads) {
        key += w;
        key += '+';
    }
    key += '|';
    key += std::to_string(optionsFingerprintU64(capped));
    key += '|';
    key += std::to_string(barrier);
    return key;
}

Cycle
firstFaultCycle(const JobSpec &spec)
{
    Cycle first = spec.faults.front().when;
    for (const FaultRecord &f : spec.faults)
        first = std::min(first, f.when);
    return first;
}

} // namespace

ForkExecutor::ForkExecutor(const ForkExecutorConfig &config)
    : _cfg(config)
{
    if (_cfg.warm_cache == 0)
        _cfg.warm_cache = 1;
}

ForkExecutor::~ForkExecutor()
{
    reapExited(true);
}

bool
ForkExecutor::supported()
{
#ifdef RMT_FORK_EXECUTOR_POSIX
    return true;
#else
    return false;
#endif
}

ForkExecutor::WarmedSim &
ForkExecutor::warmFor(const JobSpec &spec, const SimOptions &capped)
{
    // Pick the barrier exactly like executeJob: the latest snapshot
    // strictly before the first fault, or none (scratch prefix).
    const CachedSnapshot *cached = nullptr;
    std::shared_ptr<const SnapshotSet> set;
    const bool eligible = _cfg.runner.snapshots &&
                          capped.snapshot_every && !spec.faults.empty();
    if (eligible) {
        set = _cfg.runner.snapshots->snapshots(spec.workloads, capped);
        cached =
            SnapshotCache::latestBefore(*set, firstFaultCycle(spec));
    }
    const Cycle barrier = cached ? cached->cycle : 0;

    const std::string key = groupKey(spec, capped, barrier);
    for (auto it = _warm.begin(); it != _warm.end(); ++it) {
        if ((*it)->key == key) {
            _warm.splice(_warm.begin(), _warm, it);   // refresh LRU
            return *_warm.front();
        }
    }

    auto warm = std::make_unique<WarmedSim>();
    warm->key = key;
    warm->capped = capped;
    warm->sim.emplace(spec.workloads, capped);
    warm->sim->setGoldenRun(set);   // inherited: trials stop early
    warm->snap.enabled = eligible;
    if (cached) {
        warm->sim->restoreSnapshotBuffer(*cached->image);
        warm->snap.hit = true;
        warm->snap.cycle = cached->cycle;
        warm->snap.bytes = static_cast<double>(cached->image->size());
    }
    ++_stats.warm_builds;

    _warm.push_front(std::move(warm));
    while (_warm.size() > _cfg.warm_cache)
        _warm.pop_back();
    return *_warm.front();
}

#ifdef RMT_FORK_EXECUTOR_POSIX

void
ForkExecutor::reapExited(bool block)
{
    std::erase_if(_exiting, [block](int pid) {
        for (;;) {
            const pid_t rc = ::waitpid(pid, nullptr, block ? 0 : WNOHANG);
            if (rc < 0 && errno == EINTR)
                continue;
            return rc != 0;     // reaped, or no longer our child
        }
    });
}

JobResult
ForkExecutor::runForked(const JobSpec &spec, WarmedSim &warm,
                        bool &crashed)
{
    using Clock = std::chrono::steady_clock;
    crashed = false;
    reapExited(false);

    int fds[2];
    if (::pipe(fds) != 0) {
        // Out of descriptors: degrade to the in-process path.
        ++_stats.inprocess;
        return executeJob(spec, _cfg.runner);
    }

    // No parent buffer may survive into the child: a child that
    // crashed mid-trial must not replay half-written parent output.
    std::fflush(nullptr);

    const auto start = Clock::now();
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        ++_stats.inprocess;
        return executeJob(spec, _cfg.runner);
    }

    if (pid == 0) {
        // ----------------------------------------------------- child
        ::close(fds[0]);
        ::signal(SIGPIPE, SIG_IGN);

        RunnerConfig child_cfg = _cfg.runner;
        child_cfg.sink = nullptr;       // the parent owns the sink

        JobResult result;
        result.id = spec.id;
        result.label = spec.label;
        bool fast_ok = false;
        try {
            result.attempts = 1;
            for (const FaultRecord &f : spec.faults)
                warm.sim->faultInjector().schedule(f);
            const RunResult run = warm.sim->run();
            result.wall_seconds =
                std::chrono::duration<double>(Clock::now() - start)
                    .count();
            if (child_cfg.timeout_seconds > 0 &&
                result.wall_seconds > child_cfg.timeout_seconds) {
                result.status = JobStatus::Failed;
                result.timed_out = true;
                result.error =
                    "exceeded timeout of " +
                    std::to_string(child_cfg.timeout_seconds) + " s";
            } else {
                finalizeJobResult(spec, child_cfg, *warm.sim, run,
                                  warm.snap, result);
            }
            fast_ok = true;
        } catch (...) {
            // Anything the warmed path trips over (SnapshotOrderError
            // from a late barrier, a validation fatal, ...): replay
            // the exact in-process path so attempts / error strings /
            // verdicts match executeJob byte-for-byte.
        }
        if (!fast_ok)
            result = executeJob(spec, child_cfg);

        bool sent = false;
        try {
            const std::string frame =
                wire::frame(wire::encodeTrial(result));
            sent = wire::writeAll(fds[1], frame.data(), frame.size());
        } catch (...) {
            sent = false;
        }
        ::close(fds[1]);
        // _exit, not exit: no static destructors, no stdio flush —
        // the parent's buffers exist in this address space too.
        ::_exit(sent ? 0 : 1);
    }

    // ------------------------------------------------------- parent
    ::close(fds[1]);

    const double timeout = _cfg.runner.timeout_seconds;
    wire::FrameDecoder decoder;
    std::string payload, wire_error;
    bool got_record = false, killed = false, overflow = false;
    char buf[65536];

    for (;;) {
        int wait_ms = -1;
        if (timeout > 0) {
            const double left =
                timeout -
                std::chrono::duration<double>(Clock::now() - start)
                    .count();
            if (left <= 0) {
                killed = true;
                break;
            }
            wait_ms = static_cast<int>(left * 1e3) + 1;
        }
        struct pollfd pfd = {fds[0], POLLIN, 0};
        const int rc = ::poll(&pfd, 1, wait_ms);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            wire_error = "poll failed on the trial pipe";
            break;
        }
        if (rc == 0) {
            killed = true;
            break;
        }
        const long n = wire::readSome(fds[0], buf, sizeof(buf));
        if (n < 0) {
            wire_error = "read failed on the trial pipe";
            break;
        }
        if (n == 0)
            break;      // EOF: child closed its end
        try {
            decoder.feed(buf, static_cast<std::size_t>(n));
            std::string p;
            while (decoder.next(p)) {
                if (got_record) {
                    overflow = true;    // a second record is corruption
                } else {
                    payload = std::move(p);
                    got_record = true;
                }
            }
        } catch (const wire::WireError &e) {
            wire_error = e.what();
            break;
        }
    }

    if (killed || !wire_error.empty())
        ::kill(pid, SIGKILL);
    ::close(fds[0]);

    if (!killed && wire_error.empty() && got_record && !overflow &&
        !decoder.truncated()) {
        try {
            JobResult decoded = wire::decodeTrial(payload);
            if (decoded.id == spec.id) {
                // The record is all we need.  The child may still be
                // tearing down its copy of the address space; reap it
                // later so that overlaps the next trial.
                _exiting.push_back(pid);
                ++_stats.forked;
                return decoded;
            }
            wire_error = "record id does not match the dispatched job";
        } catch (const wire::WireError &e) {
            wire_error = e.what();
        }
    }

    // No usable record: the exit status goes into the error.
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }

    JobResult result;
    result.id = spec.id;
    result.label = spec.label;
    result.attempts = 1;
    result.wall_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();

    if (killed) {
        ++_stats.killed;
        crashed = true;
        result.status = JobStatus::Failed;
        result.timed_out = true;
        result.error = "trial child killed after exceeding timeout of " +
                       std::to_string(timeout) + " s";
        return result;
    }

    ++_stats.wire_errors;
    crashed = true;
    result.status = JobStatus::Failed;
    std::ostringstream os;
    os << "trial child delivered no usable record (";
    if (!wire_error.empty())
        os << wire_error;
    else if (overflow)
        os << "more than one record on the pipe";
    else if (decoder.truncated())
        os << "record truncated mid-frame";
    else
        os << "no record before EOF";
    if (WIFSIGNALED(status))
        os << "; child killed by signal " << WTERMSIG(status);
    else if (WIFEXITED(status) && WEXITSTATUS(status) != 0)
        os << "; child exited with status " << WEXITSTATUS(status);
    os << ")";
    result.error = os.str();
    return result;
}

#else // !RMT_FORK_EXECUTOR_POSIX

void
ForkExecutor::reapExited(bool)
{
}

JobResult
ForkExecutor::runForked(const JobSpec &spec, WarmedSim &, bool &crashed)
{
    crashed = false;
    ++_stats.inprocess;
    return executeJob(spec, _cfg.runner);
}

#endif // RMT_FORK_EXECUTOR_POSIX

void
ForkExecutor::backoffSleep(std::uint64_t seed, unsigned attempt) const
{
    if (_cfg.retry_backoff_ms == 0)
        return;
    // splitmix64 over (seed, attempt): jitter is a pure function of
    // the job, never the clock, so a re-run campaign backs off (and
    // therefore schedules) identically.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (attempt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const std::uint64_t base = std::min<std::uint64_t>(
        std::uint64_t(_cfg.retry_backoff_ms) << (attempt - 1), 2000);
    // Full jitter over [base/2, base]: decorrelates workers without
    // collapsing the exponential envelope.
    const std::uint64_t delay_ms = base / 2 + z % (base / 2 + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
}

JobResult
ForkExecutor::runWithRetry(const JobSpec &spec)
{
    const unsigned max_attempts = std::max(1u, _cfg.runner.max_attempts);
    JobResult result;
    for (unsigned attempt = 1;; ++attempt) {
        bool crashed = false;
        result = runForked(
            spec, warmFor(spec, cappedOptions(spec, _cfg.runner)),
            crashed);
        if (!crashed)
            return result;  // decoded record (ok or recorded failure)
        if (attempt >= max_attempts ||
            (_cfg.runner.stop &&
             _cfg.runner.stop->load(std::memory_order_relaxed))) {
            // Out of attempts (or draining): set the trial aside so
            // the rest of the campaign can finish.  attempts reports
            // the forks actually burned on it.
            ++_stats.quarantined;
            result.quarantined = true;
            result.attempts = attempt;
            return result;
        }
        ++_stats.retries;
        backoffSleep(spec.seed, attempt);
    }
}

std::vector<JobResult>
ForkExecutor::run(const std::vector<JobSpec> &jobs)
{
    std::vector<JobResult> results;
    results.reserve(jobs.size());

    // Warm the shared caches from the parent before any fork: the
    // single-flight mutexes must never be mid-acquisition at fork()
    // time, and children should only ever read these caches.
    if (supported() && _cfg.use_fork && _cfg.runner.baseline) {
        for (const JobSpec &spec : jobs)
            for (const auto &w : spec.workloads)
                _cfg.runner.baseline->ipc(w);
    }

    for (const JobSpec &spec : jobs) {
        if (_cfg.runner.stop &&
            _cfg.runner.stop->load(std::memory_order_relaxed))
            break;      // draining: stop dispatching, keep what's done
        JobResult result;
        if (!supported() || !_cfg.use_fork) {
            ++_stats.inprocess;
            result = executeJob(spec, _cfg.runner);
        } else {
            bool valid = true;
            try {
                validateJobSpec(spec);
            } catch (const std::exception &) {
                valid = false;
            }
            if (!valid) {
                // Invalid specs never reach a Simulation constructor;
                // record the failure through the normal path.
                ++_stats.inprocess;
                result = executeJob(spec, _cfg.runner);
            } else {
                result = runWithRetry(spec);
            }
        }
        if (result.ok() && result.run.reconverged_at) {
            ++_stats.reconverged;
            _stats.cycles_skipped += result.run.cycles_skipped;
        }
        if (_cfg.runner.sink)
            _cfg.runner.sink->record(spec, result);
        results.push_back(std::move(result));
    }
    reapExited(true);
    return results;
}

} // namespace rmt
