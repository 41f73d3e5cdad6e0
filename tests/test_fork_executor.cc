/**
 * @file
 * fork()-per-trial executor (src/runner/fork_executor.*) and its pipe
 * wire protocol (src/runner/wire.*):
 *
 *  - the JobResult codec round-trips every field through a frame, even
 *    delivered one byte at a time, and the decoder rejects bad magic,
 *    oversized payloads, truncation and garbage payloads instead of
 *    yielding a short record;
 *  - forked campaigns are verdict-identical to --no-fork campaigns,
 *    with and without a shared SnapshotCache, including trials whose
 *    strike lands before the first snapshot barrier (scratch prefix);
 *  - the warmed-simulation cache builds one parent simulation per
 *    (grid point, barrier), not one per trial;
 *  - the per-trial watchdog SIGKILLs an overrunning child and records
 *    a timed-out failure;
 *  - invalid specs and sink delivery behave exactly like the
 *    in-process runner (recorded failure, id-ordered records);
 *  - a trial stops at the first barrier where it has reconverged with
 *    the golden run, and only then, on both paths, with the row that
 *    full re-simulation writes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "rmt/fault_oracle.hh"
#include "runner/fork_executor.hh"
#include "runner/runner.hh"
#include "runner/wire.hh"

using namespace rmt;

namespace
{

SimOptions
trialOptions()
{
    SimOptions o;
    o.mode = SimMode::Srt;
    o.warmup_insts = 200;
    o.measure_insts = 1500;
    return o;
}

/** A JobResult with every serialised field away from its default. */
JobResult
fullResult()
{
    JobResult r;
    r.id = 77;
    r.label = "wire \"quoted\" label";
    r.status = JobStatus::Ok;
    r.error = "non-fatal note";
    r.attempts = 2;
    r.timed_out = false;
    r.wall_seconds = 1.25;
    r.run.total_cycles = 123456;
    r.run.completed = true;
    r.run.outcome = Outcome::Completed;
    r.run.detections = 3;
    r.run.recoveries = 1;
    r.run.store_comparisons = 999;
    r.run.store_mismatches = 2;
    r.run.branch_mispredicts = 41;
    r.run.stats_json = "{\"stats\":{\"x\":1}}";
    r.mean_efficiency = 0.875;
    r.efficiencies = {0.9, 0.85};
    r.extra = {{"snapshot_hit", 1.0}, {"snapshot_cycles_saved", 4242.0}};
    r.has_verdict = true;
    r.verdict = FaultVerdict::Detected;
    r.detection_latency = 17.5;
    return r;
}

void
expectSameResult(const JobResult &a, const JobResult &b)
{
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_DOUBLE_EQ(a.wall_seconds, b.wall_seconds);
    EXPECT_EQ(a.run.total_cycles, b.run.total_cycles);
    EXPECT_EQ(a.run.completed, b.run.completed);
    EXPECT_EQ(a.run.outcome, b.run.outcome);
    EXPECT_EQ(a.run.detections, b.run.detections);
    EXPECT_EQ(a.run.recoveries, b.run.recoveries);
    EXPECT_EQ(a.run.store_comparisons, b.run.store_comparisons);
    EXPECT_EQ(a.run.store_mismatches, b.run.store_mismatches);
    EXPECT_EQ(a.run.branch_mispredicts, b.run.branch_mispredicts);
    EXPECT_EQ(a.run.stats_json, b.run.stats_json);
    EXPECT_DOUBLE_EQ(a.mean_efficiency, b.mean_efficiency);
    EXPECT_EQ(a.efficiencies, b.efficiencies);
    EXPECT_EQ(a.extra, b.extra);
    EXPECT_EQ(a.has_verdict, b.has_verdict);
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_DOUBLE_EQ(a.detection_latency, b.detection_latency);
}

/** The fields a campaign's verdicts and tables are built from. */
void
expectSameVerdict(const JobResult &a, const JobResult &b)
{
    EXPECT_EQ(a.ok(), b.ok()) << a.label << ": " << a.error << " / "
                              << b.error;
    EXPECT_EQ(a.has_verdict, b.has_verdict) << a.label;
    EXPECT_EQ(a.verdict, b.verdict) << a.label;
    EXPECT_DOUBLE_EQ(a.detection_latency, b.detection_latency)
        << a.label;
    EXPECT_EQ(a.run.total_cycles, b.run.total_cycles) << a.label;
    EXPECT_EQ(a.run.outcome, b.run.outcome) << a.label;
    EXPECT_EQ(a.extra, b.extra) << a.label;
}

/** Deterministic reg-strike trials across the run, with the oracle
 *  attached so every record carries a verdict. */
std::vector<JobSpec>
faultCampaign(const SimOptions &options, const FaultOracle &oracle,
              unsigned trials, Cycle first_strike, Cycle stride)
{
    std::vector<JobSpec> jobs;
    for (unsigned t = 0; t < trials; ++t) {
        JobSpec spec;
        spec.id = t;
        spec.label = "trial" + std::to_string(t);
        spec.workloads = {"compress"};
        spec.options = options;
        spec.seed = 0xF0'52'4Bull + t;
        FaultRecord f;
        f.kind = FaultRecord::Kind::TransientReg;
        f.when = first_strike + stride * t;
        f.tid = 0;
        f.reg = static_cast<RegIndex>(1 + t % 15);
        f.bit = (11 * t) % 64;
        spec.faults.push_back(f);
        attachFaultOracle(spec, &oracle);
        jobs.push_back(std::move(spec));
    }
    return jobs;
}

class CollectingSink : public ResultSink
{
  public:
    void record(const JobSpec &spec, const JobResult &result) override
    {
        ids.push_back(spec.id);
        results.push_back(result);
    }

    std::vector<std::uint64_t> ids;
    std::vector<JobResult> results;
};

} // namespace

TEST(Wire, JobResultRoundTripsThroughAFrame)
{
    const JobResult original = fullResult();
    const std::string framed = wire::frame(wire::encodeJobResult(original));

    // Feed the frame one byte at a time: the decoder must not care how
    // the pipe chunks its reads.
    wire::FrameDecoder decoder;
    std::string payload;
    unsigned records = 0;
    for (char byte : framed) {
        decoder.feed(&byte, 1);
        std::string p;
        while (decoder.next(p)) {
            payload = p;
            ++records;
        }
    }
    ASSERT_EQ(records, 1u);
    EXPECT_FALSE(decoder.truncated());
    expectSameResult(original, wire::decodeJobResult(payload));
}

TEST(Wire, DecoderYieldsMultipleFramesFromOneBuffer)
{
    JobResult a = fullResult();
    JobResult b = fullResult();
    b.id = 78;
    b.status = JobStatus::Failed;
    b.error = "second";
    const std::string stream = wire::frame(wire::encodeJobResult(a)) +
                               wire::frame(wire::encodeJobResult(b));

    wire::FrameDecoder decoder;
    decoder.feed(stream.data(), stream.size());
    std::string p;
    std::vector<JobResult> out;
    while (decoder.next(p))
        out.push_back(wire::decodeJobResult(p));
    ASSERT_EQ(out.size(), 2u);
    expectSameResult(a, out[0]);
    expectSameResult(b, out[1]);
    EXPECT_FALSE(decoder.truncated());
}

TEST(Wire, DecoderRejectsCorruptStreams)
{
    // Wrong magic: provably corrupt at the first header.
    {
        wire::FrameDecoder decoder;
        const std::string junk = "JUNKJUNKJUNK";
        std::string p;
        EXPECT_THROW(
            {
                decoder.feed(junk.data(), junk.size());
                decoder.next(p);
            },
            wire::WireError);
    }

    // A length above the payload cap: rejected before buffering it.
    {
        wire::FrameDecoder decoder;
        std::string header("RMTW", 4);
        const std::uint32_t huge = wire::maxPayloadBytes + 1;
        header.append(reinterpret_cast<const char *>(&huge), 4);
        std::string p;
        EXPECT_THROW(
            {
                decoder.feed(header.data(), header.size());
                decoder.next(p);
            },
            wire::WireError);
    }

    // A frame cut mid-payload: no record, flagged as truncated.
    {
        const std::string framed =
            wire::frame(wire::encodeJobResult(fullResult()));
        wire::FrameDecoder decoder;
        decoder.feed(framed.data(), framed.size() - 5);
        std::string p;
        EXPECT_FALSE(decoder.next(p));
        EXPECT_TRUE(decoder.truncated());
    }
}

TEST(Wire, DecodeRejectsTruncatedAndGarbagePayloads)
{
    const std::string payload = wire::encodeJobResult(fullResult());
    EXPECT_THROW(wire::decodeJobResult(""), wire::WireError);
    EXPECT_THROW(wire::decodeJobResult(payload.substr(0, 3)),
                 wire::WireError);
    EXPECT_THROW(
        wire::decodeJobResult(payload.substr(0, payload.size() - 1)),
        wire::WireError);

    // A bumped codec version must be rejected, not misparsed.
    std::string bumped = payload;
    bumped[0] = static_cast<char>(wire::codecVersion + 1);
    EXPECT_THROW(wire::decodeJobResult(bumped), wire::WireError);
}

TEST(ForkExecutor, ForkedVerdictsMatchInProcess)
{
    if (!ForkExecutor::supported())
        GTEST_SKIP() << "no fork() on this platform";

    const SimOptions options = trialOptions();
    const FaultOracle oracle(
        FaultOracle::goldenImage({"compress"}, options));
    const auto jobs = faultCampaign(options, oracle, 6, 150, 90);

    ForkExecutorConfig forked;
    forked.use_fork = true;
    ForkExecutor fork_exec(forked);
    const auto fork_results = fork_exec.run(jobs);

    ForkExecutorConfig inproc;
    inproc.use_fork = false;        // the --no-fork path
    ForkExecutor inproc_exec(inproc);
    const auto inproc_results = inproc_exec.run(jobs);

    ASSERT_EQ(fork_results.size(), jobs.size());
    ASSERT_EQ(inproc_results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(fork_results[i].id, jobs[i].id);
        expectSameVerdict(fork_results[i], inproc_results[i]);
    }
    EXPECT_EQ(fork_exec.stats().forked, jobs.size());
    EXPECT_EQ(fork_exec.stats().inprocess, 0u);
    EXPECT_EQ(fork_exec.stats().wire_errors, 0u);
    EXPECT_EQ(inproc_exec.stats().forked, 0u);
    EXPECT_EQ(inproc_exec.stats().inprocess, jobs.size());
}

TEST(ForkExecutor, SnapshotCampaignMatchesAndWarmsOncePerBarrier)
{
    if (!ForkExecutor::supported())
        GTEST_SKIP() << "no fork() on this platform";

    SimOptions options = trialOptions();
    // Probe the plain run, then barrier it: quiesce drains stretch the
    // barriered run, so strikes are placed against the barriered total.
    Cycle total;
    {
        Simulation probe({"compress"}, options);
        total = probe.run().total_cycles;
    }
    options.snapshot_every = std::max<Cycle>(1, total / 4);
    {
        Simulation probe({"compress"}, options);
        total = probe.run().total_cycles;
    }

    const FaultOracle oracle(
        FaultOracle::goldenImage({"compress"}, options));
    // Strikes sweep the whole run: the early ones land before the
    // first barrier (scratch prefix, satellite of the snapshot path),
    // the late ones restore from a mid-run snapshot.
    const auto jobs =
        faultCampaign(options, oracle, 6, total / 12, total / 8);

    SnapshotCache fork_cache;
    ForkExecutorConfig forked;
    forked.use_fork = true;
    forked.runner.snapshots = &fork_cache;
    ForkExecutor fork_exec(forked);
    const auto fork_results = fork_exec.run(jobs);

    SnapshotCache inproc_cache;
    ForkExecutorConfig inproc;
    inproc.use_fork = false;
    inproc.runner.snapshots = &inproc_cache;
    ForkExecutor inproc_exec(inproc);
    const auto inproc_results = inproc_exec.run(jobs);

    ASSERT_EQ(fork_results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectSameVerdict(fork_results[i], inproc_results[i]);

    // One warmed parent simulation per distinct barrier, not per
    // trial; every distinct barrier of the strike sweep shares one.
    EXPECT_EQ(fork_exec.stats().forked, jobs.size());
    EXPECT_GE(fork_exec.stats().warm_builds, 1u);
    EXPECT_LT(fork_exec.stats().warm_builds, jobs.size());
    EXPECT_EQ(fork_cache.producerRuns(), 1u);
}

TEST(ForkExecutor, WatchdogKillsAnOverrunningChild)
{
    if (!ForkExecutor::supported())
        GTEST_SKIP() << "no fork() on this platform";

    JobSpec spec;
    spec.id = 0;
    spec.label = "hog";
    spec.workloads = {"compress"};
    spec.options = trialOptions();
    // A run this long takes several seconds; the watchdog must reap
    // the child after ~0.25 s instead.
    spec.options.measure_insts = 50'000'000;
    FaultRecord f;
    f.kind = FaultRecord::Kind::TransientReg;
    f.when = 40'000'000;
    f.reg = 1;
    spec.faults.push_back(f);

    ForkExecutorConfig cfg;
    cfg.use_fork = true;
    cfg.runner.timeout_seconds = 0.25;
    // A watchdog kill is an abnormal child death, so it is retryable;
    // one attempt keeps this test at a single slow child.
    cfg.runner.max_attempts = 1;
    ForkExecutor exec(cfg);
    const auto results = exec.run({spec});

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok());
    EXPECT_TRUE(results[0].timed_out);
    EXPECT_TRUE(results[0].quarantined);
    EXPECT_EQ(exec.stats().killed, 1u);
    EXPECT_EQ(exec.stats().quarantined, 1u);
    EXPECT_EQ(exec.stats().forked, 0u);
}

TEST(ForkExecutor, CrashedChildIsRetriedAndThenSucceeds)
{
    if (!ForkExecutor::supported())
        GTEST_SKIP() << "no fork() on this platform";

    // The marker file carries "already crashed once" across the fork
    // boundary: the first child dies before writing its record, the
    // re-forked child sees the marker and completes normally.
    const std::string marker =
        std::string(::testing::TempDir()) + "rmtsim_crash_once.marker";
    std::remove(marker.c_str());

    JobSpec spec;
    spec.id = 0;
    spec.label = "crash-once";
    spec.workloads = {"compress"};
    spec.options = trialOptions();
    spec.seed = 0xC0FFEE;
    spec.post_run = [marker](Simulation &, const RunResult &,
                             JobResult &) {
        if (std::ifstream(marker).good())
            return;
        std::ofstream(marker).put('x');
        std::_Exit(9);      // die without a wire record
    };

    ForkExecutorConfig cfg;
    cfg.use_fork = true;
    cfg.retry_backoff_ms = 0;
    ForkExecutor exec(cfg);
    const auto results = exec.run({spec});
    std::remove(marker.c_str());

    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok()) << results[0].error;
    EXPECT_FALSE(results[0].quarantined);
    EXPECT_EQ(exec.stats().retries, 1u);
    EXPECT_EQ(exec.stats().quarantined, 0u);
}

TEST(ForkExecutor, PersistentCrasherIsQuarantined)
{
    if (!ForkExecutor::supported())
        GTEST_SKIP() << "no fork() on this platform";

    JobSpec spec;
    spec.id = 0;
    spec.label = "always-crashes";
    spec.workloads = {"compress"};
    spec.options = trialOptions();
    spec.post_run = [](Simulation &, const RunResult &, JobResult &) {
        std::_Exit(9);
    };

    ForkExecutorConfig cfg;
    cfg.use_fork = true;
    cfg.retry_backoff_ms = 0;
    cfg.runner.max_attempts = 3;
    ForkExecutor exec(cfg);
    const auto results = exec.run({spec});

    // The campaign finishes degraded instead of dying: the trial is
    // recorded as a quarantined failure after burning every attempt.
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok());
    EXPECT_TRUE(results[0].quarantined);
    EXPECT_FALSE(results[0].error.empty());
    EXPECT_EQ(results[0].attempts, 3u);
    EXPECT_EQ(exec.stats().retries, 2u);
    EXPECT_EQ(exec.stats().quarantined, 1u);
}

TEST(ForkExecutor, StopFlagDrainsWithoutStartingNewTrials)
{
    const SimOptions options = trialOptions();

    // Pre-set stop: nothing starts at all (fork or not).
    {
        std::atomic<bool> stop{true};
        ForkExecutorConfig cfg;
        cfg.use_fork = ForkExecutor::supported();
        cfg.runner.stop = &stop;
        ForkExecutor exec(cfg);
        JobSpec spec;
        spec.id = 0;
        spec.label = "never-runs";
        spec.workloads = {"compress"};
        spec.options = options;
        EXPECT_TRUE(exec.run({spec, spec, spec}).empty());
    }

    // Stop raised mid-campaign (by the first trial's own hook, which
    // only works in-process): the in-flight trial completes and is
    // recorded, the rest never start.
    {
        std::atomic<bool> stop{false};
        std::vector<JobSpec> jobs;
        for (unsigned i = 0; i < 3; ++i) {
            JobSpec spec;
            spec.id = i;
            spec.label = "drain" + std::to_string(i);
            spec.workloads = {"compress"};
            spec.options = options;
            jobs.push_back(std::move(spec));
        }
        jobs[0].post_run = [&stop](Simulation &, const RunResult &,
                                   JobResult &) {
            stop.store(true);
        };

        ForkExecutorConfig cfg;
        cfg.use_fork = false;
        cfg.runner.stop = &stop;
        ForkExecutor exec(cfg);
        const auto results = exec.run(jobs);
        ASSERT_EQ(results.size(), 1u);
        EXPECT_TRUE(results[0].ok()) << results[0].error;
        EXPECT_EQ(results[0].id, 0u);
    }
}

TEST(ForkExecutor, CorruptCachedSnapshotFallsBackToScratch)
{
    SimOptions options = trialOptions();
    Cycle total;
    {
        Simulation probe({"compress"}, options);
        total = probe.run().total_cycles;
    }
    options.snapshot_every = std::max<Cycle>(1, total / 4);
    {
        Simulation probe({"compress"}, options);
        total = probe.run().total_cycles;
    }

    JobSpec spec;
    spec.id = 0;
    spec.label = "corrupt-cache";
    spec.workloads = {"compress"};
    spec.options = options;
    FaultRecord f;
    f.kind = FaultRecord::Kind::TransientReg;
    f.when = total / 2;
    f.reg = 2;
    f.bit = 5;
    spec.faults.push_back(f);

    // Pre-seed the cache with garbage where a snapshot should be:
    // restore-time validation must reject it without touching machine
    // state, and the trial must fall back to a from-scratch run.
    SnapshotCache cache;
    {
        SnapshotSet set;
        CachedSnapshot bad;
        bad.cycle = 1;
        bad.image = std::make_shared<const std::string>(
            "this is not a snapshot image");
        set.push_back(std::move(bad));
        cache.insert({"compress"}, options,
                     std::make_shared<const SnapshotSet>(std::move(set)));
    }

    RunnerConfig cached_cfg;
    cached_cfg.snapshots = &cache;
    const JobResult degraded = executeJob(spec, cached_cfg);
    ASSERT_TRUE(degraded.ok()) << degraded.error;
    double hit = -1, fallback = 0;
    for (const auto &[key, value] : degraded.extra) {
        if (key == "snapshot_hit")
            hit = value;
        if (key == "snapshot_scratch_fallback")
            fallback = value;
    }
    EXPECT_EQ(hit, 0.0);
    EXPECT_EQ(fallback, 1.0);

    // Bit-identical to a run that never saw a snapshot cache.
    RunnerConfig plain_cfg;
    const JobResult plain = executeJob(spec, plain_cfg);
    ASSERT_TRUE(plain.ok()) << plain.error;
    EXPECT_EQ(degraded.run.total_cycles, plain.run.total_cycles);
    EXPECT_EQ(degraded.run.outcome, plain.run.outcome);
    EXPECT_EQ(degraded.run.detections, plain.run.detections);

    // The rejected set was evicted: the next trial re-produces clean
    // snapshots (one producer run) and restores one for real.
    const JobResult again = executeJob(spec, cached_cfg);
    ASSERT_TRUE(again.ok()) << again.error;
    double hit2 = -1;
    for (const auto &[key, value] : again.extra) {
        if (key == "snapshot_hit")
            hit2 = value;
    }
    EXPECT_EQ(hit2, 1.0);
    EXPECT_EQ(cache.producerRuns(), 1u);
    EXPECT_EQ(again.run.total_cycles, plain.run.total_cycles);
    EXPECT_EQ(again.run.outcome, plain.run.outcome);
}

TEST(ForkExecutor, InvalidSpecBecomesARecordedFailure)
{
    JobSpec spec;
    spec.id = 0;
    spec.label = "bogus workload";
    spec.workloads = {"no-such-workload"};
    spec.options = trialOptions();

    ForkExecutorConfig cfg;
    cfg.use_fork = true;
    ForkExecutor exec(cfg);
    const auto results = exec.run({spec});

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok());
    EXPECT_FALSE(results[0].error.empty());
    // The bad spec never reached a fork; it was recorded in-process.
    EXPECT_EQ(exec.stats().forked, 0u);
    EXPECT_GE(exec.stats().inprocess, 1u);
}

TEST(ForkExecutor, SinkReceivesEveryRecordInJobOrder)
{
    if (!ForkExecutor::supported())
        GTEST_SKIP() << "no fork() on this platform";

    const SimOptions options = trialOptions();
    const FaultOracle oracle(
        FaultOracle::goldenImage({"compress"}, options));
    const auto jobs = faultCampaign(options, oracle, 4, 200, 120);

    CollectingSink sink;
    ForkExecutorConfig cfg;
    cfg.use_fork = true;
    cfg.runner.sink = &sink;
    ForkExecutor exec(cfg);
    const auto results = exec.run(jobs);

    ASSERT_EQ(sink.ids.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(sink.ids[i], jobs[i].id);
        expectSameVerdict(sink.results[i], results[i]);
    }
}

// ------------------------------------------------------------------
// Reconvergence: a trial that restored from a snapshot stops at the
// first later barrier whose image equals the golden run's, and its row
// is still the one full re-simulation writes.

namespace
{

/** A barriered compress run and its golden barrier/end set. */
struct Golden
{
    SimOptions options;
    std::shared_ptr<const SnapshotSet> set;
};

Golden
goldenRun()
{
    Golden g;
    g.options = trialOptions();
    Cycle total;
    {
        Simulation probe({"compress"}, g.options);
        total = probe.run().total_cycles;
    }
    g.options.snapshot_every = std::max<Cycle>(1, total / 4);
    SnapshotCache cache;
    g.set = cache.snapshots({"compress"}, g.options);
    return g;
}

JobSpec
trialSpec(const Golden &g, const FaultRecord &fault)
{
    JobSpec spec;
    spec.id = 0;
    spec.label = "reconverge";
    spec.workloads = {"compress"};
    spec.options = g.options;
    spec.faults = {fault};
    return spec;
}

/** The row full re-simulation and both snapshot paths must agree on;
 *  "extra" only records which path ran. */
std::string
row(const JobSpec &spec, JobResult r)
{
    EXPECT_TRUE(r.ok()) << r.error;
    r.extra.clear();
    return resultJson(spec, r, false);
}

/** One trial forked, in-process, and re-simulated in full. */
struct ThreeWays
{
    JobResult forked, inproc, full;
    ForkExecutor::Stats fork_stats, inproc_stats;
};

ThreeWays
runThreeWays(const JobSpec &spec)
{
    ThreeWays out;
    SnapshotCache fork_cache, inproc_cache;
    if (ForkExecutor::supported()) {
        ForkExecutorConfig cfg;
        cfg.runner.snapshots = &fork_cache;
        ForkExecutor exec(cfg);
        out.forked = exec.run({spec}).at(0);
        out.fork_stats = exec.stats();
    }
    ForkExecutorConfig cfg;
    cfg.use_fork = false;
    cfg.runner.snapshots = &inproc_cache;
    ForkExecutor exec(cfg);
    out.inproc = exec.run({spec}).at(0);
    out.inproc_stats = exec.stats();
    out.full = executeJob(spec, RunnerConfig{});
    return out;
}

void
expectRowsMatchFullRun(const JobSpec &spec, const ThreeWays &t)
{
    const std::string full = row(spec, t.full);
    EXPECT_EQ(t.full.run.reconverged_at, 0u);
    EXPECT_EQ(row(spec, t.inproc), full);
    if (ForkExecutor::supported()) {
        EXPECT_EQ(row(spec, t.forked), full);
    }
}

/** Restore @p g's barrier @p from, schedule @p fault, and run with the
 *  golden set attached; @p hook sees every later barrier. */
RunResult
runFrom(const Golden &g, std::size_t from, const FaultRecord &fault,
        const Simulation::SnapshotHook &hook)
{
    Simulation sim({"compress"}, g.options);
    sim.restoreSnapshotBuffer(*(*g.set)[from].image);
    sim.faultInjector().schedule(fault);
    sim.setGoldenRun(g.set);
    sim.setSnapshotHook(hook);
    return sim.run();
}

} // namespace

TEST(Reconvergence, DeadRegisterFlipStopsAtTheFirstBarrier)
{
    const Golden g = goldenRun();
    ASSERT_GE(g.set->size(), 3u);
    ASSERT_TRUE(g.set->end_image);
    const Cycle restored = (*g.set)[0].cycle;
    const Cycle first_after = (*g.set)[1].cycle;

    // A register the kernel writes again before it reads it: the flip
    // dies with the old value.  Which registers do that is up to the
    // kernel, so take the first that reconverges right away.
    FaultRecord f;
    f.kind = FaultRecord::Kind::TransientReg;
    f.when = restored + 20;
    f.tid = 0;
    f.bit = 7;
    bool found = false;
    for (RegIndex reg = 1; reg < 32 && !found; ++reg) {
        f.reg = reg;
        found = runFrom(g, 0, f, nullptr).reconverged_at == first_after;
    }
    ASSERT_TRUE(found) << "no register strike reconverged at the first "
                          "barrier after it";

    const JobSpec spec = trialSpec(g, f);
    const ThreeWays t = runThreeWays(spec);
    expectRowsMatchFullRun(spec, t);
    const Cycle skipped = g.set->end_result.total_cycles - first_after;
    EXPECT_EQ(t.inproc.run.reconverged_at, first_after);
    EXPECT_EQ(t.inproc.run.cycles_skipped, skipped);
    EXPECT_EQ(t.inproc_stats.reconverged, 1u);
    EXPECT_EQ(t.inproc_stats.cycles_skipped, skipped);
    if (ForkExecutor::supported()) {
        EXPECT_EQ(t.forked.run.reconverged_at, first_after);
        EXPECT_EQ(t.fork_stats.forked, 1u);
        EXPECT_EQ(t.fork_stats.reconverged, 1u);
        EXPECT_EQ(t.fork_stats.cycles_skipped, skipped);
    }
}

TEST(Reconvergence, PermanentFuFaultNeverStopsEarly)
{
    const Golden g = goldenRun();
    ASSERT_GE(g.set->size(), 2u);

    // A stuck-at bit in an FP unit, which the integer kernel never
    // uses: the state matches the golden run at every later barrier,
    // but the fault stays armed, so the trial must run to the end.
    FaultRecord f;
    f.kind = FaultRecord::Kind::PermanentFu;
    f.when = (*g.set)[0].cycle + 20;
    f.fuIndex = 48;
    f.mask = 1;
    unsigned matched = 0;
    const RunResult r =
        runFrom(g, 0, f, [&](Cycle cycle, Simulation &sim) {
            for (const CachedSnapshot &snap : *g.set) {
                if (snap.cycle == cycle &&
                    sim.matchesSnapshotBuffer(*snap.image))
                    ++matched;
            }
        });
    EXPECT_GE(matched, 1u);
    EXPECT_EQ(r.reconverged_at, 0u);

    const JobSpec spec = trialSpec(g, f);
    const ThreeWays t = runThreeWays(spec);
    expectRowsMatchFullRun(spec, t);
    EXPECT_EQ(t.inproc.run.reconverged_at, 0u);
    EXPECT_EQ(t.inproc_stats.reconverged, 0u);
    if (ForkExecutor::supported()) {
        EXPECT_EQ(t.forked.run.reconverged_at, 0u);
        EXPECT_EQ(t.fork_stats.reconverged, 0u);
    }
}

TEST(Reconvergence, ArmedDecodeStrikeDoesNotMatch)
{
    const Golden g = goldenRun();
    ASSERT_GE(g.set->size(), 2u);
    const SnapshotSet &set = *g.set;

    // Strike the leading thread's decoder while barrier 1 drains: its
    // fetch is frozen, so the strike is still armed, unconsumed, when
    // the chip quiesces.  The armed flag is in the image.
    const Cycle every = g.options.snapshot_every;
    const Cycle nominal = (set[0].cycle / every + 1) * every;
    ASSERT_GT(set[1].cycle, nominal + 1) << "barrier 1 drains in one cycle";
    FaultRecord f;
    f.kind = FaultRecord::Kind::TransientDecode;
    f.when = nominal + 1;
    f.tid = 0;
    f.bit = 5;

    bool checked = false;
    const RunResult r =
        runFrom(g, 0, f, [&](Cycle cycle, Simulation &sim) {
            if (cycle != set[1].cycle)
                return;
            checked = true;
            EXPECT_EQ(sim.faultInjector().transientsApplied(), 1u);
            EXPECT_FALSE(sim.matchesSnapshotBuffer(*set[1].image));
        });
    EXPECT_TRUE(checked) << "the trial drained to a different cycle";
    EXPECT_NE(r.reconverged_at, set[1].cycle);

    const JobSpec spec = trialSpec(g, f);
    expectRowsMatchFullRun(spec, runThreeWays(spec));
}

TEST(Reconvergence, StrikeAfterTheLastBarrierRunsToTheEnd)
{
    const Golden g = goldenRun();
    ASSERT_FALSE(g.set->empty());
    const Cycle last = g.set->back().cycle;
    ASSERT_LT(last + 20, g.set->end_result.total_cycles);

    FaultRecord f;
    f.kind = FaultRecord::Kind::TransientReg;
    f.when = last + 20;
    f.tid = 0;
    f.reg = 3;
    f.bit = 9;
    const JobSpec spec = trialSpec(g, f);
    const ThreeWays t = runThreeWays(spec);
    expectRowsMatchFullRun(spec, t);
    EXPECT_EQ(t.inproc.run.reconverged_at, 0u);
    EXPECT_EQ(t.inproc_stats.reconverged, 0u);
    if (ForkExecutor::supported()) {
        EXPECT_EQ(t.forked.run.reconverged_at, 0u);
        EXPECT_EQ(t.fork_stats.reconverged, 0u);
    }
}

TEST(Wire, TrialRecordCarriesTheReconvergenceFields)
{
    JobResult r = fullResult();
    r.run.reconverged_at = 4321;
    r.run.cycles_skipped = 8765;
    const std::string payload = wire::encodeTrial(r);
    const JobResult back = wire::decodeTrial(payload);
    expectSameResult(r, back);
    EXPECT_EQ(back.run.reconverged_at, 4321u);
    EXPECT_EQ(back.run.cycles_skipped, 8765u);
    // The persisted codec is unchanged: the fields ride after it.
    EXPECT_EQ(payload.substr(0, payload.size() - 16),
              wire::encodeJobResult(r));
    EXPECT_THROW(wire::decodeTrial(payload.substr(0, 15)),
                 wire::WireError);
    EXPECT_THROW(wire::decodeTrial(payload.substr(0, payload.size() - 1)),
                 wire::WireError);
}
