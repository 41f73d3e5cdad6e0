/**
 * @file
 * The `faults` workload: a stratified fault campaign over gcc and
 * compress in all five modes, run serially through ForkExecutor from a
 * pre-filled SnapshotCache.  Every trial is classified by the fault
 * oracle and journalled; this loads the per-trial costs (restore or
 * fork, simulated suffix, oracle, wire codec, journal) and the AVF
 * sampler.
 *
 * Two samplers alternate rounds: SRT and CRT cells stratify over every
 * kind in the sphere (plus the ECC-protected merge buffer), base, base2
 * and lockstep cells over the kinds a machine without redundant pairs
 * has.  Each kind is struck in an early and a late window.  The seed
 * selects the strikes.
 */

#include <atomic>
#include <filesystem>
#include <memory>

#include "avf/sampler.hh"
#include "bench.hh"
#include "common/fingerprint.hh"
#include "rmt/fault_oracle.hh"
#include "runner/fork_executor.hh"
#include "runner/journal.hh"
#include "runner/snapshot_cache.hh"
#include "runner/wire.hh"

namespace perfbench
{

namespace
{

constexpr std::uint64_t warmupInsts = 4000;
constexpr std::uint64_t measureInsts = 20000;
constexpr std::uint64_t snapshotEvery = 4000;

/**
 * The mixes each mode's cells run.  The sampler strikes hardware thread
 * 0 or 1, so every cell needs two: SRT, CRT and base2 run each kernel
 * as a redundant copy pair; base and lockstep run the two kernels
 * together as a two-program mix.
 */
std::vector<std::vector<std::string>>
cellMixes(rmt::SimMode mode)
{
    if (mode == rmt::SimMode::Base || mode == rmt::SimMode::Lockstep)
        return {{"gcc", "compress"}};
    return {{"gcc"}, {"compress"}};
}

// Extras the traced run's post_run wrapper adds in the trial child;
// stripped again before the journal or any check sees the result.
const char *const classifyT0 = "perfbench.classify_t0";
const char *const classifyT1 = "perfbench.classify_t1";

bool
redundant(rmt::SimMode mode)
{
    return mode == rmt::SimMode::Srt || mode == rmt::SimMode::Crt;
}

/** Everything built before the first timed trial. */
struct Setup
{
    std::vector<std::unique_ptr<rmt::FaultOracle>> oracles;
    std::unique_ptr<rmt::SnapshotCache> snapshots =
        std::make_unique<rmt::SnapshotCache>();
    std::vector<rmt::StratifiedSampler::Cell> pair_cells, plain_cells;
};

std::unique_ptr<Setup>
buildSetup(Tracer &tracer, std::vector<double> &golden_ms,
           std::vector<double> &produce_ms)
{
    auto s = std::make_unique<Setup>();
    for (int m = 0; m < 5; ++m) {
        for (const auto &wl : cellMixes(machineModes[m])) {
            rmt::SimOptions o;
            o.mode = machineModes[m];
            o.warmup_insts = warmupInsts;
            o.measure_insts = measureInsts;
            o.snapshot_every = snapshotEvery;
            Tracer::Scope golden(tracer, "oracle.golden", 0);
            s->oracles.push_back(std::make_unique<rmt::FaultOracle>(
                rmt::FaultOracle::goldenImage(wl, o)));
            golden_ms.push_back(golden.close() * 1e-6);
            Tracer::Scope produce(tracer, "ckpt.produce", 0);
            s->snapshots->snapshots(wl, o);
            produce_ms.push_back(produce.close() * 1e-6);
            std::string label = std::string(modeNames[m]) + ":" + wl[0];
            if (wl.size() > 1)
                label += "+" + wl[1];
            (redundant(o.mode) ? s->pair_cells : s->plain_cells)
                .push_back({label, wl, o, s->oracles.back().get()});
        }
    }
    return s;
}

double
extraOr(const rmt::JobResult &r, const std::string &key, double fallback)
{
    for (const auto &[name, value] : r.extra) {
        if (name == key)
            return value;
    }
    return fallback;
}

/**
 * Receives every trial in the parent as it lands: timestamps it,
 * journals it, feeds it back to its sampler, and checks it.
 */
class TrialSink : public rmt::ResultSink
{
  public:
    struct Origin
    {
        rmt::StratifiedSampler *sampler;
        rmt::JobSpec spec;      ///< as the sampler issued it
    };

    TrialSink(Tracer &tracer, Report &report, rmt::JournalWriter &journal,
              HostProbe &probe)
        : rates(probe), tracer(tracer), report(report), journal(journal),
          probe(probe)
    {
    }

    // Set by the round loop.
    std::map<std::uint64_t, Origin> origins;    ///< exec id -> origin
    std::uint64_t prefix_trials = 0;    ///< digest prefix length
    std::int64_t deadline = 0;          ///< stop after this (ns)
    std::atomic<bool> stop{false};
    std::int64_t last_ns = 0;           ///< previous completion

    // Measured.
    RateTable rates;
    double mode_run_s[5] = {}, mode_suffix[5] = {};
    std::vector<double> classify_ms, append_us, encode_us, decode_us,
        row_us, suffix_cycles;
    double avf_ns = 0;
    std::uint64_t verdicts[4] = {};     ///< over the digest prefix
    double prefix_cycles[5] = {}, prefix_committed[5] = {};
    std::uint64_t digest = rmt::fnv1a64Seed;

    void
    record(const rmt::JobSpec &spec, const rmt::JobResult &raw) override
    {
        const std::int64_t now = nowNs();
        const double interval_ns = static_cast<double>(now - last_ns);
        last_ns = now;

        rmt::JobResult r = raw;
        const double c0 = extraOr(r, classifyT0, 0);
        const double c1 = extraOr(r, classifyT1, 0);
        std::erase_if(r.extra, [](const auto &kv) {
            return kv.first == classifyT0 || kv.first == classifyT1;
        });
        if (c1 > 0) {
            const double run_s =
                r.run.host.warmup_seconds + r.run.host.measure_seconds;
            tracer.add("sim.run", spec.id,
                       static_cast<std::int64_t>(c0 - run_s * 1e9),
                       static_cast<std::int64_t>(c0), 1);
            tracer.add("oracle.classify", spec.id,
                       static_cast<std::int64_t>(c0),
                       static_cast<std::int64_t>(c1), 1);
            classify_ms.push_back((c1 - c0) * 1e-6);
        }

        Tracer::Scope append(tracer, "journal.append", spec.id);
        journal.append(r);
        const double append_ns = static_cast<double>(append.close());
        if (tracer.enabled)
            append_us.push_back(append_ns * 1e-3);

        const Origin &origin = origins.at(spec.id);
        Tracer::Scope avf(tracer, "avf.record", spec.id);
        origin.sampler->record(origin.spec, r);
        avf_ns += static_cast<double>(avf.close());

        if (tracer.enabled) {
            Tracer::Scope enc(tracer, "wire.encode", spec.id);
            const std::string payload = rmt::wire::encodeJobResult(r);
            encode_us.push_back(enc.close() * 1e-3);
            Tracer::Scope dec(tracer, "wire.decode", spec.id);
            const rmt::JobResult back = rmt::wire::decodeJobResult(payload);
            decode_us.push_back(dec.close() * 1e-3);
            report.check(rmt::wire::encodeJobResult(back) == payload,
                         "faults: wire codec does not round-trip a trial");
            Tracer::Scope json(tracer, "runner.row_json", spec.id);
            rmt::resultJson(spec, r, true);
            row_us.push_back(json.close() * 1e-3);
        }

        const int m = modeIndex(spec.options.mode);
        double committed = 0;
        for (const rmt::ThreadResult &t : r.run.threads)
            committed += static_cast<double>(t.committed);
        const double suffix =
            static_cast<double>(r.run.total_cycles) -
            extraOr(r, "snapshot_cycle", 0);
        rates.add(m, origin.spec.label.substr(0, origin.spec.label.find(' ')),
                  committed, interval_ns * 1e-9, now);
        if (tracer.enabled) {
            suffix_cycles.push_back(suffix);
            mode_run_s[m] +=
                r.run.host.warmup_seconds + r.run.host.measure_seconds;
            mode_suffix[m] += suffix;
        }

        ++report.attempted;
        const bool failed = !r.ok() || r.quarantined || !r.has_verdict;
        report.failed += failed;
        report.check(!failed, "faults: trial " + spec.label + " failed: " +
                                  r.error);
        report.check(!(redundant(spec.options.mode) &&
                       r.verdict == rmt::FaultVerdict::Sdc),
                     "faults: silent data corruption under " + spec.label);

        if (spec.id < prefix_trials) {
            rmt::fnv1a64Field(digest, rmt::resultJson(spec, r, false));
            ++verdicts[static_cast<int>(r.verdict)];
            prefix_cycles[m] += static_cast<double>(r.run.total_cycles);
            prefix_committed[m] += committed;
        } else if (now >= deadline) {
            stop.store(true);
        }
        // Sample the host between trials; the next trial's interval
        // starts after the probe.
        const std::int64_t probe_t0 = nowNs();
        const std::int64_t spent = probe.tick();
        if (spent)
            tracer.add("host.probe", spec.id, probe_t0, probe_t0 + spent);
        last_ns += spent;
    }

  private:
    Tracer &tracer;
    Report &report;
    rmt::JournalWriter &journal;
    HostProbe &probe;
};

/** Time a snapshot round trip on each cell's middle image: restore it
 *  into a fresh Simulation, save it again, and check the bytes. */
void
snapshotProbe(Setup &setup, Tracer &tracer, Report &report)
{
    std::vector<double> build_ms, restore_ms, save_ms, image_kb;
    for (const auto *cells : {&setup.pair_cells, &setup.plain_cells}) {
        for (const auto &cell : *cells) {
            const auto set =
                setup.snapshots->snapshots(cell.workloads, cell.options);
            if (set->empty())
                continue;
            const std::string &image = *(*set)[set->size() / 2].image;
            Tracer::Scope build(tracer, "sim.build", 0);
            rmt::Simulation sim(cell.workloads, cell.options);
            build_ms.push_back(build.close() * 1e-6);
            Tracer::Scope restore(tracer, "ckpt.restore", 0);
            sim.restoreSnapshotBuffer(image);
            restore_ms.push_back(restore.close() * 1e-6);
            Tracer::Scope save(tracer, "ckpt.save", 0);
            const std::string again = sim.saveSnapshotBuffer();
            save_ms.push_back(save.close() * 1e-6);
            report.check(again == image, "faults: snapshot of " + cell.label +
                                             " does not round-trip");
            image_kb.push_back(static_cast<double>(image.size()) / 1024.0);
        }
    }
    report.layer("sim.build_ms", median(build_ms), "ms");
    report.layer("ckpt.restore_ms", median(restore_ms), "ms");
    report.layer("ckpt.save_ms", median(save_ms), "ms");
    report.layer("ckpt.image_kb", median(image_kb), "KiB");
}

} // namespace

void
runFaults(const RunConfig &cfg, Tracer &tracer, Report &report)
{
    HostProbe probe;
    std::vector<double> golden_ms, produce_ms;
    std::unique_ptr<Setup> setup;
    const double setup_s = medianSetup(
        probe,
        [&] {
            setup.reset();
            setup = buildSetup(tracer, golden_ms, produce_ms);
        },
        3, 0);
    report.e2e("setup_s", setup_s, "s");
    report.layer("oracle.golden_ms", median(golden_ms), "ms");
    report.layer("ckpt.produce_ms", median(produce_ms), "ms");

    rmt::SamplerConfig pair_cfg;
    pair_cfg.windows = 2;
    pair_cfg.batch = 1;
    pair_cfg.max_trials = 1u << 20;
    pair_cfg.has_pairs = true;
    rmt::SamplerConfig plain_cfg = pair_cfg;
    plain_cfg.has_pairs = false;
    rmt::StratifiedSampler pair_sampler(setup->pair_cells, pair_cfg,
                                        cfg.seed);
    rmt::StratifiedSampler plain_sampler(setup->plain_cells, plain_cfg,
                                         cfg.seed ^ 0x9e3779b97f4a7c15ull);

    const std::string journal_path = "faults.journal";
    const std::uint64_t journal_fp =
        rmt::fnv1a64("perfbench-faults-" + std::to_string(cfg.seed));
    rmt::JournalWriter journal(journal_path, journal_fp);
    TrialSink sink(tracer, report, journal, probe);

    rmt::ForkExecutorConfig fcfg;
    fcfg.runner.snapshots = setup->snapshots.get();
    fcfg.runner.sink = &sink;
    fcfg.runner.stop = &sink.stop;
    fcfg.runner.timeout_seconds = 20;   // a wedged child cannot stall the run
    rmt::ForkExecutor exec(fcfg);

    std::vector<double> flush_ms;
    std::uint64_t next_id = 0;
    unsigned rounds = 0;
    double phase_rate[2] = {};
    const int phases = cfg.trace ? 2 : 1;
    for (int phase = 0; phase < phases; ++phase) {
        tracer.enabled = cfg.trace && phase == 1;
        const std::int64_t phase_start = nowNs();
        sink.deadline =
            phase_start + static_cast<std::int64_t>(cfg.seconds / phases * 1e9);
        sink.last_ns = phase_start;
        sink.stop.store(false);
        sink.rates = RateTable(probe);

        while (!sink.stop.load()) {
            // Rounds alternate between the two samplers.
            rmt::StratifiedSampler &sampler =
                rounds % 2 == 0 ? pair_sampler : plain_sampler;
            Tracer::Scope round(tracer, "avf.next_round", rounds);
            std::vector<rmt::JobSpec> jobs = sampler.nextRound();
            sink.avf_ns += static_cast<double>(round.close());
            if (jobs.empty())
                break;
            std::vector<rmt::JobSpec> exec_jobs = jobs;
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                rmt::JobSpec &job = exec_jobs[i];
                job.id = next_id++;
                sink.origins[job.id] = {&sampler, jobs[i]};
                if (!tracer.enabled)
                    continue;
                job.post_run = [inner = job.post_run](
                                   rmt::Simulation &sim,
                                   const rmt::RunResult &run,
                                   rmt::JobResult &result) {
                    const double t0 = static_cast<double>(nowNs());
                    if (inner)
                        inner(sim, run, result);
                    result.extra.emplace_back(classifyT0, t0);
                    result.extra.emplace_back(
                        classifyT1, static_cast<double>(nowNs()));
                };
            }
            // The first round of each sampler always completes: the
            // digest covers exactly those trials.
            if (rounds < 2)
                sink.prefix_trials = next_id;
            Tracer::Scope run(tracer, "fork.run", rounds);
            exec.run(exec_jobs);
            run.close();
            Tracer::Scope flush(tracer, "journal.flush", rounds);
            journal.flush();
            const double f = static_cast<double>(flush.close());
            if (tracer.enabled)
                flush_ms.push_back(f * 1e-6);
            ++rounds;
        }
        phase_rate[phase] = sink.rates.opsPerSecond();
        if (!cfg.trace) {
            for (int m = 0; m < 5; ++m) {
                report.e2e(std::string("kips.") + modeNames[m],
                           sink.rates.kips(m), "kinst/s");
            }
            report.e2e("op_ms.p50", quantile(sink.rates.allMs(), 0.5), "ms");
            report.e2e("op_ms.p90", quantile(sink.rates.allMs(), 0.9), "ms");
            report.e2e("rows_per_s", sink.rates.opsPerSecond(), "1/s");
        }
    }
    tracer.enabled = cfg.trace;

    // Read side of the journal: every appended trial must replay.
    journal.close();
    Tracer::Scope replay_span(tracer, "journal.replay", 0);
    const rmt::JournalReplay replay =
        rmt::replayJournal(journal_path, journal_fp);
    const double replay_ms = replay_span.close() * 1e-6;
    report.check(replay.results.size() == journal.appended() &&
                     !replay.torn_tail && !replay.corrupt,
                 "faults: journal replay lost trials");

    if (cfg.trace)
        snapshotProbe(*setup, tracer, report);

    const rmt::ForkExecutor::Stats &fs = exec.stats();
    report.layer("fork.forked", static_cast<double>(fs.forked), "count");
    report.layer("fork.warm_builds", static_cast<double>(fs.warm_builds),
                 "count");
    report.layer("fork.warm_reuse",
                 fs.forked ? 1.0 - static_cast<double>(fs.warm_builds) /
                                       static_cast<double>(fs.forked)
                           : 0,
                 "ratio");
    report.layer("fork.retries", static_cast<double>(fs.retries), "count");
    report.layer("fork.killed", static_cast<double>(fs.killed), "count");
    report.layer("fork.quarantined", static_cast<double>(fs.quarantined),
                 "count");

    std::uint64_t classified = 0;
    for (std::uint64_t v : sink.verdicts)
        classified += v;
    const char *const verdict_names[4] = {"masked", "detected", "sdc",
                                          "hang"};
    for (int v = 0; v < 4; ++v) {
        report.layer(std::string("oracle.") + verdict_names[v] + "_frac",
                     classified ? static_cast<double>(sink.verdicts[v]) /
                                      static_cast<double>(classified)
                                : 0,
                     "ratio");
    }
    for (int m = 0; m < 5; ++m) {
        const std::string mode = modeNames[m];
        report.layer("sim.cycles." + mode, sink.prefix_cycles[m], "count");
        report.layer("sim.committed." + mode, sink.prefix_committed[m],
                     "count");
        report.layer("sim.ns_per_cycle." + mode,
                     sink.mode_suffix[m] > 0
                         ? sink.mode_run_s[m] * 1e9 / sink.mode_suffix[m]
                         : 0,
                     "ns");
    }
    report.layer("host.probe_ms", probe.medianMs(), "ms");
    report.layer("sim.suffix_cycles", median(sink.suffix_cycles), "cycles");
    report.layer("oracle.classify_ms", median(sink.classify_ms), "ms");
    report.layer("journal.append_us", median(sink.append_us), "us");
    report.layer("journal.flush_ms", median(flush_ms), "ms");
    report.layer("journal.kb",
                 static_cast<double>(std::filesystem::file_size(journal_path)) /
                     1024.0,
                 "KiB");
    report.layer("journal.replay_ms", replay_ms, "ms");
    // Sampler time (nextRound plus every record call) per round.
    report.layer("avf.round_ms", rounds ? sink.avf_ns * 1e-6 / rounds : 0,
                 "ms");
    report.layer("avf.rounds", rounds, "count");
    report.layer("wire.encode_us", median(sink.encode_us), "us");
    report.layer("wire.decode_us", median(sink.decode_us), "us");
    report.layer("runner.row_json_us", median(sink.row_us), "us");
    if (cfg.trace && phase_rate[1] > 0)
        report.layer("trace.overhead_frac", phase_rate[0] / phase_rate[1] - 1,
                     "ratio");

    std::uint64_t h = sink.digest;
    for (std::uint64_t v : sink.verdicts)
        rmt::fnv1a64Field(h, std::to_string(v));
    report.sim_digest = h;
}

} // namespace perfbench
