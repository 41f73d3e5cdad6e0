/**
 * @file
 * The `modes` workload: whole simulations, one after another on one
 * thread, in all five machine modes over four kernels and one
 * two-program mix.  This loads the simulator core (cpu, mem, rmt, cmp)
 * and leaves the campaign stack idle.
 *
 * Kernels (fixed; the workload ignores --seed):
 *   go        L1-resident, branch-bound
 *   compress  L1-resident, dense stores
 *   gcc       L2-resident pointer chasing
 *   swim      streams beyond L2
 *   gcc+swim  the two-program mix, CRT's cross-coupled two-core case
 *
 * Every job builds a fresh Simulation, so caches start cold and warm
 * up for warmup_insts before the measured budget.
 */

#include <cctype>
#include <memory>

#include "bench.hh"
#include "common/fingerprint.hh"
#include "obs/attribution.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

namespace
{

constexpr std::uint64_t warmupInsts = 4000;
constexpr std::uint64_t measureInsts = 16000;

const std::vector<std::vector<std::string>> mixes = {
    {"go"}, {"compress"}, {"gcc"}, {"swim"}, {"gcc", "swim"},
};


/** The 25 jobs of one pass, kernel-major so host noise spreads evenly
 *  over the modes. */
std::vector<rmt::JobSpec>
passJobs()
{
    std::vector<rmt::JobSpec> jobs;
    for (const auto &mix : mixes) {
        for (int m = 0; m < 5; ++m) {
            rmt::JobSpec spec;
            spec.id = jobs.size();
            spec.workloads = mix;
            spec.options.mode = machineModes[m];
            spec.options.warmup_insts = warmupInsts;
            spec.options.measure_insts = measureInsts;
            spec.label = std::string(modeNames[m]) + ":" + mix[0] +
                         (mix.size() > 1 ? "+" + mix[1] : "");
            jobs.push_back(std::move(spec));
        }
    }
    return jobs;
}

/** Sum of the counters named @p stat over groups matching a pattern:
 *  "core" = core0, core1 ...; "core/l1d" = core0/l1d ...; "pair" and
 *  "pair/lvq" likewise; anything else matches exactly. */
struct GroupCounters
{
    std::map<std::string, double> sums;     // "pattern:stat" -> sum

    void
    add(const std::string &group, const rmt::StatGroup &stats)
    {
        std::string pattern = group;
        for (const char *prefix : {"core", "pair"}) {
            const std::size_t n = std::char_traits<char>::length(prefix);
            if (group.compare(0, n, prefix) != 0)
                continue;
            std::size_t i = n;
            while (i < group.size() && std::isdigit(
                                           static_cast<unsigned char>(
                                               group[i])))
                ++i;
            pattern = prefix + group.substr(i);
        }
        for (const rmt::StatBase *s : stats.statList()) {
            if (const auto *c = dynamic_cast<const rmt::Counter *>(s))
                sums[pattern + ":" + c->name()] +=
                    static_cast<double>(c->value());
        }
    }

    double get(const std::string &key) const
    {
        const auto it = sums.find(key);
        return it == sums.end() ? 0 : it->second;
    }
};

} // namespace

void
runModes(const RunConfig &cfg, Tracer &tracer, Report &report)
{
    const std::vector<rmt::JobSpec> jobs = passJobs();

    // Set-up: build every kernel and its data image once, then wire up
    // every job's Simulation once, so a configuration that cannot be
    // built fails before anything is timed.
    HostProbe probe;
    std::vector<double> build_ms;
    const double setup_s = medianSetup(
        probe,
        [&] {
            for (const char *name : {"go", "compress", "gcc", "swim"}) {
                Tracer::Scope s(tracer, "workloads.build", 0);
                const rmt::Workload w = rmt::buildWorkload(name);
                w.makeMemory();
                build_ms.push_back(s.close() * 1e-6);
            }
            for (const rmt::JobSpec &spec : jobs) {
                rmt::validateJobSpec(spec);
                rmt::Simulation(spec.workloads, spec.options);
            }
        },
        5, 1.0);
    report.e2e("setup_s", setup_s, "s");
    report.layer("workloads.build_ms", median(build_ms), "ms");

    // Accumulators over the measured phase (or, traced, per half).
    struct ModeAcc
    {
        double run_ns = 0, cycles = 0;
    };
    ModeAcc acc[5];
    RateTable rates(probe);
    std::vector<double> ctor_ms, row_json_us;
    std::vector<std::string> first_rows(jobs.size());
    GroupCounters counters;
    rmt::StallSlots slots;
    double pass_cycles[5] = {}, pass_committed[5] = {};
    std::uint64_t n = 0;
    double phase_rate[2] = {};

    const int phases = cfg.trace ? 2 : 1;
    for (int phase = 0; phase < phases; ++phase) {
        tracer.enabled = cfg.trace && phase == 1;
        const double budget = cfg.seconds / phases;
        const std::int64_t phase_start = nowNs();
        for (auto &a : acc)
            a = ModeAcc{};
        rates = RateTable(probe);
        ctor_ms.clear();
        row_json_us.clear();
        // The first pass always completes: it is the digest prefix.
        while (n < jobs.size() || secondsSince(phase_start) < budget) {
            const rmt::JobSpec &spec = jobs[n % jobs.size()];
            const int m = modeIndex(spec.options.mode);
            Tracer::Scope job_span(tracer, "bench.job", n);

            std::unique_ptr<rmt::Simulation> sim;
            Tracer::Scope build(tracer, "sim.build", n);
            sim = std::make_unique<rmt::Simulation>(spec.workloads,
                                                    spec.options);
            const std::int64_t build_ns = build.close();
            rmt::RunResult r;
            Tracer::Scope run(tracer, "sim.run", n);
            r = sim->run();
            const std::int64_t run_ns = run.close();

            ++report.attempted;
            const bool ok =
                r.outcome == rmt::Outcome::Completed &&
                r.attribution.conserves(r.attribution_core_cycles,
                                        r.commit_width) &&
                r.detections == 0 && r.store_mismatches == 0;
            report.failed += !ok;
            report.check(r.outcome == rmt::Outcome::Completed,
                         "modes: " + spec.label + " did not complete");
            report.check(r.attribution.conserves(r.attribution_core_cycles,
                                                 r.commit_width),
                         "modes: " + spec.label +
                             " commit-slot attribution does not conserve");
            report.check(r.detections == 0 && r.store_mismatches == 0,
                         "modes: " + spec.label +
                             " fault-free run reported a detection");

            double committed = 0;
            for (const rmt::ThreadResult &t : r.threads)
                committed += static_cast<double>(t.committed);
            rates.add(m, spec.label, committed,
                      static_cast<double>(build_ns + run_ns) * 1e-9, nowNs());
            acc[m].run_ns += static_cast<double>(run_ns);
            acc[m].cycles += static_cast<double>(r.total_cycles);
            ctor_ms.push_back(static_cast<double>(build_ns) * 1e-6);

            rmt::JobResult res;
            res.id = spec.id;
            res.label = spec.label;
            res.status = rmt::JobStatus::Ok;
            res.attempts = 1;
            res.run = r;
            Tracer::Scope json(tracer, "runner.row_json", n);
            const std::string row = rmt::resultJson(spec, res, false);
            row_json_us.push_back(json.close() * 1e-3);

            if (n < jobs.size()) {
                first_rows[n] = row;
                sim->chip().forEachStatGroup(
                    [&](const std::string &name, rmt::StatGroup &g) {
                        counters.add(name, g);
                    });
                slots += r.attribution;
                pass_cycles[m] += static_cast<double>(r.total_cycles);
                pass_committed[m] += committed;
            } else {
                report.check(row == first_rows[n % jobs.size()],
                             "modes: " + spec.label +
                                 " result differs between passes");
            }
            ++n;
            job_span.close();
            probe.tick();
        }
        phase_rate[phase] = rates.opsPerSecond();
        if (phase == phases - 1 && !cfg.trace) {
            for (int k = 0; k < 5; ++k) {
                report.e2e(std::string("kips.") + modeNames[k],
                           rates.kips(k), "kinst/s");
            }
            report.e2e("op_ms.p50", quantile(rates.typicalMs(), 0.5), "ms");
            report.e2e("op_ms.p90", quantile(rates.typicalMs(), 0.9), "ms");
            report.e2e("rows_per_s", rates.opsPerSecond(), "1/s");
        }
    }

    // Per-layer: timings from the traced half, exact counts from the
    // first pass (identical on every run of one commit).
    for (int m = 0; m < 5; ++m) {
        const std::string mode = modeNames[m];
        report.layer("sim.ns_per_cycle." + mode,
                     acc[m].cycles > 0 ? acc[m].run_ns / acc[m].cycles : 0,
                     "ns");
        report.layer("sim.cycles." + mode, pass_cycles[m], "count");
        report.layer("sim.committed." + mode, pass_committed[m], "count");
    }
    report.layer("sim.build_ms", median(ctor_ms), "ms");
    report.layer("host.probe_ms", probe.medianMs(), "ms");
    report.layer("runner.row_json_us", median(row_json_us), "us");

    const double kinst = counters.get("core:committed") / 1000.0;
    const auto perKinst = [&](const std::string &key) {
        return kinst > 0 ? counters.get(key) / kinst : 0;
    };
    report.layer("cpu.fetch_useful_ratio",
                 counters.get("core:fetched") > 0
                     ? counters.get("core:committed") /
                           counters.get("core:fetched")
                     : 0,
                 "ratio");
    report.layer("cpu.issued_per_inst",
                 kinst > 0 ? counters.get("core:issued") / (kinst * 1000)
                           : 0,
                 "ratio");
    report.layer("cpu.squashes_per_kinst", perKinst("core:squashes"),
                 "1/kinst");
    report.layer("mem.l1d_miss_per_kinst", perKinst("core/l1d:misses"),
                 "1/kinst");
    report.layer("mem.l2_miss_per_kinst", perKinst("mem/l2:misses"),
                 "1/kinst");
    report.layer("mem.main_queueing_per_kinst",
                 perKinst("mem/main:queueing_cycles"), "cycles/kinst");
    report.layer("mem.mergebuf_drains_per_kinst",
                 perKinst("core/mergebuf:drains"), "1/kinst");
    report.layer("rmt.lvq_inserts_per_kinst", perKinst("pair/lvq:inserts"),
                 "1/kinst");
    report.layer("rmt.lpq_pushes_per_kinst", perKinst("pair/lpq:pushes"),
                 "1/kinst");
    report.layer("rmt.store_compares_per_kinst",
                 perKinst("pair/cmp:comparisons"), "1/kinst");
    report.layer("rmt.fu_same_frac",
                 counters.get("pair:fu_pairs") > 0
                     ? counters.get("pair:fu_same") /
                           counters.get("pair:fu_pairs")
                     : 0,
                 "ratio");
    const double total_slots = static_cast<double>(slots.total());
    const std::pair<const char *, rmt::StallCause> shown[] = {
        {"committed", rmt::StallCause::Committed},
        {"fetch_starved", rmt::StallCause::FetchStarved},
        {"dcache_miss", rmt::StallCause::DcacheMiss},
        {"iq_full", rmt::StallCause::IqFull},
        {"sq_full", rmt::StallCause::SqFull},
        {"store_comp_wait", rmt::StallCause::StoreCompWait},
    };
    for (const auto &[name, cause] : shown) {
        report.layer(std::string("obs.slots.") + name,
                     total_slots > 0
                         ? static_cast<double>(slots[cause]) / total_slots
                         : 0,
                     "ratio");
    }
    if (cfg.trace && phase_rate[1] > 0)
        report.layer("trace.overhead_frac", phase_rate[0] / phase_rate[1] - 1,
                     "ratio");

    // Digest: the first pass's timing-free rows plus its exact counts.
    std::uint64_t h = rmt::fnv1a64Seed;
    for (const std::string &row : first_rows)
        rmt::fnv1a64Field(h, row);
    for (const auto &[key, value] : counters.sums)
        rmt::fnv1a64Field(h, key + "=" + std::to_string(value));
    report.sim_digest = h;
}

} // namespace perfbench
