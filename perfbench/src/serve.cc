/**
 * @file
 * The `serve` workload: an in-process rmtsimd daemon (one pool worker,
 * Unix socket and result store in the scratch directory) and one client
 * that submits small campaigns back to back.  Each campaign mixes a
 * fixed share of new jobs (store misses: simulate, publish, append)
 * with repeats of jobs published earlier (store hits: read the store
 * and send the row back).  This loads the store, protocol and wire
 * layers; simulation is a minority of the time.
 *
 * New jobs are fault-free: the daemon builds fault-oracle goldens per
 * submit, so a new fault job would add a golden run to every campaign.
 * A new job is a known (kernel, mode) job under a fresh job seed, which
 * gives it a fresh content key.  The seed picks the repeats and the
 * new jobs' kernels and modes.
 */

#include <csignal>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "common/fingerprint.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "runner/result_sink.hh"
#include "runner/wire.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"
#include "serve/result_store.hh"

namespace perfbench
{

namespace
{

constexpr std::uint64_t warmupInsts = 250;
constexpr std::uint64_t measureInsts = 750;
constexpr unsigned jobsPerCampaign = 512;
constexpr unsigned newPerCampaign = 2;      ///< 1/256 of every campaign
constexpr std::uint64_t prefixCampaigns = 20;   ///< digest prefix

const char *const kernels[] = {"go", "compress", "gcc", "swim"};

/** A daemon serving on its own thread; stopped and joined on exit. */
struct RunningDaemon
{
    std::unique_ptr<rmt::serve::Daemon> daemon;
    std::thread thread;
    std::string socket, store_dir;

    RunningDaemon(const std::string &name, Tracer &tracer, double &open_ms)
        : socket(name + ".sock"), store_dir(name + ".store")
    {
        rmt::serve::DaemonConfig dc;
        dc.socket_path = socket;
        dc.store_dir = store_dir;
        dc.jobs = 1;
        daemon = std::make_unique<rmt::serve::Daemon>(dc);
        Tracer::Scope open(tracer, "store.open", 0);
        daemon->open();
        open_ms = open.close() * 1e-6;
        thread = std::thread([d = daemon.get()] {
            try {
                d->run();
            } catch (const std::exception &e) {
                std::fprintf(stderr, "perfbench: daemon: %s\n", e.what());
            }
        });
    }

    void
    stop()
    {
        if (!thread.joinable())
            return;
        daemon->requestStop();
        thread.join();
    }

    ~RunningDaemon() { stop(); }

    RunningDaemon(const RunningDaemon &) = delete;
    RunningDaemon &operator=(const RunningDaemon &) = delete;
};

rmt::JobSpec
poolJob(unsigned kernel, unsigned mode, std::uint64_t seed)
{
    rmt::JobSpec spec;
    spec.workloads = {kernels[kernel]};
    spec.options.mode = machineModes[mode];
    spec.options.warmup_insts = warmupInsts;
    spec.options.measure_insts = measureInsts;
    spec.label = std::string(modeNames[mode]) + ":" + kernels[kernel];
    spec.seed = seed;
    return spec;
}

/** Remove the member starting at @p key (with its leading comma),
 *  whose value ends at the first @p end character. */
void
eraseMember(std::string &row, const std::string &key, char end,
            bool keep_end)
{
    const std::size_t at = row.find(key);
    if (at == std::string::npos)
        return;
    const std::size_t stop = row.find(end, at + key.size());
    if (stop == std::string::npos)
        return;
    row.erase(at, stop - at + (keep_end ? 0 : 1));
}

/** The row without its timing fields (wall_ms, host). */
std::string
timingFree(std::string row)
{
    eraseMember(row, ",\"wall_ms\":", ',', true);
    eraseMember(row, ",\"host\":{", '}', false);
    return row;
}

/** The row as a content comparison sees it: no timing, no job id and
 *  (for new jobs, compared with their template) no job seed. */
std::string
content(std::string row, bool drop_seed)
{
    row = timingFree(std::move(row));
    eraseMember(row, "\"id\":", ',', false);
    if (drop_seed)
        eraseMember(row, "\"seed\":", ',', false);
    return row;
}

std::vector<std::string>
splitRows(const std::string &text)
{
    std::vector<std::string> rows;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
        if (!line.empty())
            rows.push_back(line);
    }
    return rows;
}

} // namespace

void
runServe(const RunConfig &cfg, Tracer &tracer, Report &report)
{
    // A client that hangs up must not kill the daemon's writer.
    std::signal(SIGPIPE, SIG_IGN);

    // The pool every repeat is drawn from: each kernel in each mode.
    std::vector<rmt::JobSpec> pool;
    for (unsigned k = 0; k < 4; ++k) {
        for (unsigned m = 0; m < 5; ++m)
            pool.push_back(poolJob(k, m, 1));
    }

    // Set-up: open a fresh store and daemon, then publish the pool.
    std::unique_ptr<RunningDaemon> served;
    std::map<std::uint64_t, std::string> first_seen;   // key -> content
    HostProbe probe;
    std::vector<double> open_ms;
    unsigned setups = 0;
    const double setup_s = medianSetup(
        probe,
        [&] {
            served.reset();
            double ms = 0;
            served = std::make_unique<RunningDaemon>(
                "serve" + std::to_string(setups++), tracer, ms);
            open_ms.push_back(ms);
            rmt::Campaign prefill;
            prefill.name = "perfbench-prefill";
            prefill.jobs = pool;
            for (std::size_t i = 0; i < pool.size(); ++i)
                prefill.jobs[i].id = i;
            std::ostringstream out;
            const auto res = rmt::serve::runRemoteCampaign(
                served->socket, prefill, true, out);
            const auto rows = splitRows(out.str());
            report.check(rows.size() == pool.size() && res.failed == 0,
                         "serve: store pre-fill failed");
            first_seen.clear();
            for (std::size_t i = 0; i < rows.size() && i < pool.size(); ++i)
                first_seen[rmt::resultKeyU64(pool[i])] = content(rows[i], false);
        },
        5, 1.0);
    report.e2e("setup_s", setup_s, "s");
    report.layer("store.open_ms", median(open_ms), "ms");

    // Template content per (kernel, mode), to check new jobs against.
    std::map<std::string, std::string> template_content;
    for (const rmt::JobSpec &spec : pool) {
        template_content[spec.label] = content(
            first_seen.at(rmt::resultKeyU64(spec)), true);
    }

    rmt::Random rng(cfg.seed);
    std::vector<rmt::JobSpec> published = pool;
    std::uint64_t next_seed = 1000;
    std::uint64_t campaigns = 0;
    std::uint64_t digest = rmt::fnv1a64Seed;
    std::vector<double> submit_us;
    double sim_ms = 0, client_s = 0;
    rmt::Campaign last_campaign;
    std::vector<std::string> last_rows;
    double phase_rate[2] = {};

    const int phases = cfg.trace ? 2 : 1;
    for (int phase = 0; phase < phases; ++phase) {
        tracer.enabled = cfg.trace && phase == 1;
        const std::int64_t phase_start = nowNs();
        const double budget = cfg.seconds / phases;
        RateTable campaign_times(probe);    // one cell: rows per campaign
        RateTable rates(probe);             // miss rows, per (kernel, mode)

        while (campaigns < prefixCampaigns ||
               secondsSince(phase_start) < budget) {
            // Build the campaign: new jobs at seeded positions, repeats
            // drawn from everything published so far.
            rmt::Campaign campaign;
            campaign.name = "perfbench-" + std::to_string(campaigns);
            campaign.seed = cfg.seed;
            std::vector<bool> is_new(jobsPerCampaign, false);
            for (unsigned placed = 0; placed < newPerCampaign;) {
                const std::size_t at = rng.range(jobsPerCampaign);
                placed += !is_new[at];
                is_new[at] = true;
            }
            for (unsigned i = 0; i < jobsPerCampaign; ++i) {
                rmt::JobSpec spec =
                    is_new[i] ? poolJob(static_cast<unsigned>(rng.range(4)),
                                        static_cast<unsigned>(rng.range(5)),
                                        next_seed++)
                              : published[rng.range(published.size())];
                spec.id = i;
                campaign.jobs.push_back(std::move(spec));
            }

            Tracer::Scope camp(tracer, "serve.campaign", campaigns);
            if (tracer.enabled) {
                Tracer::Scope enc(tracer, "protocol.submit_encode",
                                  campaigns);
                rmt::serve::submitJson(campaign, true);
                submit_us.push_back(enc.close() * 1e-3);
            }
            std::ostringstream out;
            Tracer::Scope remote(tracer, "serve.remote_campaign", campaigns);
            const auto res = rmt::serve::runRemoteCampaign(
                served->socket, campaign, true, out);
            const double s = remote.close() * 1e-9;
            campaign_times.add(0, "campaign", jobsPerCampaign, s, nowNs());
            client_s += s;

            Tracer::Scope check(tracer, "bench.check_rows", campaigns);
            const std::vector<std::string> rows = splitRows(out.str());
            report.attempted += jobsPerCampaign;
            report.failed += res.failed + (rows.size() < jobsPerCampaign
                                               ? jobsPerCampaign - rows.size()
                                               : 0);
            report.check(rows.size() == jobsPerCampaign && res.failed == 0,
                         "serve: a campaign lost or failed rows");
            report.check(res.hits == jobsPerCampaign - newPerCampaign &&
                             res.misses == newPerCampaign,
                         "serve: store hits/misses do not match the mix");
            for (std::size_t i = 0; i < rows.size() && i < jobsPerCampaign;
                 ++i) {
                const rmt::JobSpec &spec = campaign.jobs[i];
                const std::uint64_t key = rmt::resultKeyU64(spec);
                const std::string c = content(rows[i], false);
                if (is_new[i]) {
                    report.check(content(rows[i], true) ==
                                     template_content.at(spec.label),
                                 "serve: new job " + spec.label +
                                     " differs from its first run");
                    first_seen[key] = c;
                    published.push_back(spec);
                    rmt::JsonValue row;
                    if (rmt::parseJson(rows[i], row)) {
                        double committed = 0;
                        if (const rmt::JsonValue *th = row.find("threads")) {
                            for (const auto &t : th->array())
                                committed += t.numberOr("committed", 0);
                        }
                        const double wall = row.numberOr("wall_ms", 0);
                        rates.add(modeIndex(spec.options.mode), spec.label,
                                  committed, wall * 1e-3, nowNs());
                        sim_ms += wall;
                    }
                } else {
                    report.check(first_seen.count(key) &&
                                     first_seen.at(key) == c,
                                 "serve: repeated row " + spec.label +
                                     " differs from its first appearance");
                }
                if (campaigns < prefixCampaigns)
                    rmt::fnv1a64Field(digest, timingFree(rows[i]));
            }
            last_campaign = std::move(campaign);
            last_rows = rows;
            ++campaigns;
            camp.close();
            probe.tick();
        }

        // Rows per second of client time, at the median campaign.
        phase_rate[phase] = jobsPerCampaign * campaign_times.opsPerSecond();
        if (!cfg.trace) {
            for (int m = 0; m < 5; ++m) {
                report.e2e(std::string("kips.") + modeNames[m],
                           rates.kips(m), "kinst/s");
            }
            report.e2e("op_ms.p50", quantile(campaign_times.allMs(), 0.5),
                       "ms");
            report.e2e("op_ms.p90", quantile(campaign_times.allMs(), 0.9),
                       "ms");
            report.e2e("rows_per_s", phase_rate[phase], "1/s");
        }
    }
    tracer.enabled = cfg.trace;

    const rmt::ResultStoreStats st = served->daemon->store().stats();
    report.layer("store.hits", static_cast<double>(st.hits), "count");
    report.layer("store.misses", static_cast<double>(st.misses), "count");
    report.layer("store.inflight_waits", static_cast<double>(st.inflight_waits),
                 "count");
    report.layer("store.hit_ratio",
                 st.hits + st.misses
                     ? static_cast<double>(st.hits) /
                           static_cast<double>(st.hits + st.misses)
                     : 0,
                 "ratio");
    report.layer("store.kb", static_cast<double>(st.stored_bytes) / 1024.0,
                 "KiB");
    report.layer("serve.sim_share", client_s > 0 ? sim_ms * 1e-3 / client_s : 0,
                 "ratio");
    report.layer("protocol.submit_encode_us", median(submit_us), "us");
    report.layer("host.probe_ms", probe.medianMs(), "ms");
    if (cfg.trace && phase_rate[1] > 0)
        report.layer("trace.overhead_frac", phase_rate[0] / phase_rate[1] - 1,
                     "ratio");

    // Read the store back from disk after the drain: every row of the
    // last campaign must be stored, and re-rendering the stored result
    // must give the exact bytes the client received.
    const std::string store_dir = served->store_dir;
    served->stop();
    served.reset();
    rmt::ResultStore reloaded;
    {
        Tracer::Scope load(tracer, "store.load", 0);
        reloaded.open(store_dir);
    }
    std::vector<double> encode_us, decode_us, row_us;
    for (std::size_t i = 0; i < last_campaign.jobs.size(); ++i) {
        const rmt::JobSpec &spec = last_campaign.jobs[i];
        rmt::JobResult stored;
        const bool hit = reloaded.tryClaim(rmt::resultKeyU64(spec), stored) ==
                         rmt::ResultStore::Claim::Hit;
        report.check(hit, "serve: published row missing from the store");
        if (!hit)
            continue;
        Tracer::Scope enc(tracer, "wire.encode", i);
        const std::string payload = rmt::wire::encodeJobResult(stored);
        encode_us.push_back(enc.close() * 1e-3);
        Tracer::Scope dec(tracer, "wire.decode", i);
        const rmt::JobResult back = rmt::wire::decodeJobResult(payload);
        decode_us.push_back(dec.close() * 1e-3);
        Tracer::Scope json(tracer, "runner.row_json", i);
        const std::string row = rmt::resultJson(spec, back, true);
        row_us.push_back(json.close() * 1e-3);
        report.check(i < last_rows.size() && row == last_rows[i],
                     "serve: stored result renders a different row");
    }
    report.layer("wire.encode_us", median(encode_us), "us");
    report.layer("wire.decode_us", median(decode_us), "us");
    report.layer("runner.row_json_us", median(row_us), "us");

    report.sim_digest = digest;
}

} // namespace perfbench
