/**
 * @file
 * perfbench: the repository benchmark.  One process runs one workload
 * (modes, faults or serve) for a fixed time, checks the simulator's
 * outputs, and prints one JSON object as its last stdout line:
 *
 *   {"correct":...,"attempted":N,"failed":N,"metrics":{...}}
 *
 * With --trace 0 the metrics are the end-to-end set; with --trace 1
 * the run records spans around every call into the library and the
 * metrics are the per-layer set.  perfbench/README.md documents the
 * workloads and metrics; perfbench/run.py builds and invokes this.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hh"
#include "common/fingerprint.hh"

namespace fs = std::filesystem;
using namespace perfbench;

namespace
{

/** The end-to-end metrics every workload reports (BENCHMARK.json). */
const char *const endToEndNames[] = {
    "setup_s",   "peak_rss_mb",    "ok_frac",      "kips.base",
    "kips.base2", "kips.srt",      "kips.lockstep", "kips.crt",
    "op_ms.p50", "op_ms.p90",      "rows_per_s",
};

/**
 * The per-layer metrics, with units.  A workload that makes no call
 * into a layer reports that layer's metrics as 0.
 */
const std::pair<const char *, const char *> perLayerNames[] = {
    {"workloads.build_ms", "ms"},
    {"sim.build_ms", "ms"},
    {"sim.ns_per_cycle.base", "ns"},
    {"sim.ns_per_cycle.base2", "ns"},
    {"sim.ns_per_cycle.srt", "ns"},
    {"sim.ns_per_cycle.lockstep", "ns"},
    {"sim.ns_per_cycle.crt", "ns"},
    {"sim.cycles.base", "count"},
    {"sim.cycles.base2", "count"},
    {"sim.cycles.srt", "count"},
    {"sim.cycles.lockstep", "count"},
    {"sim.cycles.crt", "count"},
    {"sim.committed.base", "count"},
    {"sim.committed.base2", "count"},
    {"sim.committed.srt", "count"},
    {"sim.committed.lockstep", "count"},
    {"sim.committed.crt", "count"},
    {"sim.suffix_cycles", "cycles"},
    {"cpu.fetch_useful_ratio", "ratio"},
    {"cpu.issued_per_inst", "ratio"},
    {"cpu.squashes_per_kinst", "1/kinst"},
    {"mem.l1d_miss_per_kinst", "1/kinst"},
    {"mem.l2_miss_per_kinst", "1/kinst"},
    {"mem.main_queueing_per_kinst", "cycles/kinst"},
    {"mem.mergebuf_drains_per_kinst", "1/kinst"},
    {"rmt.lvq_inserts_per_kinst", "1/kinst"},
    {"rmt.lpq_pushes_per_kinst", "1/kinst"},
    {"rmt.store_compares_per_kinst", "1/kinst"},
    {"rmt.fu_same_frac", "ratio"},
    {"obs.slots.committed", "ratio"},
    {"obs.slots.fetch_starved", "ratio"},
    {"obs.slots.dcache_miss", "ratio"},
    {"obs.slots.iq_full", "ratio"},
    {"obs.slots.sq_full", "ratio"},
    {"obs.slots.store_comp_wait", "ratio"},
    {"oracle.golden_ms", "ms"},
    {"oracle.classify_ms", "ms"},
    {"oracle.masked_frac", "ratio"},
    {"oracle.detected_frac", "ratio"},
    {"oracle.sdc_frac", "ratio"},
    {"oracle.hang_frac", "ratio"},
    {"ckpt.produce_ms", "ms"},
    {"ckpt.save_ms", "ms"},
    {"ckpt.restore_ms", "ms"},
    {"ckpt.image_kb", "KiB"},
    {"fork.forked", "count"},
    {"fork.warm_builds", "count"},
    {"fork.warm_reuse", "ratio"},
    {"fork.retries", "count"},
    {"fork.killed", "count"},
    {"fork.quarantined", "count"},
    {"journal.append_us", "us"},
    {"journal.flush_ms", "ms"},
    {"journal.kb", "KiB"},
    {"journal.replay_ms", "ms"},
    {"avf.round_ms", "ms"},
    {"avf.rounds", "count"},
    {"store.open_ms", "ms"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.inflight_waits", "count"},
    {"store.hit_ratio", "ratio"},
    {"store.kb", "KiB"},
    {"serve.sim_share", "ratio"},
    {"protocol.submit_encode_us", "us"},
    {"wire.encode_us", "us"},
    {"wire.decode_us", "us"},
    {"runner.row_json_us", "us"},
    {"trace.overhead_frac", "ratio"},
    {"host.probe_ms", "ms"},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload modes|faults|serve --seed N "
                 "--seconds S --trace 0|1 --scratch DIR --out DIR\n");
    return 2;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    std::string scratch;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload")
            cfg.workload = val;
        else if (key == "--seed")
            cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            cfg.seconds = std::atof(val.c_str());
        else if (key == "--trace")
            cfg.trace = val == "1";
        else if (key == "--scratch")
            scratch = val;
        else if (key == "--out")
            cfg.out_dir = val;
        else
            return usage();
    }
    if (cfg.workload.empty() || scratch.empty() || cfg.out_dir.empty() ||
        cfg.seconds <= 0)
        return usage();

    // Every file the workloads create (journal, store, socket) lives
    // under the scratch directory; working there keeps the daemon's
    // socket path short.  The directory is removed on every exit path.
    const fs::path home = fs::current_path();
    std::error_code ec;
    fs::remove_all(scratch, ec);
    fs::create_directories(scratch);
    fs::create_directories(cfg.out_dir);
    cfg.out_dir = fs::absolute(cfg.out_dir).string();
    fs::current_path(scratch);

    Tracer tracer;
    Report report;
    std::string failure;
    try {
        if (cfg.workload == "modes")
            runModes(cfg, tracer, report);
        else if (cfg.workload == "faults")
            runFaults(cfg, tracer, report);
        else if (cfg.workload == "serve")
            runServe(cfg, tracer, report);
        else
            failure = "unknown workload";
    } catch (const std::exception &e) {
        failure = e.what();
    }
    fs::current_path(home);
    fs::remove_all(scratch, ec);
    if (!failure.empty()) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     cfg.workload.c_str(), failure.c_str());
        return 1;
    }

    rusage usage_self{};
    ::getrusage(RUSAGE_SELF, &usage_self);
    report.e2e("peak_rss_mb", usage_self.ru_maxrss / 1024.0, "MB");
    report.e2e("ok_frac",
               report.attempted
                   ? static_cast<double>(report.attempted - report.failed) /
                         static_cast<double>(report.attempted)
                   : 0.0,
               "ratio");
    report.check(report.attempted > 0, "no operation completed");

    for (const auto &[name, unit] : perLayerNames) {
        if (!report.per_layer.count(name))
            report.layer(name, 0, unit);
    }
    for (const char *name : endToEndNames) {
        if (!cfg.trace && !report.end_to_end.count(name)) {
            std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                         cfg.workload.c_str(), name);
            return 1;
        }
    }

    if (cfg.trace) {
        const std::string stem = cfg.out_dir + "/" + cfg.workload + "-seed" +
                                 std::to_string(cfg.seed);
        std::ofstream(stem + ".trace.json") << tracer.chromeJson();
        const std::string table = tracer.selfTimeTable();
        std::ofstream(stem + ".selftime.txt") << table;
        std::fprintf(stderr, "%s", table.c_str());
        std::fprintf(stderr, "perfbench: trace written to %s.trace.json\n",
                     stem.c_str());
    }
    for (const std::string &e : report.errors)
        std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());

    std::cout << "sim_digest " << cfg.workload << " seed " << cfg.seed << " "
              << rmt::fingerprintHex(report.sim_digest) << "\n";
    const auto &metrics = cfg.trace ? report.per_layer : report.end_to_end;
    std::cout << "{\"correct\":" << (report.correct ? "true" : "false")
              << ",\"attempted\":" << report.attempted
              << ",\"failed\":" << report.failed << ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        std::cout << (first ? "" : ",") << "\"" << name
                  << "\":{\"value\":" << number(m.value) << ",\"unit\":\""
                  << m.unit << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
    return 0;
}
