#include "runner/result_sink.hh"

#include <cinttypes>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/fingerprint.hh"
#include "runner/campaign.hh"

namespace rmt
{

namespace
{

/**
 * Append an embedded stats blob, without its wall-clock "host" member
 * unless @p include_timing.  The blob is built inside the run, where
 * the sink's include_timing choice is unknown; dropping the member
 * here keeps --no-timing output byte-identical across runs and across
 * -j levels.  The member is a flat object, so scanning to the next '}'
 * is sufficient.
 */
void
appendStats(std::string &out, const std::string &stats,
            bool include_timing)
{
    if (!include_timing) {
        const auto pos = stats.find(",\"host\":{");
        const auto end = pos == std::string::npos
                             ? std::string::npos
                             : stats.find('}', pos);
        if (end != std::string::npos) {
            out.append(stats, 0, pos);
            out.append(stats, end + 1);
            return;
        }
    }
    out += stats;
}

} // namespace

std::string
optionsJson(const SimOptions &o)
{
    // The sim layer owns the canonical form: snapshots and baseline
    // caches key on the same pre-image the campaign records carry.
    return optionsCanonicalJson(o);
}

std::string
optionsFingerprint(const SimOptions &o)
{
    return fingerprintHex(optionsFingerprintU64(o));
}

void
appendResultJson(std::string &out, const JobSpec &spec,
                 const JobResult &r, bool include_timing)
{
    out += "{\"id\":";
    appendUint(out, spec.id);
    out += ",\"label\":";
    appendJsonString(out, spec.label);
    out += ",\"seed\":";
    appendUint(out, spec.seed);
    out += ",\"workloads\":[";
    for (std::size_t i = 0; i < spec.workloads.size(); ++i) {
        if (i)
            out += ',';
        appendJsonString(out, spec.workloads[i]);
    }
    // Render the options once, in place; the fingerprint hashes those
    // same bytes.
    out += "],\"options\":";
    const std::size_t canon_at = out.size();
    appendOptionsCanonicalJson(out, spec.options);
    const std::uint64_t fp =
        fnv1a64(out.data() + canon_at, out.size() - canon_at);
    out += ",\"fingerprint\":\"";
    out += fingerprintHex(fp);
    out += "\",\"status\":\"";
    out += r.ok() ? "ok" : "failed";
    out += "\",\"attempts\":";
    appendUint(out, r.attempts);
    if (!spec.faults.empty()) {
        out += ",\"faults\":[";
        for (std::size_t i = 0; i < spec.faults.size(); ++i) {
            const FaultRecord &f = spec.faults[i];
            if (i)
                out += ',';
            out += "{\"kind\":\"";
            out += faultKindName(f.kind);
            out += "\",\"when\":";
            appendUint(out, f.when);
            out += ",\"core\":";
            appendUint(out, f.core);
            out += ",\"tid\":";
            appendUint(out, f.tid);
            out += ",\"reg\":";
            appendUint(out, f.reg);
            out += ",\"bit\":";
            appendUint(out, f.bit);
            out += ",\"fu\":";
            appendUint(out, f.fuIndex);
            out += ",\"pair\":";
            appendUint(out, f.pairLogical);
            out += '}';
        }
        out += ']';
    }
    if (!r.ok()) {
        out += ",\"error\":";
        appendJsonString(out, r.error);
        out += ",\"timed_out\":";
        out += r.timed_out ? "true" : "false";
        // Only when set: healthy campaigns (and the forked-vs-scratch
        // byte-diff gate) never see the key.
        if (r.quarantined)
            out += ",\"quarantined\":true";
    }
    if (include_timing) {
        out += ",\"wall_ms\":";
        out += jsonNum(r.wall_seconds * 1e3);
        if (r.ok()) {
            out += ",\"host\":";
            out += r.run.host.json();
        }
    }
    if (r.ok()) {
        const RunResult &run = r.run;
        out += ",\"completed\":";
        out += run.completed ? "true" : "false";
        out += ",\"outcome\":\"";
        out += outcomeName(run.outcome);
        out += "\",\"total_cycles\":";
        appendUint(out, run.total_cycles);
        out += ",\"threads\":[";
        for (std::size_t i = 0; i < run.threads.size(); ++i) {
            const ThreadResult &t = run.threads[i];
            if (i)
                out += ',';
            out += "{\"workload\":";
            appendJsonString(out, t.workload);
            out += ",\"ipc\":";
            out += jsonNum(t.ipc);
            out += ",\"committed\":";
            appendUint(out, t.committed);
            out += ",\"cycles\":";
            appendUint(out, t.cycles);
            out += '}';
        }
        const std::pair<const char *, std::uint64_t> counters[] = {
            {"],\"detections\":", run.detections},
            {",\"recoveries\":", run.recoveries},
            {",\"store_comparisons\":", run.store_comparisons},
            {",\"store_mismatches\":", run.store_mismatches},
            {",\"fu_pairs\":", run.fu_pairs},
            {",\"fu_same_unit\":", run.fu_same_unit},
            {",\"sq_full_stalls\":", run.sq_full_stalls},
            {",\"lvq_full_stalls\":", run.lvq_full_stalls},
            {",\"branch_mispredicts\":", run.branch_mispredicts},
            {",\"line_mispredicts\":", run.line_mispredicts},
        };
        for (const auto &[key, value] : counters) {
            out += key;
            appendUint(out, value);
        }
        if (r.has_verdict) {
            out += ",\"verdict\":\"";
            out += verdictName(r.verdict);
            out += '"';
            if (r.detection_latency >= 0) {
                out += ",\"detection_latency\":";
                out += jsonNum(r.detection_latency);
            }
        }
        if (r.mean_efficiency >= 0) {
            out += ",\"mean_efficiency\":";
            out += jsonNum(r.mean_efficiency);
            out += ",\"efficiencies\":[";
            for (std::size_t i = 0; i < r.efficiencies.size(); ++i) {
                if (i)
                    out += ',';
                out += jsonNum(r.efficiencies[i]);
            }
            out += ']';
        }
        if (!run.stats_json.empty()) {
            out += ",\"stats\":";
            appendStats(out, run.stats_json, include_timing);
        }
    }
    if (!r.extra.empty()) {
        out += ",\"extra\":{";
        for (std::size_t i = 0; i < r.extra.size(); ++i) {
            if (i)
                out += ',';
            appendJsonString(out, r.extra[i].first);
            out += ':';
            out += jsonNum(r.extra[i].second);
        }
        out += '}';
    }
    out += '}';
}

std::string
resultJson(const JobSpec &spec, const JobResult &r, bool include_timing)
{
    std::string out;
    out.reserve(1024 + r.run.stats_json.size());
    appendResultJson(out, spec, r, include_timing);
    return out;
}

JsonlSink::JsonlSink(std::ostream &out, Options options)
    : out(out), opts(options), started(std::chrono::steady_clock::now())
{
}

void
JsonlSink::begin(const Campaign &campaign)
{
    std::lock_guard<std::mutex> lock(mu);
    total = campaign.jobs.size();
    done = 0;
    failed = 0;
    next_id = 0;
    started = std::chrono::steady_clock::now();
}

void
JsonlSink::record(const JobSpec &spec, const JobResult &result)
{
    const std::string line =
        resultJson(spec, result, opts.include_timing);

    std::lock_guard<std::mutex> lock(mu);
    ++done;
    if (!result.ok())
        ++failed;
    if (opts.ordered) {
        pending.emplace(spec.id, line);
        flushReady();
    } else {
        out << line << "\n";
    }
    if (opts.flush_each)
        out.flush();
    if (opts.progress) {
        // Heartbeat: jobs done/total, elapsed wall time, and a naive
        // remaining-time estimate from the mean pace so far.
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - started)
                .count();
        char eta[32] = "";
        // Both guards matter: done == 0 would divide by zero, and a
        // first record landing within the clock tick (elapsed == 0)
        // would project a meaningless zero ETA.
        if (done > 0 && done < total && elapsed > 0) {
            std::snprintf(eta, sizeof(eta), " eta %.0fs",
                          elapsed / done * (total - done));
        }
        char count[48];
        if (total) {
            std::snprintf(count, sizeof(count),
                          "[%" PRIu64 "/%" PRIu64 "]", done, total);
        } else {
            // Adaptive campaigns (--stratify) have no fixed job count.
            std::snprintf(count, sizeof(count), "[%" PRIu64 "]", done);
        }
        std::fprintf(stderr, "\r%s %s%s (%.0f ms) %.1fs%s%s", count,
                     result.ok() ? "" : "FAILED ", spec.label.c_str(),
                     result.wall_seconds * 1e3, elapsed, eta,
                     done == total ? "\n" : "");
        std::fflush(stderr);
    }
}

void
JsonlSink::flushReady()
{
    for (auto it = pending.begin();
         it != pending.end() && it->first == next_id;
         it = pending.erase(it), ++next_id) {
        out << it->second << "\n";
    }
}

void
JsonlSink::end()
{
    std::lock_guard<std::mutex> lock(mu);
    // Failed-and-skipped ids would wedge the ordered buffer; drain
    // whatever is left in id order.
    for (auto &[id, line] : pending)
        out << line << "\n";
    pending.clear();
    out.flush();

#if defined(__unix__) || defined(__APPLE__)
    if (!opts.fsync_path.empty()) {
        const int fd = ::open(opts.fsync_path.c_str(), O_WRONLY);
        if (fd >= 0) {
            ::fsync(fd);
            ::close(fd);
        }
    }
#endif
}

} // namespace rmt
