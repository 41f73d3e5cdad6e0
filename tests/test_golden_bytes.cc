/**
 * @file
 * Golden bytes for the encoders whose output is hashed or persisted:
 * optionsCanonicalJson (the pre-image of snapshot headers, journal and
 * store keys), resultJson rows, submitJson, resultKeyU64 and
 * campaignFingerprintU64.
 *
 * tests/data/golden_bytes.txt holds one `name<TAB>bytes` line per case,
 * rendered by the iostream-based encoders these were rewritten from.
 * Every case below must reproduce its line exactly, and the file must
 * hold no case this test no longer renders.
 *
 * Compiled with -DRMT_GOLDEN_BYTES_PRINT this file is instead a small
 * program that prints those lines to stdout; that is how the data file
 * is produced from a trusted tree.
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/fingerprint.hh"
#include "runner/campaign.hh"
#include "runner/journal.hh"
#include "runner/result_sink.hh"
#include "serve/protocol.hh"
#include "serve/result_store.hh"

#ifndef RMT_GOLDEN_BYTES_PRINT
#include <gtest/gtest.h>
#endif

using namespace rmt;

namespace
{

using Cases = std::vector<std::pair<std::string, std::string>>;

constexpr std::uint64_t u64Max = std::numeric_limits<std::uint64_t>::max();
constexpr unsigned u32Max = std::numeric_limits<unsigned>::max();

SimOptions
maxOptions()
{
    SimOptions o;
    o.mode = SimMode::Crt;
    o.warmup_insts = u64Max;
    o.measure_insts = u64Max;
    o.checker_penalty = u32Max;
    o.per_thread_store_queues = true;
    o.store_comparison = true;
    o.preferential_space_redundancy = true;
    o.trailing_fetch = TrailingFetchMode::SharedLinePredictor;
    o.slack_fetch = u32Max;
    o.lvq_ecc = true;
    o.lpq_ecc = true;
    o.boq_ecc = true;
    o.merge_buffer_ecc = true;
    o.hang_cycles = u64Max;
    o.cpu.store_queue_entries = u32Max;
    o.cpu.lvq_entries = u32Max;
    o.cpu.lpq_entries = u32Max;
    o.cpu.rob_entries = u32Max;
    o.cpu.iq_entries = u32Max;
    o.recovery = true;
    o.snapshot_every = u64Max;
    return o;
}

SimOptions
zeroOptions()
{
    SimOptions o;
    o.warmup_insts = 0;
    o.measure_insts = 0;
    o.checker_penalty = 0;
    o.per_thread_store_queues = false;
    o.store_comparison = false;
    o.preferential_space_redundancy = false;
    o.slack_fetch = 0;
    o.lvq_ecc = false;
    o.lpq_ecc = false;
    o.boq_ecc = false;
    o.merge_buffer_ecc = false;
    o.hang_cycles = 0;
    o.cpu.store_queue_entries = 0;
    o.cpu.lvq_entries = 0;
    o.cpu.lpq_entries = 0;
    o.cpu.rob_entries = 0;
    o.cpu.iq_entries = 0;
    o.recovery = false;
    o.snapshot_every = 0;
    return o;
}

Cases
optionCases()
{
    Cases out;
    out.emplace_back("options.default",
                     optionsCanonicalJson(SimOptions{}));
    for (const SimMode m : {SimMode::Base, SimMode::Base2, SimMode::Srt,
                            SimMode::Lockstep, SimMode::Crt}) {
        SimOptions o;
        o.mode = m;
        out.emplace_back(std::string("options.mode.") + modeName(m),
                         optionsCanonicalJson(o));
    }
    const std::pair<const char *, TrailingFetchMode> frontends[] = {
        {"lpq", TrailingFetchMode::LinePredictionQueue},
        {"boq", TrailingFetchMode::BranchOutcomeQueue},
        {"sharedlp", TrailingFetchMode::SharedLinePredictor},
    };
    for (const auto &[name, fe] : frontends) {
        SimOptions o;
        o.mode = SimMode::Srt;
        o.trailing_fetch = fe;
        out.emplace_back(std::string("options.frontend.") + name,
                         optionsCanonicalJson(o));
    }
    out.emplace_back("options.max", optionsCanonicalJson(maxOptions()));
    out.emplace_back("options.zero", optionsCanonicalJson(zeroOptions()));
    return out;
}

JobSpec
plainSpec()
{
    JobSpec spec;
    spec.id = 7;
    spec.label = "srt/gcc+swim \"quoted\"\ttab\x01";
    spec.workloads = {"gcc", "swim"};
    spec.options.mode = SimMode::Srt;
    spec.options.slack_fetch = 32;
    spec.seed = 0x9e3779b97f4a7c15ull;
    return spec;
}

JobSpec
faultSpec()
{
    JobSpec spec = plainSpec();
    spec.id = u64Max;
    spec.seed = u64Max;
    FaultRecord reg{};
    reg.kind = FaultRecord::Kind::TransientReg;
    reg.when = 12345;
    reg.tid = 1;
    reg.reg = 31;
    reg.bit = 63;
    FaultRecord fu{};
    fu.kind = FaultRecord::Kind::PermanentFu;
    fu.when = u64Max;
    fu.core = 255;
    fu.tid = 255;
    fu.reg = 255;
    fu.bit = u32Max;
    fu.fuIndex = u32Max;
    fu.mask = u64Max;
    fu.pairLogical = 255;
    FaultRecord lvq{};
    lvq.kind = FaultRecord::Kind::TransientLvq;
    lvq.when = 1;
    lvq.pairLogical = 1;
    lvq.bit = 5;
    spec.faults = {reg, fu, lvq};
    return spec;
}

JobResult
okResult()
{
    JobResult r;
    r.id = 7;
    r.label = "srt/gcc+swim";
    r.status = JobStatus::Ok;
    r.attempts = 1;
    r.wall_seconds = 0.0123456789;
    RunResult &run = r.run;
    run.threads = {{"gcc", 1.0 / 3.0, 30000, 90001},
                   {"swim\n", 2.5, u64Max, u64Max}};
    run.total_cycles = 90001;
    run.completed = true;
    run.outcome = Outcome::Completed;
    run.detections = 1;
    run.recoveries = 2;
    run.store_comparisons = 3;
    run.store_mismatches = 4;
    run.fu_pairs = 5;
    run.fu_same_unit = 6;
    run.sq_full_stalls = 7;
    run.lvq_full_stalls = 8;
    run.branch_mispredicts = 9;
    run.line_mispredicts = u64Max;
    run.host.build_seconds = 0.001;
    run.host.warmup_seconds = 0.25;
    run.host.measure_seconds = 1.0e-7;
    run.host.sim_kips = 1234.5678;
    return r;
}

Cases
rowCases()
{
    Cases out;
    const JobSpec plain = plainSpec();
    const JobSpec faulty = faultSpec();

    const JobResult ok = okResult();
    out.emplace_back("row.ok", resultJson(plain, ok, false));
    out.emplace_back("row.ok.timing", resultJson(plain, ok, true));

    JobResult failed;
    failed.id = 7;
    failed.status = JobStatus::Failed;
    failed.error = "boom: \"bad\" \\ path\nline";
    failed.attempts = 3;
    failed.wall_seconds = 2.0;
    out.emplace_back("row.failed", resultJson(plain, failed, false));
    out.emplace_back("row.failed.timing", resultJson(plain, failed, true));

    JobResult quarantined = failed;
    quarantined.timed_out = true;
    quarantined.quarantined = true;
    out.emplace_back("row.quarantined",
                     resultJson(faulty, quarantined, false));

    JobResult verdict = ok;
    verdict.has_verdict = true;
    verdict.verdict = FaultVerdict::Detected;
    verdict.detection_latency = 17.5;
    out.emplace_back("row.faults.detected",
                     resultJson(faulty, verdict, false));
    verdict.verdict = FaultVerdict::Sdc;
    verdict.detection_latency = -1;
    out.emplace_back("row.faults.sdc", resultJson(faulty, verdict, true));

    JobResult eff = ok;
    eff.mean_efficiency = 0.875;
    eff.efficiencies = {0.75, 1.0, 1e-300};
    eff.extra = {{"avf", 0.0625}, {"weird \"key\"", -3.0e21},
                 {"nan", std::numeric_limits<double>::quiet_NaN()}};
    out.emplace_back("row.extra", resultJson(plain, eff, false));

    JobResult failedExtra = failed;
    failedExtra.extra = {{"golden_ms", 12.0}};
    out.emplace_back("row.failed.extra",
                     resultJson(plain, failedExtra, false));

    JobResult stats = ok;
    stats.run.stats_json =
        "{\"schema\":\"rmtsim-stats-v1\",\"mode\":\"srt\","
        "\"workloads\":[\"gcc\"],\"total_cycles\":90001,"
        "\"completed\":true,\"outcome\":\"completed\","
        "\"host\":{\"build_ms\":1,\"warmup_ms\":250,\"measure_ms\":0.5,"
        "\"kips\":1234.5},\"attribution\":{\"width\":8},\"groups\":{}}";
    JobSpec statsSpec = plain;
    statsSpec.options.collect_stats_json = true;
    out.emplace_back("row.stats", resultJson(statsSpec, stats, false));
    out.emplace_back("row.stats.timing",
                     resultJson(statsSpec, stats, true));

    JobSpec maxSpec = plain;
    maxSpec.options = maxOptions();
    out.emplace_back("row.options.max", resultJson(maxSpec, ok, false));
    return out;
}

Cases
codecCases()
{
    Cases out;
    Campaign campaign;
    campaign.name = "golden \"campaign\"";
    campaign.seed = u64Max;
    campaign.jobs = {plainSpec(), faultSpec()};
    campaign.jobs[1].options = maxOptions();
    campaign.jobs[1].options.collect_stats_json = true;
    out.emplace_back("submit.timing", serve::submitJson(campaign, true));
    out.emplace_back("submit.notiming",
                     serve::submitJson(campaign, false));
    out.emplace_back("campaign.fingerprint",
                     fingerprintHex(campaignFingerprintU64(campaign.jobs)));
    out.emplace_back("key.plain",
                     fingerprintHex(resultKeyU64(campaign.jobs[0])));
    out.emplace_back("key.faults",
                     fingerprintHex(resultKeyU64(campaign.jobs[1])));
    out.emplace_back("options.fingerprint.max",
                     optionsFingerprint(maxOptions()));
    return out;
}

Cases
allCases()
{
    Cases out = optionCases();
    for (Cases more : {rowCases(), codecCases()})
        out.insert(out.end(), more.begin(), more.end());
    return out;
}

} // namespace

#ifdef RMT_GOLDEN_BYTES_PRINT

int
main()
{
    for (const auto &[name, bytes] : allCases())
        std::cout << name << '\t' << bytes << '\n';
    return 0;
}

#else

namespace
{

std::map<std::string, std::string>
loadGolden()
{
    std::map<std::string, std::string> golden;
    std::ifstream in(std::string(RMT_TEST_DATA_DIR) + "/golden_bytes.txt",
                     std::ios::binary);
    std::string line;
    while (std::getline(in, line)) {
        const auto tab = line.find('\t');
        if (tab != std::string::npos)
            golden.emplace(line.substr(0, tab), line.substr(tab + 1));
    }
    return golden;
}

} // namespace

TEST(GoldenBytes, EveryCaseMatchesTheRecordedBytes)
{
    const std::map<std::string, std::string> golden = loadGolden();
    ASSERT_FALSE(golden.empty()) << "tests/data/golden_bytes.txt missing";
    const Cases cases = allCases();
    EXPECT_EQ(cases.size(), golden.size());
    for (const auto &[name, bytes] : cases) {
        const auto it = golden.find(name);
        ASSERT_NE(it, golden.end()) << "no golden line for " << name;
        EXPECT_EQ(bytes, it->second) << name;
    }
}

TEST(GoldenBytes, FingerprintHashesTheCanonicalString)
{
    const SimOptions o = maxOptions();
    EXPECT_EQ(optionsFingerprintU64(o), fnv1a64(optionsCanonicalJson(o)));
}

#endif // RMT_GOLDEN_BYTES_PRINT
