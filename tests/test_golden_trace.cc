/**
 * @file
 * Golden-trace pin: the simulator's cycle-level behaviour is frozen to
 * recorded FNV-1a-64 constants.
 *
 * test_determinism compares two runs of one binary, so it cannot see a
 * change that shifts timing the same way in both runs.  This suite
 * hashes everything a timing change would move:
 *
 *  - the full commit trace (SmtCpu::setCommitTrace with no line cap):
 *    every retired instruction's fetch, dispatch, issue, complete and
 *    retire cycles, pc, disassembly, and result;
 *  - the stats JSON document with its wall-clock "host" block removed.
 *
 * Cases cover all five modes on go, compress, gcc, swim and gcc+swim,
 * SRT and CRT register strikes under checkpoint recovery, a replicated
 * interrupt, and a snapshot save -> restore -> finish.  Any change that
 * is meant to be timing-neutral (scheduler data structures, event
 * queues, allocators) must leave every constant below untouched.  A
 * change that alters simulated behaviour on purpose re-records them
 * and says so.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cmp/chip.hh"
#include "common/fingerprint.hh"
#include "obs/stats_json.hh"
#include "sim/simulator.hh"

using namespace rmt;

namespace
{

/** Drop the one wall-clock member of a stats document. */
std::string
stripHost(std::string stats)
{
    const auto pos = stats.find(",\"host\":{");
    if (pos == std::string::npos)
        return stats;
    const auto end = stats.find('}', pos);
    if (end == std::string::npos)
        return stats;
    stats.erase(pos, end - pos + 1);
    return stats;
}

SimOptions
smallOptions(SimMode mode)
{
    SimOptions o;
    o.mode = mode;
    o.warmup_insts = 500;
    o.measure_insts = 3000;
    return o;
}

/** Route every core's commit trace into @p os, unbounded. */
void
traceAllCores(Chip &chip, std::ostream &os)
{
    for (unsigned c = 0; c < chip.numCores(); ++c)
        chip.cpu(c).setCommitTrace(&os, 0);
}

/** Hash of a finished run: its commit trace, then its stats minus host. */
std::uint64_t
runHash(const std::string &trace, const std::string &stats)
{
    return fnv1a64(stripHost(stats), fnv1a64(trace));
}

std::uint64_t
simulate(const std::vector<std::string> &workloads, const SimOptions &o)
{
    Simulation sim(workloads, o);
    std::ostringstream trace;
    traceAllCores(sim.chip(), trace);
    const RunResult r = sim.run();
    EXPECT_TRUE(r.completed);
    return runHash(trace.str(), sim.statsJson(r));
}

std::string
hex(std::uint64_t v)
{
    return "0x" + fingerprintHex(v);
}

struct ModeCase
{
    SimMode mode;
    const char *workloads;      ///< '+'-separated
    std::uint64_t expect;
};

std::vector<std::string>
splitWorkloads(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char ch : s) {
        if (ch == '+') {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(ch);
        }
    }
    out.push_back(cur);
    return out;
}

// Recorded on the unmodified core; see the file comment before editing.
const ModeCase modeCases[] = {
    {SimMode::Base, "go", 0xc1b1a2de7b223b17ull},
    {SimMode::Base, "compress", 0x6c4a31d3d399e93full},
    {SimMode::Base, "gcc", 0x710240552c129a5dull},
    {SimMode::Base, "swim", 0xb4978093cff9bb78ull},
    {SimMode::Base, "gcc+swim", 0x38e2d598a5acdb30ull},
    {SimMode::Base2, "go", 0x19d00e6dc4e3de9aull},
    {SimMode::Base2, "compress", 0x50444cec9bb62f31ull},
    {SimMode::Base2, "gcc", 0xc929c063c12cacfbull},
    {SimMode::Base2, "swim", 0xd4c907feae4f671full},
    {SimMode::Base2, "gcc+swim", 0x567b02d20e79588bull},
    {SimMode::Srt, "go", 0x0ac634872634b851ull},
    {SimMode::Srt, "compress", 0xc69ceecc4af14fe2ull},
    {SimMode::Srt, "gcc", 0x79e798fa4dd5e0a1ull},
    {SimMode::Srt, "swim", 0xef04bed10670210dull},
    {SimMode::Srt, "gcc+swim", 0xddfc945c7ecdf3a8ull},
    {SimMode::Lockstep, "go", 0x4e18430342df1f45ull},
    {SimMode::Lockstep, "compress", 0x18c19089ca99d562ull},
    {SimMode::Lockstep, "gcc", 0x2255120d8616a6d0ull},
    {SimMode::Lockstep, "swim", 0x7a12bf9708702232ull},
    {SimMode::Lockstep, "gcc+swim", 0xd596c500ce67143aull},
    {SimMode::Crt, "go", 0x50fef95c5e10b6f2ull},
    {SimMode::Crt, "compress", 0x815c70500c4f22f9ull},
    {SimMode::Crt, "gcc", 0xe75331fea0f26baaull},
    {SimMode::Crt, "swim", 0xa4d6d4244a2be65bull},
    {SimMode::Crt, "gcc+swim", 0x1d4eb3951a41d011ull},
};

constexpr std::uint64_t srtRecoveryHash = 0x702e9d49c4efeb89ull;
constexpr std::uint64_t crtRecoveryHash = 0x6be810eb7033c6d4ull;
constexpr std::uint64_t interruptHash = 0xdc6f1af69a675230ull;
constexpr std::uint64_t snapshotRestoreHash = 0x24aeb2d37264e01full;

/** A register strike on the leading copy, repaired by rollback. */
std::uint64_t
recoveryRun(SimMode mode)
{
    SimOptions o = smallOptions(mode);
    o.recovery = true;
    Simulation sim({"compress"}, o);
    FaultRecord f;
    f.kind = FaultRecord::Kind::TransientReg;
    f.when = 1500;
    f.core = 0;
    f.tid = 0;
    f.reg = intReg(3);
    f.bit = 5;
    sim.faultInjector().schedule(f);
    std::ostringstream trace;
    traceAllCores(sim.chip(), trace);
    const RunResult r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_GE(r.recoveries, 1u) << "the strike must exercise recovery";
    return runHash(trace.str(), sim.statsJson(r));
}

} // namespace

TEST(GoldenTrace, EveryModeAndKernelMatchesRecordedHash)
{
    for (const ModeCase &c : modeCases) {
        const std::uint64_t got =
            simulate(splitWorkloads(c.workloads), smallOptions(c.mode));
        EXPECT_EQ(hex(got), hex(c.expect))
            << modeName(c.mode) << " " << c.workloads;
    }
}

TEST(GoldenTrace, SrtRegisterStrikeUnderRecovery)
{
    EXPECT_EQ(hex(recoveryRun(SimMode::Srt)), hex(srtRecoveryHash));
}

TEST(GoldenTrace, CrtRegisterStrikeUnderRecovery)
{
    EXPECT_EQ(hex(recoveryRun(SimMode::Crt)), hex(crtRecoveryHash));
}

TEST(GoldenTrace, ReplicatedInterruptUnderSrt)
{
    // A counting loop whose handler bumps a memory counter and irets;
    // two interrupts reach both redundant copies at one boundary.
    constexpr RegIndex r1 = intReg(1);
    constexpr RegIndex r2 = intReg(2);
    constexpr RegIndex r3 = intReg(3);
    constexpr RegIndex r4 = intReg(4);
    ProgramBuilder b("intr");
    b.li(r1, 1500);
    b.li(r2, 0);
    b.label("loop");
    b.add(r2, r2, r1);
    b.addi(r1, r1, -1);
    b.bne(r1, intReg(0), "loop");
    b.li(r3, 0x2000);
    b.stq(r2, r3, 0);
    b.halt();
    const Addr handler = b.here();
    b.li(r4, 0x3000);
    b.ldq(r3, r4, 0);
    b.addi(r3, r3, 1);
    b.stq(r3, r4, 0);
    b.iret();
    const Program program = b.build();

    ChipParams cp;
    cp.num_cores = 1;
    cp.cpu.num_threads = 2;
    Chip chip(cp);
    DataMemory mem(64 * 1024);
    RedundantPairParams pp;
    pp.leading = HwThread{0, 0};
    pp.trailing = HwThread{0, 1};
    RedundantPair &pair = chip.redundancy().addPair(pp);
    chip.cpu(0).addThread(0, program, mem, 0, Role::Leading, &pair);
    chip.cpu(0).addThread(1, program, mem, 0, Role::Trailing, &pair);
    chip.cpu(0).scheduleInterrupt(0, 700, handler);
    chip.cpu(0).scheduleInterrupt(0, 1900, handler);
    std::ostringstream trace;
    traceAllCores(chip, trace);
    chip.run(500000);
    ASSERT_TRUE(chip.allDone());
    EXPECT_EQ(mem.read(0x3000, 8), 2u);
    EXPECT_EQ(hex(runHash(trace.str(), chipStatsJson(chip))),
              hex(interruptHash));
}

TEST(GoldenTrace, SnapshotSaveRestoreFinish)
{
    SimOptions o = smallOptions(SimMode::Srt);
    o.snapshot_every = 1500;
    const std::vector<std::string> workloads = {"gcc"};

    std::string image;
    {
        Simulation saver(workloads, o);
        saver.setSnapshotHook([&image](Cycle, Simulation &s) {
            if (image.empty())
                image = s.saveSnapshotBuffer();
        });
        saver.run();
    }
    ASSERT_FALSE(image.empty());

    Simulation restored(workloads, o);
    restored.restoreSnapshotBuffer(image);
    std::ostringstream trace;
    traceAllCores(restored.chip(), trace);
    const RunResult r = restored.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(hex(runHash(trace.str(), restored.statsJson(r))),
              hex(snapshotRestoreHash));
}
