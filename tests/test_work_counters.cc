/**
 * @file
 * Deterministic scheduler work counters (SmtCpu::workCounters()).
 *
 * Host time is noisy; the work the scheduler does per committed
 * instruction is not.  Select examines only entries whose inputs are
 * ready, so its probes are the instructions it issues (wrong-path ones
 * included) plus the few it must pass over for want of a unit or a
 * half.  At this budget that is 1.2-3.0 per committed instruction; a
 * select that rescans the whole IQ every cycle made 32-93 operand
 * probes per committed instruction on the same runs.  Branch-bound go
 * issues about three instructions per one it commits in the base
 * modes, which sets the floor here.  The counters live outside the
 * stats tree, so none of this reaches stats JSON, snapshots or
 * campaign rows.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulator.hh"

using namespace rmt;

namespace
{

WorkCounters
runCounters(SimMode mode, const std::string &workload,
            std::uint64_t &committed)
{
    SimOptions o;
    o.mode = mode;
    o.warmup_insts = 2000;
    o.measure_insts = 30000;
    Simulation sim({workload}, o);
    const RunResult r = sim.run();
    EXPECT_TRUE(r.completed);
    WorkCounters sum;
    committed = 0;
    for (unsigned c = 0; c < sim.chip().numCores(); ++c) {
        const SmtCpu &cpu = sim.chip().cpu(c);
        const WorkCounters &w = cpu.workCounters();
        sum.selectProbes += w.selectProbes;
        sum.wakeups += w.wakeups;
        sum.eventsScheduled += w.eventsScheduled;
        sum.eventsOverflowed += w.eventsOverflowed;
        committed += cpu.committedAll();
    }
    return sum;
}

} // namespace

TEST(WorkCounters, SelectProbesPerCommittedInstructionAtMostThree)
{
    const SimMode modes[] = {SimMode::Base, SimMode::Base2, SimMode::Srt,
                             SimMode::Lockstep, SimMode::Crt};
    for (const SimMode mode : modes) {
        for (const char *workload : {"gcc", "go"}) {
            std::uint64_t committed = 0;
            const WorkCounters w = runCounters(mode, workload, committed);
            ASSERT_GT(committed, 0u);
            const double probes =
                static_cast<double>(w.selectProbes) / committed;
            EXPECT_LE(probes, 3.0) << modeName(mode) << " " << workload;
            // Every pipeline event was counted, and far ones overflowed.
            EXPECT_GT(w.eventsScheduled, committed);
            EXPECT_LE(w.eventsOverflowed, w.eventsScheduled);
            EXPECT_GT(w.wakeups, 0u);
        }
    }
}

TEST(WorkCounters, AreDeterministic)
{
    std::uint64_t c1 = 0, c2 = 0;
    const WorkCounters a = runCounters(SimMode::Srt, "gcc", c1);
    const WorkCounters b = runCounters(SimMode::Srt, "gcc", c2);
    EXPECT_EQ(c1, c2);
    EXPECT_EQ(a.selectProbes, b.selectProbes);
    EXPECT_EQ(a.wakeups, b.wakeups);
    EXPECT_EQ(a.eventsScheduled, b.eventsScheduled);
    EXPECT_EQ(a.eventsOverflowed, b.eventsOverflowed);
}
