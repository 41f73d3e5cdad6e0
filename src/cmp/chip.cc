#include "cmp/chip.hh"

#include "common/logging.hh"
#include "obs/timeline.hh"

namespace rmt
{

Chip::Chip(const ChipParams &params)
    : _params(params), mem(params.mem), dev(params.device)
{
    if (params.num_cores == 0 || params.num_cores > 2)
        fatal("Chip supports one or two cores");
    for (unsigned c = 0; c < params.num_cores; ++c) {
        SmtParams cpu_params = params.cpu;
        cpu_params.name = "cpu" + std::to_string(c);
        cores.push_back(std::make_unique<SmtCpu>(
            cpu_params, mem, static_cast<CoreId>(c)));
        cores.back()->setDevice(&dev);
    }
}

void
Chip::setFaultInjector(FaultInjector *injector)
{
    for (auto &core : cores)
        core->setFaultInjector(injector);
}

void
Chip::forEachStatGroup(
    const std::function<void(const std::string &, StatGroup &)> &fn)
{
    for (std::size_t c = 0; c < cores.size(); ++c) {
        const std::string prefix = "core" + std::to_string(c);
        cores[c]->forEachStatGroup(
            [&](const std::string &sub, StatGroup &group) {
                fn(sub.empty() ? prefix : prefix + "/" + sub, group);
            });
    }
    fn("mem/l2", mem.l2().stats());
    fn("mem/main", mem.mainMemory().stats());
    fn("device", dev.stats());
    for (std::size_t i = 0; i < rmgr.numPairs(); ++i) {
        RedundantPair &pair = rmgr.pair(i);
        const std::string prefix = "pair" + std::to_string(i);
        fn(prefix, pair.stats());
        fn(prefix + "/lvq", pair.lvq.stats());
        fn(prefix + "/lpq", pair.lpq.stats());
        fn(prefix + "/cmp", pair.comparator.stats());
        if (pair.recovery)
            fn(prefix + "/recovery", pair.recovery->stats());
    }
}

void
Chip::tick()
{
    for (auto &core : cores)
        core->tick();

    // Fault recovery (if configured on a pair): flush both redundant
    // threads, roll memory back to the active checkpoint, restart.
    // Cheapest tests first: most runs have no recovery configured and
    // no fault pending, so the common path is two pointer checks.
    for (std::size_t i = 0; i < rmgr.numPairs(); ++i) {
        RedundantPair &pair = rmgr.pair(i);
        if (!pair.recovery || !pair.memory || !pair.faultDetected())
            continue;
        if (!pair.recovery->canRecover())
            continue;   // exhausted: detect-only from here on
        const auto &p = pair.params();
        const RecoveryCheckpoint ckpt = pair.recovery->active();
        const std::uint64_t committed_now =
            cpu(p.leading.core).committed(p.leading.tid);
        pair.recovery->rollback(*pair.memory, committed_now);
        cpu(p.leading.core).recoverThread(p.leading.tid, ckpt);
        cpu(p.trailing.core).recoverThread(p.trailing.tid, ckpt);
        pair.resetForRecovery(ckpt);
    }

    if (probe)
        probe->tick(*this, cycle());
}

Cycle
Chip::run(Cycle max_cycles)
{
    Cycle n = 0;
    while (n < max_cycles && !allDone()) {
        tick();
        ++n;
    }
    // Drain: forwarded outputs (store verifications, uncached device
    // writes) may still be in flight when the last thread finishes.
    if (allDone()) {
        for (Cycle d = 0; d < drainCycles && n < max_cycles; ++d, ++n)
            tick();
    }
    return n;
}

void
Chip::setDraining(bool d)
{
    for (auto &core : cores)
        core->setDraining(d);
}

bool
Chip::quiescedForSnapshot() const
{
    for (const auto &core : cores) {
        if (!core->drainedForSnapshot())
            return false;
    }
    for (std::size_t i = 0; i < rmgr.numPairs(); ++i) {
        if (!rmgr.pair(i).drainedForSnapshot())
            return false;
    }
    return true;
}

void
Chip::saveState(Serializer &s) const
{
    s.u32(static_cast<std::uint32_t>(cores.size()));
    for (const auto &core : cores)
        core->saveState(s);

    mem.l2().saveState(s);
    mem.mainMemory().saveState(s);
    // Pending L1 fills (MSHR entries; fills install lazily, so these
    // can be non-empty at a quiesce point).  Fixed walk order: per core,
    // I-cache then D-cache.
    for (const auto &core : cores) {
        for (Cache *l1 : {&core->icache(), &core->dcache()}) {
            const auto fills = mem.exportPending(l1);
            s.u32(static_cast<std::uint32_t>(fills.size()));
            for (const auto &[block, ready] : fills) {
                s.u64(block);
                s.u64(ready);
            }
        }
    }

    dev.saveState(s);

    s.u32(static_cast<std::uint32_t>(rmgr.numPairs()));
    for (std::size_t i = 0; i < rmgr.numPairs(); ++i)
        rmgr.pair(i).saveState(s);
}

void
Chip::loadState(Deserializer &d)
{
    if (d.u32() != cores.size())
        throw SnapshotError("chip: core count mismatch");
    for (auto &core : cores) {
        core->loadState(d);
        if (core->cycle() != cycle())
            throw SnapshotError("chip: cores disagree on the cycle");
    }

    mem.l2().loadState(d);
    mem.mainMemory().loadState(d);
    for (auto &core : cores) {
        for (Cache *l1 : {&core->icache(), &core->dcache()}) {
            const std::uint32_t n = d.u32();
            std::vector<std::pair<Addr, Cycle>> fills;
            for (std::uint32_t i = 0; i < n; ++i) {
                const Addr block = d.u64();
                const Cycle ready = d.u64();
                // Saved sorted, one fill per block.
                if (!fills.empty() && block <= fills.back().first)
                    throw SnapshotError("chip: pending fills out of order");
                fills.emplace_back(block, ready);
            }
            mem.importPending(l1, fills);
        }
    }

    dev.loadState(d);

    if (d.u32() != rmgr.numPairs())
        throw SnapshotError("chip: pair count mismatch");
    for (std::size_t i = 0; i < rmgr.numPairs(); ++i)
        rmgr.pair(i).loadState(d);
}

bool
Chip::allDone() const
{
    for (const auto &core : cores) {
        if (!core->allThreadsDone())
            return false;
    }
    return true;
}

} // namespace rmt
