#include "rmt/fault_oracle.hh"

#include <cstring>

namespace rmt
{

const char *
verdictName(FaultVerdict verdict)
{
    switch (verdict) {
      case FaultVerdict::Masked:   return "masked";
      case FaultVerdict::Detected: return "detected";
      case FaultVerdict::Sdc:      return "sdc";
      case FaultVerdict::Hang:     return "hang";
    }
    return "?";
}

GoldenImage::GoldenImage(const DataMemory &mem) : bytes(mem.size())
{
    mem.forEachTouchedPage([&](std::size_t p) {
        if (mem.pageIsZero(p))
            return;
        pages.push_back(p);
        contents.insert(contents.end(), mem.page(p),
                        mem.page(p) + mem.pageLen(p));
        contents.resize(pages.size() * DataMemory::pageBytes);
    });
}

bool
GoldenImage::matches(const DataMemory &mem) const
{
    if (mem.size() != bytes)
        return false;
    // Every golden page must be touched and equal; every other touched
    // page must still be zero.  Untouched pages read zero, so they
    // match a page the golden does not hold and are never read.
    std::size_t next = 0;   // first golden page not yet compared
    bool same = true;
    mem.forEachTouchedPage([&](std::size_t p) {
        if (!same)
            return;
        if (next < pages.size() && pages[next] < p) {
            same = false;   // a golden page the trial never touched
            return;
        }
        if (next < pages.size() && pages[next] == p) {
            same = std::memcmp(mem.page(p),
                               &contents[next * DataMemory::pageBytes],
                               mem.pageLen(p)) == 0;
            ++next;
        } else {
            same = mem.pageIsZero(p);
        }
    });
    return same && next == pages.size();
}

GoldenImage
FaultOracle::goldenImage(const std::vector<std::string> &workloads,
                         const SimOptions &options, unsigned logical)
{
    Simulation sim(workloads, options);
    sim.run();
    return GoldenImage(sim.memory(logical));
}

namespace
{

/** The pair the fault actually landed on (detection attribution). */
RedundantPair *
faultedPair(Simulation &sim, const FaultRecord &fault)
{
    RedundancyManager &rm = sim.chip().redundancy();
    if (RedundantPair *pair = rm.pairFor(fault.core, fault.tid))
        return pair;
    if (fault.kind == FaultRecord::Kind::TransientLvq &&
        fault.pairLogical < rm.numPairs()) {
        return &rm.pair(fault.pairLogical);
    }
    if (fault.kind == FaultRecord::Kind::PermanentFu) {
        // A stuck-at unit can hit any pair with a copy on that core;
        // attribute to the first one (single-pair campaigns: exact).
        for (std::size_t i = 0; i < rm.numPairs(); ++i) {
            const RedundantPairParams &p = rm.pair(i).params();
            if (p.leading.core == fault.core ||
                p.trailing.core == fault.core) {
                return &rm.pair(i);
            }
        }
    }
    return nullptr;
}

} // namespace

FaultTrialReport
FaultOracle::classify(Simulation &sim, const RunResult &result,
                      const FaultRecord &fault) const
{
    FaultTrialReport report;

    RedundantPair *pair = faultedPair(sim, fault);
    if (pair) {
        report.faulted_pair = static_cast<int>(pair->logical());
        report.detections = pair->detectionCount();
        // First detection at or after the activation cycle belongs to
        // this fault; earlier events would be another trial's residue.
        for (const DetectionEvent &ev : pair->detections()) {
            if (ev.cycle >= fault.when) {
                report.latency_valid = true;
                report.detection_latency = ev.cycle - fault.when;
                break;
            }
        }
    } else {
        report.detections = result.detections;
    }

    report.memory_corrupted = !golden.matches(sim.memory(logical));

    if (report.detections > 0)
        report.verdict = FaultVerdict::Detected;
    else if (result.outcome != Outcome::Completed)
        report.verdict = FaultVerdict::Hang;
    else if (report.memory_corrupted)
        report.verdict = FaultVerdict::Sdc;
    else
        report.verdict = FaultVerdict::Masked;
    return report;
}

} // namespace rmt
