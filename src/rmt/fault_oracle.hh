/**
 * @file
 * Outcome classification for fault-injection trials.
 *
 * Every trial ends in exactly one verdict of the standard taxonomy
 * (Khoshavi et al.): Masked (the strike never reached an output),
 * Detected (the sphere's comparators flagged it), Sdc (silent data
 * corruption: the final memory image differs from a golden fault-free
 * run with nothing detected), or Hang (the run never finished and
 * nothing was detected).  Detection latency is attributed to the pair
 * that actually hosts the faulted thread — not pair 0 — and to the
 * first detection at or after the fault's activation cycle.
 */

#ifndef RMTSIM_RMT_FAULT_ORACLE_HH
#define RMTSIM_RMT_FAULT_ORACLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "rmt/fault_injector.hh"
#include "sim/simulator.hh"

namespace rmt
{

enum class FaultVerdict : std::uint8_t
{
    Masked,
    Detected,
    Sdc,
    Hang,
};

/** Printable name of a verdict ("masked", "detected", "sdc", "hang"). */
const char *verdictName(FaultVerdict verdict);

/** Everything the oracle can say about one finished trial. */
struct FaultTrialReport
{
    FaultVerdict verdict = FaultVerdict::Masked;
    bool memory_corrupted = false;
    std::uint64_t detections = 0;       ///< on the faulted pair
    bool latency_valid = false;
    Cycle detection_latency = 0;        ///< activation -> first detection
    int faulted_pair = -1;              ///< -1 when no pair applies
};

/**
 * A final memory image kept sparsely: only its non-zero pages, in
 * ascending page order.  Comparing it against a DataMemory reads only
 * the pages that memory has touched, because an untouched page reads
 * zero.
 */
class GoldenImage
{
  public:
    /** Copy the non-zero pages of @p mem. */
    explicit GoldenImage(const DataMemory &mem);

    /** True iff @p mem holds exactly this image, byte for byte. */
    bool matches(const DataMemory &mem) const;

    /** Number of non-zero pages held. */
    std::size_t storedPages() const { return pages.size(); }

  private:
    std::size_t bytes = 0;              ///< image size, zero pages included
    std::vector<std::size_t> pages;     ///< ascending page indices
    std::vector<std::uint8_t> contents; ///< pageBytes per stored page
};

class FaultOracle
{
  public:
    /**
     * Final memory image of logical thread @p logical after a
     * fault-free run of @p workloads under @p options — the reference
     * every faulted trial's memory is compared against.
     */
    static GoldenImage
    goldenImage(const std::vector<std::string> &workloads,
                const SimOptions &options, unsigned logical = 0);

    explicit FaultOracle(GoldenImage golden, unsigned logical = 0)
        : golden(std::move(golden)), logical(logical)
    {
    }

    /**
     * Classify a finished trial.  Call while the trial's Simulation is
     * still alive (the oracle reads its memory image and the faulted
     * pair's detection log).
     */
    FaultTrialReport classify(Simulation &sim, const RunResult &result,
                              const FaultRecord &fault) const;

  private:
    GoldenImage golden;
    unsigned logical;
};

} // namespace rmt

#endif // RMTSIM_RMT_FAULT_ORACLE_HH
