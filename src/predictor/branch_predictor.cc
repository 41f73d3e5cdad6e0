#include "predictor/branch_predictor.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"

namespace rmt
{

BranchPredictor::BranchPredictor(const BranchPredictorParams &params)
    : gshare(params.gshare_entries, 1),
      bimodal(params.bimodal_entries, 1),
      chooser(params.chooser_entries, 2),
      histories(params.max_threads, 0),
      historyMask((std::uint64_t{1} << params.history_bits) - 1),
      statGroup("bpred"),
      statLookups(statGroup, "lookups", "conditional branches predicted"),
      statMispredicts(statGroup, "mispredicts",
                      "resolved direction mispredictions")
{
    if (!isPowerOf2(params.gshare_entries) ||
        !isPowerOf2(params.bimodal_entries) ||
        !isPowerOf2(params.chooser_entries)) {
        fatal("branch predictor table sizes must be powers of two");
    }
}

std::size_t
BranchPredictor::gshareIndex(ThreadId tid, Addr pc,
                             HistorySnapshot hist) const
{
    const std::uint64_t pc_bits = (pc >> 2) ^ (std::uint64_t{tid} << 13);
    return (pc_bits ^ hist) & (gshare.size() - 1);
}

std::size_t
BranchPredictor::bimodalIndex(ThreadId tid, Addr pc) const
{
    return ((pc >> 2) ^ (std::uint64_t{tid} << 11)) & (bimodal.size() - 1);
}

std::size_t
BranchPredictor::chooserIndex(ThreadId tid, Addr pc) const
{
    return ((pc >> 2) ^ (std::uint64_t{tid} << 9)) & (chooser.size() - 1);
}

bool
BranchPredictor::predict(ThreadId tid, Addr pc)
{
    ++statLookups;
    const HistorySnapshot hist = histories[tid];
    const bool g = taken(gshare[gshareIndex(tid, pc, hist)]);
    const bool b = taken(bimodal[bimodalIndex(tid, pc)]);
    const bool use_gshare = taken(chooser[chooserIndex(tid, pc)]);
    const bool pred = use_gshare ? g : b;
    histories[tid] = ((hist << 1) | (pred ? 1 : 0)) & historyMask;
    return pred;
}

void
BranchPredictor::update(ThreadId tid, Addr pc, bool taken_dir,
                        HistorySnapshot snap)
{
    auto &g = gshare[gshareIndex(tid, pc, snap)];
    auto &b = bimodal[bimodalIndex(tid, pc)];
    auto &c = chooser[chooserIndex(tid, pc)];

    const bool g_correct = taken(g) == taken_dir;
    const bool b_correct = taken(b) == taken_dir;
    if (g_correct != b_correct)
        train(c, g_correct);

    train(g, taken_dir);
    train(b, taken_dir);
}

void
BranchPredictor::saveState(Serializer &s) const
{
    for (const auto *table : {&gshare, &bimodal, &chooser}) {
        s.u32(static_cast<std::uint32_t>(table->size()));
        s.bytes(table->data(), table->size());
    }
    s.u32(static_cast<std::uint32_t>(histories.size()));
    for (const HistorySnapshot h : histories)
        s.u64(h);
}

void
BranchPredictor::loadState(Deserializer &d)
{
    auto counters = [&d](std::vector<std::uint8_t> &vec) {
        if (d.u32() != vec.size())
            throw SnapshotError("branch predictor: table size mismatch");
        const std::span<const std::uint8_t> in = d.bytes(vec.size());
        std::copy(in.begin(), in.end(), vec.begin());
    };
    counters(gshare);
    counters(bimodal);
    counters(chooser);
    if (d.u32() != histories.size())
        throw SnapshotError("branch predictor: history count mismatch");
    for (HistorySnapshot &h : histories)
        h = d.u64();
}

} // namespace rmt
