#include "mem/cache.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace rmt
{

Cache::Cache(const CacheParams &params)
    : blockBytes(params.block_bytes),
      assocWays(params.assoc),
      statGroup(params.name),
      statHits(statGroup, "hits", "demand hits"),
      statMisses(statGroup, "misses", "demand misses"),
      statFills(statGroup, "fills", "blocks installed"),
      statEvictions(statGroup, "evictions", "valid blocks evicted")
{
    if (!isPowerOf2(blockBytes))
        fatal("cache %s: block size %u not a power of two",
              params.name.c_str(), blockBytes);
    if (params.size_bytes % (blockBytes * assocWays) != 0)
        fatal("cache %s: size not divisible by way size",
              params.name.c_str());
    numSets = params.size_bytes / (blockBytes * assocWays);
    if (numSets == 0)
        fatal("cache %s: zero sets", params.name.c_str());
    blockShift = floorLog2(blockBytes);
    setMask = isPowerOf2(numSets) ? numSets - 1 : 0;
    lines.resize(numSets * assocWays);
}

std::size_t
Cache::setIndex(Addr addr) const
{
    // Set counts need not be powers of two (the paper's 3 MB 8-way L2
    // has 6144 sets), so the mask is only a fast path over modulo.
    const Addr blk = addr >> blockShift;
    return setMask ? (blk & setMask) : (blk % numSets);
}

Addr
Cache::tagOf(Addr addr) const
{
    return (addr >> blockShift) / numSets;
}

bool
Cache::access(Addr addr)
{
    const std::size_t base = setIndex(addr) * assocWays;
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < assocWays; ++w) {
        Line &line = lines[base + w];
        if (line.valid && line.tag == tag) {
            line.lru = ++stamp;
            ++statHits;
            return true;
        }
    }
    ++statMisses;
    return false;
}

bool
Cache::probe(Addr addr) const
{
    const std::size_t base = setIndex(addr) * assocWays;
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < assocWays; ++w) {
        const Line &line = lines[base + w];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

void
Cache::fill(Addr addr)
{
    const std::size_t base = setIndex(addr) * assocWays;
    const Addr tag = tagOf(addr);

    // Already present (e.g. two outstanding misses merged): refresh LRU.
    for (unsigned w = 0; w < assocWays; ++w) {
        Line &line = lines[base + w];
        if (line.valid && line.tag == tag) {
            line.lru = ++stamp;
            return;
        }
    }

    Line *victim = &lines[base];
    for (unsigned w = 0; w < assocWays; ++w) {
        Line &line = lines[base + w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lru < victim->lru)
            victim = &line;
    }
    if (victim->valid)
        ++statEvictions;
    victim->valid = true;
    victim->tag = tag;
    victim->lru = ++stamp;
    ++statFills;
}

void
Cache::invalidate(Addr addr)
{
    const std::size_t base = setIndex(addr) * assocWays;
    const Addr tag = tagOf(addr);
    for (unsigned w = 0; w < assocWays; ++w) {
        Line &line = lines[base + w];
        if (line.valid && line.tag == tag)
            line.valid = false;
    }
}

void
Cache::flushAll()
{
    for (auto &line : lines)
        line.valid = false;
}

void
Cache::saveState(Serializer &s) const
{
    // Only valid lines are stored: an invalid line's tag and LRU stamp
    // are dead state (lookups test valid first, and victim selection
    // takes the first invalid way by position), so a snapshot that
    // resets them to zero restores a behavior-identical cache at a
    // fraction of the full tag-array size.
    s.u64(lines.size());
    std::uint64_t valid = 0;
    for (const Line &line : lines)
        valid += line.valid ? 1 : 0;
    s.u64(valid);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (!lines[i].valid)
            continue;
        s.u64(i);
        s.u64(lines[i].tag);
        s.u64(lines[i].lru);
    }
    s.u64(stamp);
}

void
Cache::loadState(Deserializer &d)
{
    const std::uint64_t n = d.u64();
    if (n != lines.size())
        throw SnapshotError("cache: line-array size mismatch");
    for (Line &line : lines) {
        line.tag = 0;
        line.valid = false;
        line.lru = 0;
    }
    const std::uint64_t valid = d.u64();
    std::uint64_t lowest = 0;   // lines are saved in ascending order
    for (std::uint64_t i = 0; i < valid; ++i) {
        const std::uint64_t idx = d.u64();
        if (idx < lowest || idx >= lines.size())
            throw SnapshotError("cache: line index out of order or range");
        lowest = idx + 1;
        Line &line = lines[idx];
        line.valid = true;
        line.tag = d.u64();
        line.lru = d.u64();
    }
    stamp = d.u64();
}

} // namespace rmt
