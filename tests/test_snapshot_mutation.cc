/**
 * @file
 * Deterministic mutation fuzzing of snapshot restore.
 *
 * Seeds are images the simulator saves at its own barriers.  Each
 * mutant is one of: bit flips anywhere, bit flips inside a non-memory
 * section (so the chip and stats parsers see them), a truncation, an
 * edit to a section's name or payload length, or an edit to the memory
 * section's page count, a page index or a page length.  Half of the
 * mutants then get every section CRC recomputed, so the parser behind
 * the CRC check is exercised as well as the check.
 *
 * Property: each mutant either
 *   - raises SnapshotError and leaves the simulation exactly as built
 *     (it saves the same image as a fresh one), or
 *   - restores, and then saves back byte for byte;
 * and no restore allocates more than the image size, beyond what
 * putting a rejected machine back as built costs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "ckpt/serializer.hh"
#include "common/random.hh"
#include "runner/runner.hh"
#include "sim/simulator.hh"

namespace
{

/** Bytes requested from operator new while counting is on. */
bool counting = false;
std::size_t allocated = 0;

} // namespace

// The replacements below pair malloc with free by design; GCC cannot
// see that operator new and delete are both replaced here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t n)
{
    if (counting)
        allocated += n;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

using namespace rmt;

namespace
{

/** Allocation count over one scope. */
struct CountAllocations
{
    CountAllocations() { allocated = 0; counting = true; }
    ~CountAllocations() { counting = false; }
    std::size_t bytes() const { return allocated; }
};

std::uint32_t
le32(const std::string &s, std::size_t at)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t{static_cast<std::uint8_t>(s[at + i])} << (8 * i);
    return v;
}

std::uint64_t
le64(const std::string &s, std::size_t at)
{
    return le32(s, at) | std::uint64_t{le32(s, at + 4)} << 32;
}

void
put32(std::string &s, std::size_t at, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        s[at + i] = static_cast<char>(v >> (8 * i));
}

void
put64(std::string &s, std::size_t at, std::uint64_t v)
{
    put32(s, at, static_cast<std::uint32_t>(v));
    put32(s, at + 4, static_cast<std::uint32_t>(v >> 32));
}

/** "" when @p a == @p b, else where they first differ. */
std::string
difference(const std::string &a, const std::string &b)
{
    if (a == b)
        return "";
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    return "sizes " + std::to_string(a.size()) + " and " +
           std::to_string(b.size()) + ", first difference at byte " +
           std::to_string(i);
}

/** Where the fields a mutation edits sit in a well-formed image. */
struct Layout
{
    struct Section
    {
        std::string name;
        std::size_t nameLenAt = 0;
        std::size_t payloadLenAt = 0;
        std::size_t payload = 0;
        std::size_t length = 0;
    };
    struct Page
    {
        std::size_t indexAt = 0;
        std::size_t lengthAt = 0;
    };
    std::vector<Section> sections;
    std::vector<std::size_t> pageCountAt;   ///< one per memory image
    std::vector<Page> pages;
};

Layout
parseLayout(const std::string &image)
{
    Layout l;
    const std::uint32_t count = le32(image, 20);
    std::size_t at = 24;
    for (std::uint32_t i = 0; i < count; ++i) {
        Layout::Section sec;
        sec.nameLenAt = at;
        const std::uint32_t name_len = le32(image, at);
        sec.name = image.substr(at + 4, name_len);
        sec.payloadLenAt = at + 4 + name_len;
        sec.length = static_cast<std::size_t>(le64(image, sec.payloadLenAt));
        sec.payload = sec.payloadLenAt + 8;
        at = sec.payload + sec.length + 4;
        l.sections.push_back(sec);
    }
    for (const Layout::Section &sec : l.sections) {
        if (sec.name != "memory")
            continue;
        // u32 images, then per image: u64 size, u32 page size,
        // u32 page count, (u32 index, u64 length, bytes) per page;
        // the same again for the Base2 copy images.
        std::size_t p = sec.payload;
        for (int group = 0; group < 2; ++group) {
            const std::uint32_t images = le32(image, p);
            p += 4;
            for (std::uint32_t m = 0; m < images; ++m) {
                p += 8 + 4;
                l.pageCountAt.push_back(p);
                const std::uint32_t stored = le32(image, p);
                p += 4;
                for (std::uint32_t k = 0; k < stored; ++k) {
                    l.pages.push_back({p, p + 4});
                    p += 4 + 8 + le64(image, p + 4);
                }
            }
        }
    }
    return l;
}

/** Rewrite every section CRC whose frame still fits in the image. */
void
recomputeCrcs(std::string &image)
{
    if (image.size() < 24)
        return;
    const std::uint32_t count = le32(image, 20);
    std::size_t at = 24;
    for (std::uint32_t i = 0; i < count; ++i) {
        if (image.size() - at < 4)
            return;
        const std::uint32_t name_len = le32(image, at);
        if (image.size() - at - 4 < name_len + std::size_t{8})
            return;
        at += 4 + name_len;
        const std::uint64_t len = le64(image, at);
        at += 8;
        if (len > image.size() - at || image.size() - at - len < 4)
            return;
        put32(image, at + len, crc32(image.data() + at, len));
        at += len + 4;
    }
}

/** A small signed or wild replacement for a length or count field. */
std::uint64_t
editedValue(Random &rng, std::uint64_t old)
{
    switch (rng.range(4)) {
      case 0:  return old + 1 + rng.range(4);
      case 1:  return old - 1 - rng.range(4);
      case 2:  return rng.next() & 0xffffffffu;
      default: return rng.next();
    }
}

std::string
mutate(const std::string &seed, const Layout &l, Random &rng,
       std::string &what)
{
    std::string m = seed;
    const std::uint64_t kind = rng.range(8);
    static const char *const kinds[] = {
        "bit flips", "payload bit flip", "payload bit flip", "truncation",
        "section length", "page count", "page index", "page length"};
    what = kinds[kind];
    switch (kind) {
      case 0: {     // bit flips anywhere
        const int flips = 1 + static_cast<int>(rng.range(3));
        for (int i = 0; i < flips; ++i)
            m[rng.range(m.size())] ^= static_cast<char>(1u << rng.range(8));
        break;
      }
      case 1:       // bit flips in the meta, chip or stats payload
      case 2: {
        const Layout::Section *sec;
        do {
            sec = &l.sections[rng.range(l.sections.size())];
        } while (sec->name == "memory" || sec->length == 0);
        m[sec->payload + rng.range(sec->length)] ^=
            static_cast<char>(1u << rng.range(8));
        break;
      }
      case 3:       // truncation
        m.resize(rng.range(m.size()));
        break;
      case 4: {     // a section's name or payload length
        const Layout::Section &sec = l.sections[rng.range(l.sections.size())];
        if (rng.chance(0.3)) {
            put32(m, sec.nameLenAt, static_cast<std::uint32_t>(editedValue(
                                        rng, le32(m, sec.nameLenAt))));
        } else {
            put64(m, sec.payloadLenAt,
                  editedValue(rng, le64(m, sec.payloadLenAt)));
        }
        break;
      }
      case 5: {     // a memory image's page count
        const std::size_t at = l.pageCountAt[rng.range(l.pageCountAt.size())];
        put32(m, at, static_cast<std::uint32_t>(
                         editedValue(rng, le32(m, at))));
        break;
      }
      case 6: {     // a page index: a neighbour, a repeat, or wild
        const std::size_t k = rng.range(l.pages.size());
        const std::uint32_t idx = le32(m, l.pages[k].indexAt);
        std::uint32_t v;
        switch (rng.range(3)) {
          case 0:
            v = k ? le32(m, l.pages[k - 1].indexAt) : idx + 1;
            break;
          case 1:
            v = static_cast<std::uint32_t>(editedValue(rng, idx) & 0xffff);
            break;
          default:
            v = static_cast<std::uint32_t>(editedValue(rng, idx));
            break;
        }
        put32(m, l.pages[k].indexAt, v);
        break;
      }
      default: {    // a page's blob length
        const std::size_t at = l.pages[rng.range(l.pages.size())].lengthAt;
        put64(m, at, editedValue(rng, le64(m, at)));
        break;
      }
    }
    if (rng.chance(0.5)) {
        recomputeCrcs(m);
        what += ", CRCs recomputed";
    }
    return m;
}

struct Seed
{
    SimMode mode;
    std::vector<std::string> workloads;
    unsigned barrier;       ///< which barrier's image to take (0-based)
};

SimOptions
seedOptions(SimMode mode)
{
    SimOptions o;
    o.mode = mode;
    o.warmup_insts = 500;
    o.measure_insts = 4000;
    o.snapshot_every = 1500;
    return o;
}

std::string
barrierImage(const Seed &seed)
{
    std::string image;
    unsigned seen = 0;
    Simulation sim(seed.workloads, seedOptions(seed.mode));
    sim.setSnapshotHook([&](Cycle, Simulation &s) {
        if (seen++ == seed.barrier)
            image = s.saveSnapshotBuffer();
    });
    sim.run();
    return image;
}

} // namespace

TEST(SnapshotMutation, EveryMutantRestoresExactlyOrLeavesTheMachineAsBuilt)
{
    const Seed seeds[] = {
        {SimMode::Srt, {"gcc"}, 0},
        {SimMode::Base2, {"compress"}, 1},
        {SimMode::Crt, {"gcc", "swim"}, 0},
    };
    constexpr int mutantsPerSeed = 160;

    for (const Seed &seed : seeds) {
        const SimOptions o = seedOptions(seed.mode);
        const std::string image = barrierImage(seed);
        ASSERT_FALSE(image.empty());
        const Layout layout = parseLayout(image);
        ASSERT_FALSE(layout.pages.empty());

        // What a rejected restore costs to undo: build a machine, save
        // its image and apply it.
        std::string built;
        std::size_t undo_bytes = 0;
        {
            Simulation target(seed.workloads, o);
            CountAllocations count;
            built = Simulation(seed.workloads, o).saveSnapshotBuffer();
            target.restoreSnapshotBuffer(built);
            undo_bytes = count.bytes();
        }

        Random rng(0x5eed0000u + static_cast<unsigned>(seed.mode));
        int restored = 0, rejected = 0;
        for (int i = 0; i < mutantsPerSeed; ++i) {
            std::string what;
            const std::string mutant = mutate(image, layout, rng, what);
            Simulation sim(seed.workloads, o);
            bool ok = true;
            std::size_t bytes = 0;
            {
                CountAllocations count;
                try {
                    sim.restoreSnapshotBuffer(mutant);
                } catch (const SnapshotError &) {
                    ok = false;
                }
                bytes = count.bytes();
            }
            if (ok) {
                ++restored;
                EXPECT_LE(bytes, mutant.size()) << "mutant " << i;
                EXPECT_EQ(difference(sim.saveSnapshotBuffer(), mutant), "")
                    << "mutant " << i << " (" << what
                    << ") restored but saves differently";
            } else {
                ++rejected;
                EXPECT_LE(bytes, mutant.size() + undo_bytes)
                    << "mutant " << i;
                EXPECT_EQ(sim.restoredCycle(), 0u) << "mutant " << i;
                EXPECT_EQ(difference(sim.saveSnapshotBuffer(), built), "")
                    << "mutant " << i << " (" << what
                    << ") left the machine changed";
            }
        }
        // The mix must exercise both outcomes.
        EXPECT_GT(restored, 0);
        EXPECT_GT(rejected, 0);
    }
}

TEST(SnapshotMutation, RejectedMachineStillRestoresTheSeed)
{
    const Seed seed{SimMode::Srt, {"gcc"}, 0};
    const SimOptions o = seedOptions(seed.mode);
    const std::string image = barrierImage(seed);
    const Layout layout = parseLayout(image);

    // A CRC-valid image whose memory section fails part-way through,
    // after the chip section has been applied.
    std::string bad = image;
    put32(bad, layout.pages.back().indexAt,
          le32(bad, layout.pages.front().indexAt));
    recomputeCrcs(bad);

    Simulation sim(seed.workloads, o);
    EXPECT_THROW(sim.restoreSnapshotBuffer(bad), SnapshotError);
    sim.restoreSnapshotBuffer(image);
    EXPECT_EQ(difference(sim.saveSnapshotBuffer(), image), "");

    Simulation straight(seed.workloads, o);
    straight.restoreSnapshotBuffer(image);
    JobSpec spec;
    spec.workloads = seed.workloads;
    spec.options = o;
    JobResult a, b;
    a.status = b.status = JobStatus::Ok;
    a.run = sim.run();
    b.run = straight.run();
    EXPECT_EQ(resultJson(spec, a, /*include_timing=*/false),
              resultJson(spec, b, /*include_timing=*/false));
}
