/**
 * @file
 * The fault oracle's sparse golden image.  Each case checks that
 * GoldenImage::matches, which reads only the trial's touched pages,
 * agrees with a full-image memcmp — the compare it replaces.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "isa/program.hh"
#include "rmt/fault_oracle.hh"

using namespace rmt;

namespace
{

constexpr std::size_t pageBytes = DataMemory::pageBytes;
constexpr std::size_t imageBytes = 32 * pageBytes + 512;

/** A golden run's memory: a few non-zero pages, one zeroed again. */
std::unique_ptr<DataMemory>
goldenMemory()
{
    auto mem = std::make_unique<DataMemory>(imageBytes);
    mem->write(0 * pageBytes + 16, 8, 0x1111);
    mem->write(5 * pageBytes + 100, 4, 0x2222);
    mem->write(9 * pageBytes + 8, 8, 0x3333);
    mem->write(9 * pageBytes + 8, 8, 0);        // touched, zero again
    mem->write(32 * pageBytes + 500, 8, 0x4444);  // partial last page
    return mem;
}

/** A trial that replays the golden run's writes. */
std::unique_ptr<DataMemory>
replayedTrial()
{
    return goldenMemory();
}

bool
memcmpSame(const DataMemory &a, const DataMemory &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size()) == 0;
}

} // namespace

TEST(GoldenImage, StoresOnlyNonZeroPages)
{
    const auto golden = goldenMemory();
    const GoldenImage image(*golden);
    EXPECT_EQ(image.storedPages(), 3u);
}

TEST(GoldenImage, MaskedTrialMatches)
{
    const auto golden = goldenMemory();
    const GoldenImage image(*golden);
    const auto trial = replayedTrial();
    EXPECT_TRUE(memcmpSame(*golden, *trial));
    EXPECT_TRUE(image.matches(*trial));
}

TEST(GoldenImage, SdcInAGoldenPage)
{
    const auto golden = goldenMemory();
    const GoldenImage image(*golden);
    auto trial = replayedTrial();
    trial->write(5 * pageBytes + 101, 1, 0x7f);
    EXPECT_FALSE(memcmpSame(*golden, *trial));
    EXPECT_FALSE(image.matches(*trial));
}

TEST(GoldenImage, SdcInThePartialLastPage)
{
    const auto golden = goldenMemory();
    const GoldenImage image(*golden);
    auto trial = replayedTrial();
    trial->write(imageBytes - 1, 1, 0x01);
    EXPECT_FALSE(memcmpSame(*golden, *trial));
    EXPECT_FALSE(image.matches(*trial));
}

TEST(GoldenImage, SdcInAPageTheGoldenNeverTouched)
{
    const auto golden = goldenMemory();
    const GoldenImage image(*golden);
    auto trial = replayedTrial();
    trial->write(20 * pageBytes + 4, 2, 0x5);
    EXPECT_FALSE(memcmpSame(*golden, *trial));
    EXPECT_FALSE(image.matches(*trial));
}

TEST(GoldenImage, ZeroWrittenToAFreshPageIsNotCorruption)
{
    const auto golden = goldenMemory();
    const GoldenImage image(*golden);
    auto trial = replayedTrial();
    trial->write(20 * pageBytes + 4, 8, 0);
    EXPECT_TRUE(memcmpSame(*golden, *trial));
    EXPECT_TRUE(image.matches(*trial));
}

TEST(GoldenImage, GoldenPageTheTrialNeverWroteIsCorruption)
{
    const auto golden = goldenMemory();
    const GoldenImage image(*golden);
    DataMemory trial(imageBytes);
    trial.write(0 * pageBytes + 16, 8, 0x1111);
    trial.write(5 * pageBytes + 100, 4, 0x2222);   // page 32 missing
    EXPECT_FALSE(memcmpSame(*golden, trial));
    EXPECT_FALSE(image.matches(trial));
}

TEST(GoldenImage, SizeMismatchIsCorruption)
{
    const auto golden = goldenMemory();
    const GoldenImage image(*golden);
    DataMemory trial(imageBytes + pageBytes);
    EXPECT_FALSE(image.matches(trial));
}

TEST(GoldenImage, AgreesWithMemcmpOnRandomTrials)
{
    Random rng(0x601d);
    for (int trial_no = 0; trial_no < 300; ++trial_no) {
        DataMemory golden(imageBytes);
        DataMemory trial(imageBytes);
        // Both runs write the same values to a few pages; the trial
        // then takes a few extra writes of which some are zero and
        // some repeat a golden value.
        const int writes = static_cast<int>(rng.range(6));
        for (int i = 0; i < writes; ++i) {
            const Addr at = rng.range(imageBytes);
            const std::uint64_t v = rng.range(4);
            golden.write(at, 1, v);
            trial.write(at, 1, v);
        }
        const int extra = static_cast<int>(rng.range(3));
        for (int i = 0; i < extra; ++i) {
            const Addr at = rng.range(imageBytes);
            trial.write(at, 1, rng.range(2) ? golden.read(at, 1)
                                            : rng.range(3));
        }
        const GoldenImage image(golden);
        EXPECT_EQ(memcmpSame(golden, trial), image.matches(trial))
            << "trial " << trial_no;
    }
}
