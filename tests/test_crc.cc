/**
 * @file
 * crc32 (slicing-by-8) against the IEEE check value and a bytewise
 * reference, and the on-disk files it guards: a journal and a result
 * store written by the bytewise implementation must still replay.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/serializer.hh"
#include "common/random.hh"
#include "runner/journal.hh"
#include "runner/wire.hh"
#include "serve/result_store.hh"

using namespace rmt;

namespace
{

/** The textbook bit-at-a-time reflected CRC-32. */
std::uint32_t
referenceCrc32(const std::uint8_t *p, std::size_t n)
{
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xffffffffu;
}

std::vector<std::uint8_t>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Random rng(seed);
    std::vector<std::uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<std::uint8_t>(rng.next());
    return v;
}

/** The results the fixture files were written with. */
JobResult
fixtureResult(std::uint64_t id)
{
    JobResult r;
    r.id = id;
    r.label = "trial" + std::to_string(id);
    r.status = JobStatus::Ok;
    r.attempts = 1 + unsigned(id % 2);
    r.wall_seconds = 0.25 * double(id + 1);
    r.run.total_cycles = 1000 + id;
    r.run.completed = true;
    r.has_verdict = true;
    r.verdict = id % 2 ? FaultVerdict::Detected : FaultVerdict::Masked;
    r.detection_latency = id % 2 ? 12.5 : -1;
    return r;
}

const std::string fixtureDir = std::string(RMT_TEST_DATA_DIR) +
                               "/crc_bytewise";

} // namespace

TEST(Crc32, CheckValue)
{
    const std::string check = "123456789";
    EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBytewiseAtEveryLengthAndAlignment)
{
    const std::vector<std::uint8_t> buf = randomBytes(64 + 8, 0xc2c);
    for (std::size_t align = 0; align < 8; ++align) {
        for (std::size_t len = 0; len <= 64; ++len) {
            EXPECT_EQ(crc32(buf.data() + align, len),
                      referenceCrc32(buf.data() + align, len))
                << "align " << align << " len " << len;
        }
    }
}

TEST(Crc32, MatchesBytewiseOnALargeBuffer)
{
    const std::vector<std::uint8_t> buf =
        randomBytes(3 * 1024 * 1024 + 5, 0xb16);
    EXPECT_EQ(crc32(buf.data(), buf.size()),
              referenceCrc32(buf.data(), buf.size()));
}

TEST(Crc32, JournalFromTheBytewiseBuildReplays)
{
    const JournalReplay replay =
        replayJournal(fixtureDir + "/journal.rmtj", 0x5eedc0de);
    EXPECT_FALSE(replay.corrupt) << replay.note;
    EXPECT_FALSE(replay.torn_tail) << replay.note;
    ASSERT_EQ(replay.results.size(), 3u);
    for (std::uint64_t k = 1; k <= 3; ++k) {
        EXPECT_EQ(wire::encodeJobResult(replay.results.at(k)),
                  wire::encodeJobResult(fixtureResult(k)));
    }
}

TEST(Crc32, StoreFromTheBytewiseBuildReplays)
{
    // Opening a store may append to it, so work on a copy.
    const std::string dir =
        std::string(::testing::TempDir()) + "crc_bytewise_store";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::filesystem::copy_file(fixtureDir + "/store.rmtrs",
                               dir + "/store.rmtrs");
    {
        ResultStore store;
        store.open(dir);
        EXPECT_EQ(store.stats().disk_rows, 3u);
        for (std::uint64_t k = 1; k <= 3; ++k) {
            JobResult out;
            ASSERT_EQ(store.tryClaim(k, out), ResultStore::Claim::Hit);
            EXPECT_EQ(wire::encodeJobResult(out),
                      wire::encodeJobResult(fixtureResult(k)));
        }
    }
    std::filesystem::remove_all(dir);
}
