/**
 * @file
 * Serve wire protocol (src/serve/protocol.*):
 *
 *  - the campaign codec round-trips: submitJson -> parseSubmit yields
 *    a campaign with the same fingerprint, job fields, fault records
 *    and timing flag — and canonical options survive exactly (the
 *    daemon-side drift check would throw otherwise);
 *  - framed socket I/O over a socketpair: multiple frames in one
 *    stream, clean EOF, and the three corruption signatures — garbage
 *    bytes, an oversized length, and a connection cut mid-frame — all
 *    surface as wire::WireError, never as silent short reads;
 *  - reads are EINTR-safe: a stream of signals delivered to a blocked
 *    reader (no SA_RESTART) does not tear a frame;
 *  - the drift check rejects every options object that does not
 *    round-trip (extra, missing, reordered or duplicate members, -0,
 *    exponent-rendered integers, booleans), with its message, even when
 *    an identical-looking valid object came earlier in the submit;
 *  - wire::FrameDecoder yields frames in order from one large buffer
 *    or from single bytes, and keeps truncated() and its errors.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include "runner/journal.hh"
#include "serve/protocol.hh"

using namespace rmt;
using namespace rmt::serve;

namespace
{

Campaign
faultyCampaign()
{
    CampaignBuilder b("proto", 11);
    SimOptions o;
    o.warmup_insts = 250;
    o.measure_insts = 2000;
    o.slack_fetch = 32;
    o.collect_stats_json = true;
    b.base(o)
        .modes({SimMode::Srt, SimMode::Crt})
        .workloads({"gcc", "compress"})
        .transientRegTrials(2, 15);
    return b.build();
}

/** Self-closing socketpair. */
struct Pair
{
    int fds[2];
    Pair() { EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
    ~Pair()
    {
        closeA();
        closeB();
    }
    void closeA()
    {
        if (fds[0] >= 0)
            ::close(fds[0]);
        fds[0] = -1;
    }
    void closeB()
    {
        if (fds[1] >= 0)
            ::close(fds[1]);
        fds[1] = -1;
    }
};

} // namespace

TEST(ServeCodec, SubmitRoundTripsCampaign)
{
    const Campaign sent = faultyCampaign();
    ASSERT_FALSE(sent.jobs.empty());

    JsonValue msg;
    std::string error;
    ASSERT_TRUE(parseJson(submitJson(sent, false), msg, error))
        << error;

    bool timing = true;
    const Campaign got = parseSubmit(msg, timing);
    EXPECT_FALSE(timing);
    EXPECT_EQ(got.name, sent.name);
    EXPECT_EQ(got.seed, sent.seed);
    ASSERT_EQ(got.jobs.size(), sent.jobs.size());

    // The campaign fingerprint hashes every id, label, seed, workload,
    // canonical option and fault tuple — equality here is equality of
    // everything the journal (and the daemon) cares about.
    EXPECT_EQ(campaignFingerprintU64(got.jobs),
              campaignFingerprintU64(sent.jobs));

    for (std::size_t i = 0; i < sent.jobs.size(); ++i) {
        const JobSpec &a = sent.jobs[i];
        const JobSpec &b = got.jobs[i];
        EXPECT_EQ(optionsCanonicalJson(a.options),
                  optionsCanonicalJson(b.options));
        EXPECT_EQ(a.options.collect_stats_json,
                  b.options.collect_stats_json);
        ASSERT_EQ(a.faults.size(), b.faults.size());
        for (std::size_t f = 0; f < a.faults.size(); ++f) {
            EXPECT_EQ(a.faults[f].kind, b.faults[f].kind);
            EXPECT_EQ(a.faults[f].when, b.faults[f].when);
            EXPECT_EQ(a.faults[f].reg, b.faults[f].reg);
            EXPECT_EQ(a.faults[f].bit, b.faults[f].bit);
            EXPECT_EQ(a.faults[f].mask, b.faults[f].mask);
        }
    }
}

TEST(ServeCodec, CanonicalOptionsSurviveExactly)
{
    SimOptions o;
    o.mode = SimMode::Crt;
    o.warmup_insts = 12345;
    o.measure_insts = 67890;
    o.checker_penalty = 4;
    o.per_thread_store_queues = true;
    o.store_comparison = false;
    o.trailing_fetch = TrailingFetchMode::BranchOutcomeQueue;
    o.slack_fetch = 64;
    o.lpq_ecc = true;
    o.merge_buffer_ecc = false;
    o.hang_cycles = 9999;
    o.cpu.rob_entries = 96;
    o.recovery = true;
    o.snapshot_every = 5000;

    const std::string canon = optionsCanonicalJson(o);
    JsonValue parsed;
    ASSERT_TRUE(parseJson(canon, parsed));
    const SimOptions back = parseCanonicalOptions(parsed);
    EXPECT_EQ(optionsCanonicalJson(back), canon);
}

TEST(ServeCodec, RejectsUnknownNames)
{
    JsonValue v;
    ASSERT_TRUE(parseJson("{\"mode\":\"warp-drive\"}", v));
    EXPECT_THROW(parseCanonicalOptions(v), std::invalid_argument);

    ASSERT_TRUE(parseJson("{\"type\":\"submit\",\"jobs\":[{\"id\":0,"
                          "\"seed\":1,\"workloads\":[]}]}",
                          v));
    bool timing = true;
    EXPECT_THROW(parseSubmit(v, timing), std::invalid_argument);
}

namespace
{

/** SRT options with round, exponent-free values everywhere. */
SimOptions
driftBase()
{
    SimOptions o;
    o.mode = SimMode::Srt;
    o.warmup_insts = 1000;
    return o;
}

/** @p text with its one occurrence of @p from replaced by @p to. */
std::string
edit(std::string text, const std::string &from, const std::string &to)
{
    const auto at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from << " not in " << text;
    if (at != std::string::npos)
        text.replace(at, from.size(), to);
    return text;
}

/** A submit whose job i carries the options object @p options[i]. */
std::string
submitWithOptions(const std::vector<std::string> &options)
{
    std::string s = "{\"type\":\"submit\",\"name\":\"drift\",\"seed\":\"1\","
                    "\"timing\":false,\"jobs\":[";
    for (std::size_t i = 0; i < options.size(); ++i) {
        s += (i ? "," : "");
        s += "{\"id\":" + std::to_string(i) +
             ",\"label\":\"j\",\"seed\":\"3\",\"workloads\":[\"gcc\"],"
             "\"options\":" + options[i] + ",\"stats\":0}";
    }
    return s + "]}";
}

/** parseSubmit's rejection message, or "" when the submit is accepted. */
std::string
rejection(const std::vector<std::string> &options)
{
    JsonValue msg;
    EXPECT_TRUE(parseJson(submitWithOptions(options), msg));
    bool timing = true;
    try {
        parseSubmit(msg, timing);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

std::string
driftMessage(std::size_t job, const std::string &got,
             const std::string &canon)
{
    return "serve: job " + std::to_string(job) +
           " options do not round-trip (client/daemon option-schema "
           "drift): got " + got + ", canonical " + canon;
}

} // namespace

TEST(ServeDrift, CanonicalOptionsAreAccepted)
{
    const std::string canon = optionsCanonicalJson(driftBase());
    EXPECT_EQ(rejection({canon, canon, canon}), "");
}

TEST(ServeDrift, ExtraMemberIsRejected)
{
    const std::string canon = optionsCanonicalJson(driftBase());
    const std::string sent = edit(canon, "}", ",\"turbo\":1}");
    EXPECT_EQ(rejection({sent}), driftMessage(0, sent, canon));
}

TEST(ServeDrift, MissingMemberIsRejected)
{
    const std::string canon = optionsCanonicalJson(driftBase());
    EXPECT_EQ(rejection({edit(canon, ",\"lvq_ecc\":1", "")}),
              "serve: missing numeric member 'lvq_ecc'");
    EXPECT_EQ(rejection({edit(canon, ",\"frontend\":\"lpq\"", "")}),
              "serve: missing string member 'frontend'");
}

TEST(ServeDrift, ReorderedMembersAreRejected)
{
    const std::string canon = optionsCanonicalJson(driftBase());
    const std::string sent =
        edit(edit(canon, "\"warmup_insts\":1000,", ""), "\"mode\"",
             "\"warmup_insts\":1000,\"mode\"");
    EXPECT_EQ(rejection({sent}), driftMessage(0, sent, canon));
}

TEST(ServeDrift, DuplicateKeyIsRejected)
{
    // The parser keeps duplicates and find() returns the first, so
    // the parsed options are the canonical ones; only the round trip
    // sees the second "iq".
    const std::string canon = optionsCanonicalJson(driftBase());
    const std::string sent = edit(canon, "}", ",\"iq\":64}");
    EXPECT_EQ(rejection({sent}), driftMessage(0, sent, canon));
}

TEST(ServeDrift, NegativeZeroIsRejected)
{
    const std::string canon = optionsCanonicalJson(driftBase());
    const std::string sent = edit(canon, "\"slack\":0", "\"slack\":-0");
    EXPECT_EQ(rejection({sent}), driftMessage(0, sent, canon));
}

TEST(ServeDrift, ExponentSpellingOfASmallIntegerRoundTrips)
{
    // The check re-renders the parsed double, not the sent text, and
    // %.12g prints 1000.0 as "1000": "1e3" is accepted and parses to
    // exactly the options "1000" does.
    const std::string canon = optionsCanonicalJson(driftBase());
    const std::string sent =
        edit(canon, "\"warmup_insts\":1000", "\"warmup_insts\":1e3");
    EXPECT_EQ(rejection({sent}), "");
    EXPECT_EQ(rejection({canon, sent, canon}), "");

    JsonValue msg;
    ASSERT_TRUE(parseJson(submitWithOptions({canon, sent}), msg));
    bool timing = true;
    const Campaign got = parseSubmit(msg, timing);
    ASSERT_EQ(got.jobs.size(), 2u);
    EXPECT_EQ(optionsCanonicalJson(got.jobs[1].options), canon);
}

TEST(ServeDrift, HexSpellingIsAParseError)
{
    // JSON has no hex literals: "0x20" must not slip through as 32 (or
    // as 0 followed by junk).  The whole submit fails to parse, with
    // the offset of the first character that is not JSON.
    const std::string canon = optionsCanonicalJson(driftBase());
    const std::string sent = edit(canon, "\"slack\":0", "\"slack\":0x20");
    const std::string submit = submitWithOptions({sent});
    JsonValue msg;
    std::string error;
    EXPECT_FALSE(parseJson(submit, msg, error));
    EXPECT_NE(error.find("at offset " +
                         std::to_string(submit.find("0x20") + 1)),
              std::string::npos)
        << error;
}

TEST(ServeDrift, IntegerAtOrAbove1e12IsRejected)
{
    // Canonical text, but the double's %.12g rendering is "1e+12".
    SimOptions o = driftBase();
    o.measure_insts = 1000000000000ull;
    const std::string canon = optionsCanonicalJson(o);
    const std::string got = edit(canon, "\"measure_insts\":1000000000000",
                                 "\"measure_insts\":1e+12");
    EXPECT_EQ(rejection({canon}), driftMessage(0, got, canon));

    o.measure_insts = 999999999999ull;
    EXPECT_EQ(rejection({optionsCanonicalJson(o)}), "");
}

TEST(ServeDrift, BooleanWhereANumberBelongsIsRejected)
{
    const std::string canon = optionsCanonicalJson(driftBase());
    EXPECT_EQ(rejection({edit(canon, "\"ptsq\":0", "\"ptsq\":false")}),
              "serve: missing numeric member 'ptsq'");
    EXPECT_EQ(rejection({edit(canon, "\"psr\":1", "\"psr\":true")}),
              "serve: missing numeric member 'psr'");
}

TEST(ServeDrift, OneDriftingJobRejectsTheWholeSubmit)
{
    // Jobs 0-4 send the same valid object; job 5 differs from it only
    // by the sign of a zero, which compares equal as a double.
    const std::string canon = optionsCanonicalJson(driftBase());
    const std::string sent = edit(canon, "\"slack\":0", "\"slack\":-0");
    EXPECT_EQ(rejection({canon, canon, canon, canon, canon, sent}),
              driftMessage(5, sent, canon));
    // And the other way round: a drifting job 0 is not excused by
    // valid ones after it.
    EXPECT_EQ(rejection({sent, canon}), driftMessage(0, sent, canon));
}

TEST(ServeDrift, RepeatedObjectsKeepTheirOwnFieldValues)
{
    // Interleaved distinct objects: every job must come back with its
    // own options, not a neighbour's.
    std::vector<std::string> sent;
    std::vector<std::string> expect;
    for (int i = 0; i < 12; ++i) {
        SimOptions o = driftBase();
        o.mode = (i % 3 == 0) ? SimMode::Crt : SimMode::Srt;
        o.slack_fetch = static_cast<unsigned>(32 * (i % 4));
        expect.push_back(optionsCanonicalJson(o));
        sent.push_back(expect.back());
    }
    JsonValue msg;
    ASSERT_TRUE(parseJson(submitWithOptions(sent), msg));
    bool timing = true;
    const Campaign got = parseSubmit(msg, timing);
    ASSERT_EQ(got.jobs.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(optionsCanonicalJson(got.jobs[i].options), expect[i]);
}

TEST(ServeFrames, StreamsMultipleFramesThenCleanEof)
{
    Pair p;
    ASSERT_TRUE(sendFrame(p.fds[0], tagControl, "{\"type\":\"one\"}"));
    ASSERT_TRUE(sendFrame(p.fds[0], tagRow, "{\"id\":0}"));
    p.closeA();

    FrameReader reader(p.fds[1]);
    std::string payload;
    ASSERT_TRUE(reader.next(payload));
    EXPECT_EQ(payload, std::string(1, tagControl) + "{\"type\":\"one\"}");
    ASSERT_TRUE(reader.next(payload));
    EXPECT_EQ(payload, std::string(1, tagRow) + "{\"id\":0}");
    EXPECT_FALSE(reader.next(payload));     // clean EOF
}

TEST(ServeFrames, GarbageStreamThrows)
{
    Pair p;
    const char junk[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(wire::writeAll(p.fds[0], junk, sizeof(junk) - 1));
    p.closeA();

    FrameReader reader(p.fds[1]);
    std::string payload;
    EXPECT_THROW(reader.next(payload), wire::WireError);
}

TEST(ServeFrames, OversizedLengthThrows)
{
    Pair p;
    std::string header;
    for (int i = 0; i < 4; ++i)
        header.push_back(static_cast<char>(wire::frameMagic >> (8 * i)));
    const std::uint32_t huge = wire::maxPayloadBytes + 1;
    for (int i = 0; i < 4; ++i)
        header.push_back(static_cast<char>(huge >> (8 * i)));
    ASSERT_TRUE(wire::writeAll(p.fds[0], header.data(), header.size()));

    FrameReader reader(p.fds[1]);
    std::string payload;
    EXPECT_THROW(reader.next(payload), wire::WireError);
}

TEST(ServeFrames, EofMidFrameThrows)
{
    Pair p;
    const std::string framed = wire::frame("half of this will arrive");
    ASSERT_TRUE(wire::writeAll(p.fds[0], framed.data(),
                               framed.size() / 2));
    p.closeA();

    FrameReader reader(p.fds[1]);
    std::string payload;
    EXPECT_THROW(reader.next(payload), wire::WireError);
}

namespace
{

void
onUsr1(int)
{
    // Nothing: existence without SA_RESTART makes read() return EINTR.
}

} // namespace

TEST(ServeFrames, ReadsSurviveSignalStorm)
{
    struct sigaction sa {};
    struct sigaction old {};
    sa.sa_handler = onUsr1;
    sa.sa_flags = 0;    // deliberately no SA_RESTART
    sigemptyset(&sa.sa_mask);
    ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

    Pair p;
    std::string got;
    std::thread reader_thread([&] {
        FrameReader reader(p.fds[1]);
        std::string payload;
        if (reader.next(payload))
            got = payload;
    });

    // Let the reader block in read(), then pepper it with signals
    // while the frame trickles in one byte at a time.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::string framed = wire::frame(
        std::string(1, tagControl) + "{\"type\":\"status\"}");
    for (std::size_t i = 0; i < framed.size(); ++i) {
        pthread_kill(reader_thread.native_handle(), SIGUSR1);
        ASSERT_TRUE(wire::writeAll(p.fds[0], framed.data() + i, 1));
    }
    pthread_kill(reader_thread.native_handle(), SIGUSR1);
    p.closeA();
    reader_thread.join();

    EXPECT_EQ(got,
              std::string(1, tagControl) + "{\"type\":\"status\"}");
    sigaction(SIGUSR1, &old, nullptr);
}

namespace
{

/** Frame i of a synthetic stream: a tag and a body whose length varies. */
std::string
numberedPayload(std::size_t i)
{
    return std::string(1, tagRow) + "{\"id\":" + std::to_string(i) +
           ",\"pad\":\"" + std::string(i % 97, 'x') + "\"}";
}

} // namespace

TEST(WireDecoder, TenThousandFramesInOneBufferComeOutInOrder)
{
    constexpr std::size_t frames = 10000;
    std::string stream;
    for (std::size_t i = 0; i < frames; ++i)
        stream += wire::frame(numberedPayload(i));

    wire::FrameDecoder decoder;
    decoder.feed(stream.data(), stream.size());
    std::string p;
    std::size_t got = 0;
    while (decoder.next(p)) {
        ASSERT_EQ(p, numberedPayload(got));
        ++got;
    }
    EXPECT_EQ(got, frames);
    EXPECT_FALSE(decoder.truncated());

    // The decoder stays usable after draining a large buffer.
    const std::string more = wire::frame("tail");
    decoder.feed(more.data(), more.size());
    ASSERT_TRUE(decoder.next(p));
    EXPECT_EQ(p, "tail");
    EXPECT_FALSE(decoder.next(p));
}

TEST(WireDecoder, OneByteAtATime)
{
    std::string stream;
    for (std::size_t i = 0; i < 50; ++i)
        stream += wire::frame(numberedPayload(i));

    wire::FrameDecoder decoder;
    std::string p;
    std::size_t got = 0;
    for (std::size_t b = 0; b < stream.size(); ++b) {
        decoder.feed(stream.data() + b, 1);
        while (decoder.next(p)) {
            ASSERT_EQ(p, numberedPayload(got));
            ++got;
        }
    }
    EXPECT_EQ(got, 50u);
    EXPECT_FALSE(decoder.truncated());
}

TEST(WireDecoder, TruncatedMeansAPartialFrameIsHeld)
{
    const std::string a = wire::frame("first");
    const std::string b = wire::frame("second");
    const std::string stream = a + b;

    wire::FrameDecoder decoder;
    std::string p;
    EXPECT_FALSE(decoder.truncated());
    // A whole frame plus three header bytes of the next.
    decoder.feed(stream.data(), a.size() + 3);
    EXPECT_TRUE(decoder.truncated());
    ASSERT_TRUE(decoder.next(p));
    EXPECT_EQ(p, "first");
    EXPECT_TRUE(decoder.truncated());
    EXPECT_FALSE(decoder.next(p));
    EXPECT_TRUE(decoder.truncated());
    decoder.feed(stream.data() + a.size() + 3, b.size() - 3);
    ASSERT_TRUE(decoder.next(p));
    EXPECT_EQ(p, "second");
    EXPECT_FALSE(decoder.truncated());
    EXPECT_FALSE(decoder.next(p));
    EXPECT_FALSE(decoder.truncated());
}

TEST(WireDecoder, GarbageAfterGoodFramesThrows)
{
    std::string stream = wire::frame("ok") + wire::frame("ok too");
    stream += "JUNKJUNKJUNK";
    wire::FrameDecoder decoder;
    decoder.feed(stream.data(), stream.size());
    std::string p;
    ASSERT_TRUE(decoder.next(p));
    ASSERT_TRUE(decoder.next(p));
    EXPECT_EQ(p, "ok too");
    EXPECT_THROW(decoder.next(p), wire::WireError);
}

TEST(WireDecoder, OversizedLengthAfterGoodFramesThrows)
{
    std::string stream = wire::frame("ok");
    for (int i = 0; i < 4; ++i)
        stream.push_back(static_cast<char>(wire::frameMagic >> (8 * i)));
    const std::uint32_t huge = wire::maxPayloadBytes + 1;
    for (int i = 0; i < 4; ++i)
        stream.push_back(static_cast<char>(huge >> (8 * i)));
    wire::FrameDecoder decoder;
    decoder.feed(stream.data(), stream.size());
    std::string p;
    ASSERT_TRUE(decoder.next(p));
    EXPECT_EQ(p, "ok");
    EXPECT_THROW(decoder.next(p), wire::WireError);
}
