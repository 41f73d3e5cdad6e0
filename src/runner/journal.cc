#include "runner/journal.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "ckpt/serializer.hh"
#include "common/fingerprint.hh"
#include "runner/wire.hh"

#if defined(__unix__) || defined(__APPLE__)
#define RMT_JOURNAL_POSIX 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace rmt
{

namespace
{

constexpr char kJournalMagic[8] =
    {'R', 'M', 'T', 'J', 'R', 'N', 'L', '\0'};

/** Frame magic "RMTJ", little-endian. */
constexpr std::uint32_t kFrameMagic = 0x4A544D52u;

void
appendLe32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>(v >> (8 * i)));
}

void
appendLe64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t
readLe32(const std::string &buf, std::size_t at)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(buf[at + i]))
             << (8 * i);
    return v;
}

std::uint64_t
readLe64(const std::string &buf, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(buf[at + i]))
             << (8 * i);
    return v;
}

constexpr std::size_t kHeaderBytes = sizeof(kJournalMagic) + 4 + 8;

std::string
journalHeader(std::uint64_t fingerprint)
{
    std::string out;
    out.append(kJournalMagic, sizeof(kJournalMagic));
    appendLe32(out, journalVersion);
    appendLe64(out, fingerprint);
    return out;
}

} // namespace

void
fnv1a64FaultField(std::uint64_t &h, const FaultRecord &f)
{
    std::string text = faultKindName(f.kind);
    for (const std::uint64_t v :
         {std::uint64_t{f.when}, std::uint64_t{f.core},
          std::uint64_t{f.tid}, std::uint64_t{f.reg},
          std::uint64_t{f.bit}, std::uint64_t{f.fuIndex}, f.mask,
          std::uint64_t{f.pairLogical}}) {
        text += ',';
        appendUint(text, v);
    }
    fnv1a64Field(h, text);
}

std::uint64_t
campaignFingerprintU64(const std::vector<JobSpec> &jobs)
{
    std::uint64_t h = fnv1a64Seed;
    for (const JobSpec &job : jobs) {
        fnv1a64Field(h, std::to_string(job.id));
        fnv1a64Field(h, std::to_string(job.seed));
        fnv1a64Field(h, job.label);
        for (const std::string &w : job.workloads)
            fnv1a64Field(h, w);
        fnv1a64Field(h, optionsCanonicalJson(job.options));
        for (const FaultRecord &f : job.faults)
            fnv1a64FaultField(h, f);
    }
    return h;
}

JournalReplay
replayJournal(const std::string &path, std::uint64_t expect_fingerprint)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw JournalError("journal: cannot open '" + path + "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string data = ss.str();

    if (data.size() < kHeaderBytes)
        throw JournalError("journal: '" + path +
                           "' truncated before the header");
    if (data.compare(0, sizeof(kJournalMagic), kJournalMagic,
                     sizeof(kJournalMagic)) != 0)
        throw JournalError("journal: '" + path +
                           "' is not a result journal (bad magic)");
    const std::uint32_t version = readLe32(data, sizeof(kJournalMagic));
    if (version != journalVersion)
        throw JournalError(
            "journal: '" + path + "' has format version " +
            std::to_string(version) + " (this build reads version " +
            std::to_string(journalVersion) + ")");
    const std::uint64_t fp = readLe64(data, sizeof(kJournalMagic) + 4);
    if (fp != expect_fingerprint)
        throw JournalError(
            "journal: '" + path + "' belongs to campaign " +
            fingerprintHex(fp) + ", not " +
            fingerprintHex(expect_fingerprint) +
            " (different grid arguments; delete it to start over)");

    JournalReplay replay;
    std::size_t at = kHeaderBytes;
    while (at < data.size()) {
        // Anything short of a whole frame is the crash's torn tail.
        if (data.size() - at < 12) {
            replay.torn_tail = true;
            replay.note = "frame header cut at offset " +
                          std::to_string(at);
            break;
        }
        const std::uint32_t magic = readLe32(data, at);
        const std::uint32_t len = readLe32(data, at + 4);
        if (magic != kFrameMagic ||
            len > wire::maxPayloadBytes) {
            replay.corrupt = true;
            replay.note = "bad frame header at offset " +
                          std::to_string(at);
            break;
        }
        if (data.size() - at - 12 < len) {
            replay.torn_tail = true;
            replay.note = "frame payload cut at offset " +
                          std::to_string(at) + " (wanted " +
                          std::to_string(len) + " bytes)";
            break;
        }
        const std::uint32_t stored_crc = readLe32(data, at + 8 + len);
        const std::uint32_t actual = crc32(data.data() + at + 8, len);
        if (stored_crc != actual) {
            replay.corrupt = true;
            replay.note = "frame at offset " + std::to_string(at) +
                          " failed its CRC check";
            break;
        }
        JobResult result;
        try {
            result = wire::decodeJobResult(data.substr(at + 8, len));
        } catch (const wire::WireError &e) {
            replay.corrupt = true;
            replay.note = "frame at offset " + std::to_string(at) +
                          " does not decode (" + e.what() + ")";
            break;
        }
        replay.results[result.id] = std::move(result);
        at += 12 + len;
        replay.valid_bytes = at;
    }
    if (replay.valid_bytes < kHeaderBytes)
        replay.valid_bytes = kHeaderBytes;
    return replay;
}

JournalWriter::JournalWriter(const std::string &path,
                             std::uint64_t fingerprint, Options options)
    : _path(path), opts(options)
{
    if (opts.sync_every == 0)
        opts.sync_every = 1;
    open(0, journalHeader(fingerprint));
}

JournalWriter::JournalWriter(const std::string &path,
                             const JournalReplay &replay, Options options)
    : _path(path), opts(options)
{
    if (opts.sync_every == 0)
        opts.sync_every = 1;
    open(replay.valid_bytes, "");
}

JournalWriter::~JournalWriter()
{
    try {
        close();
    } catch (...) {
        // A destructor must not throw; the journal is best-effort at
        // teardown (close() was available for callers who care).
    }
}

void
JournalWriter::open(std::uint64_t truncate_to, const std::string &header)
{
#ifdef RMT_JOURNAL_POSIX
    const int flags =
        header.empty() ? O_WRONLY : (O_WRONLY | O_CREAT | O_TRUNC);
    fd = ::open(_path.c_str(), flags, 0644);
    if (fd < 0)
        throw JournalError("journal: cannot open '" + _path +
                           "' for writing");
    if (header.empty()) {
        // Resume: drop the torn/corrupt tail, then append.
        if (::ftruncate(fd, static_cast<off_t>(truncate_to)) != 0 ||
            ::lseek(fd, 0, SEEK_END) < 0) {
            ::close(fd);
            fd = -1;
            throw JournalError("journal: cannot truncate '" + _path +
                               "' to its valid prefix");
        }
    } else if (!wire::writeAll(fd, header.data(), header.size())) {
        ::close(fd);
        fd = -1;
        throw JournalError("journal: cannot write the header of '" +
                           _path + "'");
    }
#else
    // No fsync without POSIX: degrade to buffered stdio semantics.
    (void)truncate_to;
    std::ofstream out(_path, header.empty()
                                 ? (std::ios::binary | std::ios::app)
                                 : (std::ios::binary | std::ios::trunc));
    if (!out)
        throw JournalError("journal: cannot open '" + _path +
                           "' for writing");
    out.write(header.data(),
              static_cast<std::streamsize>(header.size()));
    out.close();
    fd = 0;     // sentinel: "open", appends go through ofstream::app
#endif
}

void
JournalWriter::append(const JobResult &result)
{
    const std::string payload = wire::encodeJobResult(result);

    std::lock_guard<std::mutex> lock(mu);
    if (fd < 0)
        throw JournalError("journal: append after close");
    appendLe32(buffer, kFrameMagic);
    appendLe32(buffer, static_cast<std::uint32_t>(payload.size()));
    buffer += payload;
    appendLe32(buffer, crc32(payload.data(), payload.size()));
    ++records;
    if (++unsynced >= opts.sync_every)
        sync();
}

void
JournalWriter::sync()
{
    if (!buffer.empty()) {
#ifdef RMT_JOURNAL_POSIX
        if (!wire::writeAll(fd, buffer.data(), buffer.size()))
            throw JournalError("journal: write to '" + _path +
                               "' failed");
        ::fsync(fd);
#else
        std::ofstream out(_path, std::ios::binary | std::ios::app);
        out.write(buffer.data(),
                  static_cast<std::streamsize>(buffer.size()));
#endif
        buffer.clear();
    }
    unsynced = 0;
}

void
JournalWriter::flush()
{
    std::lock_guard<std::mutex> lock(mu);
    if (fd >= 0)
        sync();
}

void
JournalWriter::close()
{
    std::lock_guard<std::mutex> lock(mu);
    if (fd < 0)
        return;
    sync();
#ifdef RMT_JOURNAL_POSIX
    ::close(fd);
#endif
    fd = -1;
}

std::uint64_t
JournalWriter::appended() const
{
    std::lock_guard<std::mutex> lock(mu);
    return records;
}

} // namespace rmt
