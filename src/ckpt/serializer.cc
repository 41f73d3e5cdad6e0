#include "ckpt/serializer.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

namespace rmt
{

namespace
{

constexpr char kMagic[8] = {'R', 'M', 'T', 'S', 'N', 'A', 'P', '\0'};

/** Slicing-by-8 tables: table[0] is the bytewise CRC table, and
 *  table[k][b] is the CRC of byte b followed by k zero bytes. */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
    return t;
}

std::uint32_t
le32At(const std::uint8_t *p)
{
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

std::uint64_t
le64At(const std::uint8_t *p)
{
    return std::uint64_t{le32At(p)} | std::uint64_t{le32At(p + 4)} << 32;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size)
{
    static const CrcTables t = makeCrcTables();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = 0xffffffffu;
    for (; size >= 8; p += 8, size -= 8) {
        const std::uint32_t lo = c ^ le32At(p);
        const std::uint32_t hi = le32At(p + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++p, --size)
        c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

namespace
{

void
storeLe32(char *at, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        at[i] = static_cast<char>(v >> (8 * i));
}

void
storeLe64(char *at, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        at[i] = static_cast<char>(v >> (8 * i));
}

} // namespace

Serializer::Serializer() : len(headerBytes)
{
    grow(64 * 1024);
}

void
Serializer::outsideSection() const
{
    throw SnapshotError("serializer: write outside a section");
}

void
Serializer::grow(std::size_t size)
{
    cap = std::max(2 * cap, len + size);
    auto bigger = std::make_unique_for_overwrite<char[]>(cap);
    if (buf)
        std::memcpy(bigger.get(), buf.get(), len);
    buf = std::move(bigger);
}

void
Serializer::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
Serializer::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    put(s.data(), s.size());
}

void
Serializer::blob(const void *data, std::size_t size)
{
    u64(size);
    put(data, size);
}

void
Serializer::beginSection(const std::string &name)
{
    if (inSection)
        throw SnapshotError("serializer: section '" + curName +
                            "' still open");
    inSection = true;
    curName = name;
    if (!comparing) {
        // Frame: name length, name, then the payload length, which
        // endSection() fills in once the payload is written.
        char frame[4];
        storeLe32(frame, static_cast<std::uint32_t>(name.size()));
        append(frame, 4);
        append(name.data(), name.size());
        lengthAt = len;
        append("\0\0\0\0\0\0\0\0", 8);
        return;
    }
    // The reference's frame for this section: name length, name,
    // payload length.  The payload is then compared as it is written.
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(ref.data());
    if (ref.size() < refPos || ref.size() - refPos < 4 + name.size() + 8 ||
        le32At(bytes + refPos) != name.size() ||
        ref.compare(refPos + 4, name.size(), name) != 0)
        throw ImageMismatch{};
    refPos += 4 + name.size();
    const std::uint64_t length = le64At(bytes + refPos);
    refPos += 8;
    if (length > ref.size() - refPos || ref.size() - refPos - length < 4)
        throw ImageMismatch{};
    refEnd = refPos + static_cast<std::size_t>(length);
}

void
Serializer::endSection()
{
    if (!inSection)
        throw SnapshotError("serializer: no section open");
    inSection = false;
    ++sections;
    if (comparing) {
        // Equal payloads have equal CRCs: skip the reference's.
        if (refPos != refEnd)
            throw ImageMismatch{};
        refPos += 4;
        return;
    }
    const std::size_t payload = lengthAt + 8;
    storeLe64(buf.get() + lengthAt, len - payload);
    char crc[4];
    storeLe32(crc, crc32(buf.get() + payload, len - payload));
    append(crc, 4);
}

void
Serializer::writeHeader(char *at, std::uint64_t fingerprint) const
{
    std::memcpy(at, kMagic, sizeof(kMagic));
    storeLe32(at + 8, formatVersion);
    storeLe64(at + 12, fingerprint);
    storeLe32(at + 20, sections);
}

std::string
Serializer::finish(std::uint64_t fingerprint) const
{
    if (inSection)
        throw SnapshotError("serializer: section '" + curName +
                            "' still open at finish");
    if (comparing)
        throw SnapshotError("serializer: finish() on a comparing walk");
    std::string out(buf.get(), len);
    writeHeader(out.data(), fingerprint);
    return out;
}

bool
Serializer::matches(std::uint64_t fingerprint) const
{
    if (!comparing || inSection)
        throw SnapshotError("serializer: matches() needs a finished "
                            "comparing walk");
    char header[headerBytes];
    writeHeader(header, fingerprint);
    return refPos == ref.size() &&
           ref.compare(0, headerBytes,
                       std::string_view(header, headerBytes)) == 0;
}

Deserializer::Deserializer(std::string_view image,
                           std::uint64_t expect_fingerprint)
    : data(image)
{
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(data.data());
    if (data.size() < 8 + 4 + 8 + 4)
        throw SnapshotError("snapshot: image truncated (no header)");
    if (std::memcmp(bytes, kMagic, sizeof(kMagic)) != 0)
        throw SnapshotError("snapshot: bad magic (not a snapshot file)");
    const std::uint32_t version = le32At(bytes + 8);
    if (version != Serializer::formatVersion) {
        throw SnapshotError(
            "snapshot: format version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(Serializer::formatVersion) + ")");
    }
    fp = le64At(bytes + 12);
    if (fp != expect_fingerprint) {
        char buf[64];
        std::snprintf(buf, sizeof(buf),
                      "%016llx, expected %016llx",
                      static_cast<unsigned long long>(fp),
                      static_cast<unsigned long long>(expect_fingerprint));
        throw SnapshotError(
            std::string("snapshot: options fingerprint mismatch: "
                        "image was taken under ") + buf +
            " (run with the same configuration it was saved with)");
    }

    // Walk every section frame and check every CRC now, so that the
    // caller applies nothing from an image that is damaged anywhere.
    const std::uint32_t count = le32At(bytes + 20);
    std::size_t at = 24;
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::size_t section_start = at;
        auto truncated = [&](const std::string &what) {
            throw SnapshotError(
                "snapshot: image truncated in " + what + " of section " +
                std::to_string(i) + " at byte offset " +
                std::to_string(section_start) + " (image is " +
                std::to_string(data.size()) + " bytes)");
        };
        if (data.size() - at < 4)
            truncated("the name length");
        const std::uint32_t name_len = le32At(bytes + at);
        at += 4;
        if (data.size() - at < name_len)
            truncated("the name");
        Section sec;
        sec.name = data.substr(at, name_len);
        at += name_len;
        if (data.size() - at < 8)
            truncated("the payload length");
        const std::uint64_t payload_len = le64At(bytes + at);
        at += 8;
        // Two-step compare: a corrupt payload_len near 2^64 must not
        // overflow the arithmetic into a passing check.
        if (payload_len > data.size() - at ||
            data.size() - at - payload_len < 4) {
            truncated("the payload of '" + std::string(sec.name) + "'");
        }
        sec.payload = at;
        sec.length = static_cast<std::size_t>(payload_len);
        if (le32At(bytes + at + sec.length) !=
            crc32(bytes + at, sec.length)) {
            throw SnapshotError(
                "snapshot: section '" + std::string(sec.name) +
                "' (offset " + std::to_string(section_start) +
                ") failed its CRC check");
        }
        at += sec.length + 4;
        sections.push_back(sec);
    }
    if (at != data.size()) {
        throw SnapshotError(
            "snapshot: " + std::to_string(data.size() - at) +
            " trailing bytes after the last section (offset " +
            std::to_string(at) + ")");
    }
}

void
Deserializer::fail(const std::string &why) const
{
    throw SnapshotError("snapshot: " + why);
}

void
Deserializer::need(std::size_t n) const
{
    if (n > payloadEnd - pos) {
        fail("section '" + curName + "' truncated (needs " +
             std::to_string(n) + " more bytes)");
    }
}

void
Deserializer::beginSection(const std::string &name)
{
    if (inSection)
        fail("section '" + curName + "' still open");
    if (next == sections.size())
        fail("expected section '" + name + "' but image is exhausted");
    const Section &sec = sections[next++];
    curName = sec.name;
    if (curName != name) {
        fail("expected section '" + name + "' but found '" + curName +
             "'");
    }
    pos = sec.payload;
    payloadEnd = sec.payload + sec.length;
    inSection = true;
}

void
Deserializer::endSection()
{
    if (!inSection)
        fail("no section open");
    if (pos != payloadEnd) {
        fail("section '" + curName + "' has " +
             std::to_string(payloadEnd - pos) + " unconsumed bytes");
    }
    inSection = false;
}

std::uint8_t
Deserializer::u8()
{
    need(1);
    return static_cast<std::uint8_t>(data[pos++]);
}

std::uint16_t
Deserializer::u16()
{
    need(2);
    const auto *p = reinterpret_cast<const std::uint8_t *>(data.data()) + pos;
    pos += 2;
    return static_cast<std::uint16_t>(p[0] | p[1] << 8);
}

std::uint32_t
Deserializer::u32()
{
    need(4);
    pos += 4;
    return le32At(reinterpret_cast<const std::uint8_t *>(data.data()) +
                  pos - 4);
}

std::uint64_t
Deserializer::u64()
{
    need(8);
    pos += 8;
    return le64At(reinterpret_cast<const std::uint8_t *>(data.data()) +
                  pos - 8);
}

double
Deserializer::f64()
{
    return std::bit_cast<double>(u64());
}

bool
Deserializer::boolean()
{
    const std::uint8_t v = u8();
    if (v > 1) {
        fail("section '" + curName + "' holds " + std::to_string(v) +
             " where a boolean was expected");
    }
    return v != 0;
}

std::string
Deserializer::str()
{
    const std::uint32_t n = u32();
    need(n);
    std::string s(data.substr(pos, n));
    pos += n;
    return s;
}

std::span<const std::uint8_t>
Deserializer::blob()
{
    return bytes(static_cast<std::size_t>(u64()));
}

std::span<const std::uint8_t>
Deserializer::bytes(std::size_t size)
{
    need(size);
    const std::span<const std::uint8_t> out(
        reinterpret_cast<const std::uint8_t *>(data.data()) + pos, size);
    pos += size;
    return out;
}

} // namespace rmt
