/**
 * @file
 * Versioned, tagged-chunk binary snapshot format (checkpoint/restore).
 *
 * A snapshot image is
 *
 *     header:   magic "RMTSNAP\0" | u32 format version |
 *               u64 SimOptions fingerprint | u32 section count
 *     sections: u32 name length | name bytes |
 *               u64 payload length | payload bytes | u32 CRC32(payload)
 *
 * All integers are little-endian regardless of host byte order, so an
 * image written on one machine restores on any other.  Every section
 * carries its own CRC.  The Deserializer checks the header, every
 * section frame, every CRC and exact end-of-image once, when it is
 * constructed, and then the section name and exact payload consumption
 * as the caller reads; it throws SnapshotError on the first
 * disagreement, so a truncated or corrupted image is rejected before
 * the caller has applied a byte of it.
 *
 * The header fingerprint pins the image to one simulator configuration:
 * restoring under different SimOptions (which would change the barrier
 * schedule and the machine shape) is rejected up front.
 *
 * A Serializer built over a reference image compares instead of
 * building: the same save walk streams each byte against the reference
 * and stops at the first one that differs, so "is the machine in this
 * state?" costs no buffer, no CRC, and usually only a prefix of the walk.
 */

#ifndef RMTSIM_CKPT_SERIALIZER_HH
#define RMTSIM_CKPT_SERIALIZER_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rmt
{

/** Any structural failure while reading or writing a snapshot image:
 *  bad magic, version or fingerprint mismatch, CRC failure, truncated
 *  or trailing data, or machine-shape disagreement at load. */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Thrown by a comparing Serializer at the first byte that differs
 *  from its reference image.  It only cuts the save walk short, so it
 *  is not an error and does not derive from std::exception. */
struct ImageMismatch
{
};

/** CRC32 (IEEE 802.3 polynomial, reflected) of @p data, computed
 *  eight bytes at a time (slicing-by-8). */
std::uint32_t crc32(const void *data, std::size_t size);

/** Builds a snapshot image section by section, or compares one. */
class Serializer
{
  public:
    /** v2: per-thread fetch-stall reason added to the core section
     *  (commit-slot attribution). */
    static constexpr std::uint32_t formatVersion = 2;

    /** Build a new image; finish() returns it. */
    Serializer();

    /**
     * Compare rather than build: every byte the walk writes is checked
     * against @p reference in place, and the first difference throws
     * ImageMismatch.  Once the walk is done, matches() gives the
     * verdict.  @p reference must outlive the Serializer.
     */
    explicit Serializer(std::string_view reference)
        : ref(reference), comparing(true)
    {
    }

    /** Open a new tagged section; primitives go to it until end(). */
    void beginSection(const std::string &name);
    /** Seal the open section (appends the payload CRC). */
    void endSection();

    void u8(std::uint8_t v) { put(&v, 1); }
    void u16(std::uint16_t v) { le<2>(v); }
    void u32(std::uint32_t v) { le<4>(v); }
    void u64(std::uint64_t v) { le<8>(v); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v);
    void boolean(bool v) { u8(v ? 1 : 0); }
    void str(const std::string &s);
    /** Raw byte blob, length-prefixed. */
    void blob(const void *data, std::size_t size);
    /** @p size raw bytes, no length prefix: the same image as writing
     *  each one with u8(), in one call. */
    void bytes(const void *data, std::size_t size) { put(data, size); }

    /** Complete image: header (with @p fingerprint) + all sections.
     *  Must be called with no section open. */
    std::string finish(std::uint64_t fingerprint) const;

    /** Comparing mode: true iff the walk wrote exactly the reference
     *  image, header with @p fingerprint included. */
    bool matches(std::uint64_t fingerprint) const;

  private:
    static constexpr std::size_t headerBytes = 8 + 4 + 8 + 4;

    /** Little-endian N-byte integer (one store on a little-endian
     *  host once inlined). */
    template <unsigned N>
    void
    le(std::uint64_t v)
    {
        std::uint8_t b[N];
        for (unsigned i = 0; i < N; ++i)
            b[i] = static_cast<std::uint8_t>(v >> (8 * i));
        put(b, N);
    }

    /** Every primitive lands here; inline, so a fixed-size write is a
     *  copy or a compare of a few bytes. */
    void
    put(const void *data, std::size_t size)
    {
        if (!inSection) [[unlikely]]
            outsideSection();
        if (comparing) {
            if (size > refEnd - refPos ||
                std::memcmp(ref.data() + refPos, data, size) != 0)
                throw ImageMismatch{};
            refPos += size;
            return;
        }
        append(data, size);
    }

    void
    append(const void *data, std::size_t size)
    {
        if (size > cap - len) [[unlikely]]
            grow(size);
        std::memcpy(buf.get() + len, data, size);
        len += size;
    }

    [[noreturn]] void outsideSection() const;
    void grow(std::size_t size);
    /** Header bytes for @p fingerprint and the sections sealed so far. */
    void writeHeader(char *at, std::uint64_t fingerprint) const;

    // Building: buf[0, len) is the header's room, the sealed sections
    // and the open section's frame and payload so far (uninitialised
    // beyond len, up to cap).
    std::unique_ptr<char[]> buf;
    std::size_t cap = 0;
    std::size_t len = 0;
    std::size_t lengthAt = 0;   ///< open section's payload-length field
    std::string curName;
    bool inSection = false;
    std::uint32_t sections = 0;

    // Comparing: the reference, the next unread byte of it, and one
    // past the payload of the open section.
    std::string_view ref;
    std::size_t refPos = headerBytes;
    std::size_t refEnd = 0;
    bool comparing = false;
};

/** Reads a snapshot image produced by Serializer, in place: the
 *  caller's image must outlive the Deserializer.  Sections must be
 *  consumed in write order. */
class Deserializer
{
  public:
    /**
     * Structurally validate the whole image — header (magic, version,
     * @p expect_fingerprint), every section frame, every section CRC,
     * and exact end-of-image — without applying anything.  Throws
     * SnapshotError naming the damaged section and its byte offset, so
     * a truncated download or a torn write is diagnosable from the
     * message alone.
     */
    Deserializer(std::string_view image, std::uint64_t expect_fingerprint);
    /** The image is read in place, so a temporary cannot be one. */
    Deserializer(std::string &&, std::uint64_t) = delete;

    /** Enter the next section; throws unless its name is @p name. */
    void beginSection(const std::string &name);
    /** Leave the section; throws unless the payload was consumed
     *  exactly. */
    void endSection();

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    /** Throws unless the byte is 0 or 1, the only values written. */
    bool boolean();
    std::string str();
    /** Length-prefixed byte blob, viewed in place in the image. */
    std::span<const std::uint8_t> blob();
    /** The next @p size raw bytes (Serializer::bytes), in place. */
    std::span<const std::uint8_t> bytes(std::size_t size);

    /** Fingerprint carried in the image header. */
    std::uint64_t fingerprint() const { return fp; }

  private:
    /** Where one validated section sits in the image. */
    struct Section
    {
        std::string_view name;
        std::size_t payload = 0;    ///< offset of the payload
        std::size_t length = 0;     ///< payload bytes
    };

    void need(std::size_t n) const;
    [[noreturn]] void fail(const std::string &why) const;

    std::string_view data;
    std::vector<Section> sections;
    std::size_t next = 0;       ///< index of the next section to enter
    std::size_t pos = 0;        ///< cursor within the current payload
    std::size_t payloadEnd = 0; ///< one past the current payload
    bool inSection = false;
    std::string curName;
    std::uint64_t fp = 0;
};

} // namespace rmt

#endif // RMTSIM_CKPT_SERIALIZER_HH
