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
 */

#ifndef RMTSIM_CKPT_SERIALIZER_HH
#define RMTSIM_CKPT_SERIALIZER_HH

#include <cstdint>
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

/** CRC32 (IEEE 802.3 polynomial, reflected) of @p data, computed
 *  eight bytes at a time (slicing-by-8). */
std::uint32_t crc32(const void *data, std::size_t size);

/** Builds a snapshot image section by section. */
class Serializer
{
  public:
    /** v2: per-thread fetch-stall reason added to the core section
     *  (commit-slot attribution). */
    static constexpr std::uint32_t formatVersion = 2;

    /** Open a new tagged section; primitives go to it until end(). */
    void beginSection(const std::string &name);
    /** Seal the open section (appends the payload CRC). */
    void endSection();

    void u8(std::uint8_t v) { put(&v, 1); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v);
    void boolean(bool v) { u8(v ? 1 : 0); }
    void str(const std::string &s);
    /** Raw byte blob, length-prefixed. */
    void blob(const void *data, std::size_t size);

    /** Complete image: header (with @p fingerprint) + all sections.
     *  Must be called with no section open. */
    std::string finish(std::uint64_t fingerprint) const;

  private:
    void put(const void *data, std::size_t size);

    std::string body;           ///< sealed sections
    std::string cur;            ///< open section payload
    std::string curName;
    bool inSection = false;
    std::uint32_t sections = 0;
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
