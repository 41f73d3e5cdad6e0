/**
 * @file
 * Pipe wire protocol between a forked trial child and its parent.
 *
 * Each child streams exactly one record back: a length-prefixed frame
 * (magic + payload length + payload) whose payload is a versioned
 * little-endian serialisation of the JobResult.  Length prefixing means
 * a child killed mid-write is detected as a truncated frame rather than
 * silently yielding a short record; the magic word catches a child that
 * wrote garbage (e.g. a stray stdio flush) before the record; the
 * payload cap bounds the parent's buffering against a corrupt length.
 *
 * The codec covers every JobResult field (including the embedded
 * RunResult, host timings and stats_json) so a forked trial's record is
 * byte-identical to the same trial executed in-process.
 */

#ifndef RMTSIM_RUNNER_WIRE_HH
#define RMTSIM_RUNNER_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "runner/job.hh"

namespace rmt
{
namespace wire
{

/** Any framing/codec violation (bad magic, truncation, bad version). */
struct WireError : std::runtime_error
{
    explicit WireError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Frame header magic ("RMTW", little-endian). */
constexpr std::uint32_t frameMagic = 0x57544D52u;

/** Hard cap on one frame's payload (a JobResult with a full stats doc
 *  is ~10 KiB; anything near this cap is corruption). */
constexpr std::uint32_t maxPayloadBytes = 64u << 20;

/** Codec version carried in every payload.
 *  v2: JobResult::quarantined (retry-exhausted trials). */
constexpr std::uint8_t codecVersion = 2;

/** Serialise a JobResult into a codec payload (no frame header). */
std::string encodeJobResult(const JobResult &result);

/** Inverse of encodeJobResult; throws WireError on malformed input. */
JobResult decodeJobResult(std::string_view payload);

/**
 * A forked trial's record on the pipe: the encodeJobResult payload
 * followed by its run's reconverged_at and cycles_skipped (u64 each).
 * Those two fields never reach the journal or the store, so the
 * persisted codec stays as it is.
 */
std::string encodeTrial(const JobResult &result);

/** Inverse of encodeTrial; throws WireError on malformed input. */
JobResult decodeTrial(std::string_view payload);

/** Wrap a payload in a frame: magic + u32 length + bytes. */
std::string frame(const std::string &payload);

/**
 * Build a frame in place at the end of @p out: beginFrame() reserves
 * the header and returns where the frame starts, the caller appends
 * the payload, and endFrame() fills in the magic and the length.
 * Throws WireError if the payload exceeds the cap.  Batched senders
 * frame many records into one buffer this way without a copy each.
 */
std::size_t beginFrame(std::string &out);
void endFrame(std::string &out, std::size_t at);

/**
 * Incremental frame parser for the parent's read loop.  feed() bytes
 * as they arrive; next() yields complete payloads.  Throws WireError
 * as soon as the stream is provably corrupt (wrong magic, payload
 * above the cap).  After EOF, truncated() tells a cleanly-closed
 * stream from one cut mid-frame.
 *
 * Consumed frames are skipped with an offset and the buffer is
 * compacted only when next() runs out of complete frames, so draining
 * a large read costs time linear in its bytes.
 */
class FrameDecoder
{
  public:
    void feed(const char *data, std::size_t len)
    {
        buf.append(data, len);
    }

    /** Extract the next complete payload into @p payload. */
    bool next(std::string &payload);

    /** Bytes of an incomplete frame still buffered? */
    bool truncated() const { return buf.size() > pos; }

  private:
    std::string buf;
    std::size_t pos = 0;    ///< start of the first unconsumed frame
};

#if defined(__unix__) || defined(__APPLE__)

/**
 * EINTR-safe descriptor I/O, shared by the trial pipe and the result
 * journal.  Signal delivery mid-frame (the SIGTERM drain, a worker's
 * SIGCHLD) must never tear a frame: both helpers retry interrupted
 * system calls until the transfer completes or genuinely fails.
 */

/** write() all @p len bytes, retrying EINTR and short writes; false on
 *  a real error (errno is left set). */
bool writeAll(int fd, const void *data, std::size_t len);

/** read() up to @p len bytes, retrying EINTR; returns the byte count
 *  (0 = EOF) or -1 on a real error (errno is left set). */
long readSome(int fd, void *buf, std::size_t len);

#endif // POSIX

} // namespace wire
} // namespace rmt

#endif // RMTSIM_RUNNER_WIRE_HH
