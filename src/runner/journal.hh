/**
 * @file
 * Write-ahead result journal for crash-resilient campaigns.
 *
 * A million-trial campaign must not lose every finished trial to one
 * SIGKILL.  The journal is an append-only sidecar (`<out>.journal`)
 * that records each completed JobResult *before* the ordered JSONL
 * sink sees it:
 *
 *     header:  magic "RMTJRNL\0" | u32 version |
 *              u64 campaign fingerprint
 *     frame:   u32 magic "RMTJ" | u32 payload length |
 *              payload (wire::encodeJobResult) | u32 CRC32(payload)
 *
 * Frames are buffered and fsync()ed in batches, so a crash loses at
 * most the last unsynced batch — those trials simply re-run on resume.
 * `rmtsim_batch --resume` replays the journal, skips every job whose
 * result is already recorded, and rebuilds the final JSONL from the
 * replayed + freshly-run results, byte-identical to an uninterrupted
 * run.
 *
 * The header fingerprint hashes every JobSpec in the campaign (ids,
 * seeds, workloads, the PR-5 canonical options pre-image, and the
 * scheduled faults), so a journal can only ever resume the exact
 * campaign that wrote it — the verify-on-resume gate.
 *
 * Replay is deliberately forgiving at the tail and strict everywhere
 * else: a frame cut mid-write (the crash) marks the journal torn and
 * replay keeps everything before it; a CRC or magic failure *inside*
 * the file marks it corrupt and replay keeps only the frames before
 * the damage.  Either way the writer truncates back to the last valid
 * frame boundary before appending, so a journal never accretes
 * unreadable bytes.
 */

#ifndef RMTSIM_RUNNER_JOURNAL_HH
#define RMTSIM_RUNNER_JOURNAL_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/result_sink.hh"

namespace rmt
{

/** Unusable journal: unreadable file, bad header, version or campaign
 *  fingerprint mismatch.  (Torn tails and mid-file corruption are NOT
 *  errors — replay degrades to the valid prefix instead.) */
struct JournalError : std::runtime_error
{
    explicit JournalError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Journal format version. */
constexpr std::uint32_t journalVersion = 1;

/**
 * Stable identity of a campaign: FNV-1a-64 over every job's id, seed,
 * label, workload mix, canonical options JSON (the PR-5 fingerprint
 * pre-image) and scheduled faults.  Two invocations of rmtsim_batch
 * with the same grid arguments produce the same fingerprint; any
 * change to the grid produces a different one.
 */
std::uint64_t campaignFingerprintU64(const std::vector<JobSpec> &jobs);

/**
 * Fold one scheduled fault into a fingerprint as the field
 * `kind,when,core,tid,reg,bit,fu,mask,pair` (decimal).  Shared by the
 * campaign fingerprint and the result store's content key, whose
 * on-disk values depend on these exact bytes.
 */
void fnv1a64FaultField(std::uint64_t &h, const FaultRecord &f);

/** Everything replay recovered from a journal. */
struct JournalReplay
{
    /** Recovered results, keyed by job id (later frames win). */
    std::map<std::uint64_t, JobResult> results;

    /** Offset one past the last valid frame; the resume writer
     *  truncates the file here before appending. */
    std::uint64_t valid_bytes = 0;

    /** Last frame cut mid-write (the expected crash signature). */
    bool torn_tail = false;

    /** A frame *inside* the file failed its magic/CRC/decode check;
     *  everything at and after it was dropped. */
    bool corrupt = false;

    /** Human-readable account of what was dropped, "" when clean. */
    std::string note;
};

/**
 * Replay @p path.  Throws JournalError when the file cannot be read,
 * the header is not a journal, or the campaign fingerprint differs
 * from @p expect_fingerprint.  Truncation and corruption degrade (see
 * JournalReplay) rather than throw.
 */
JournalReplay replayJournal(const std::string &path,
                            std::uint64_t expect_fingerprint);

struct JournalOptions
{
    /** fsync after this many appended records (and on flush()).
     *  Batching bounds the fsync cost on million-trial campaigns;
     *  a crash re-runs at most one batch. */
    unsigned sync_every = 32;
};

class JournalWriter
{
  public:
    using Options = JournalOptions;

    /** Start a fresh journal at @p path (truncates), stamping
     *  @p fingerprint into the header.  Throws JournalError if the
     *  file cannot be created. */
    JournalWriter(const std::string &path, std::uint64_t fingerprint,
                  Options options = Options());

    /** Reopen @p path for resume: truncate to @p replay.valid_bytes
     *  (dropping any torn/corrupt tail) and append after it. */
    JournalWriter(const std::string &path, const JournalReplay &replay,
                  Options options = Options());

    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Append one result frame (buffered; synced per Options). */
    void append(const JobResult &result);

    /** Write out the buffer and fsync. */
    void flush();

    /** flush() and close the descriptor; append() afterwards throws. */
    void close();

    /** Records appended through this writer (excludes replayed ones). */
    std::uint64_t appended() const;

    const std::string &path() const { return _path; }

  private:
    void open(std::uint64_t truncate_to, const std::string &header);
    void sync();                    // caller holds mu

    std::string _path;
    Options opts;
    mutable std::mutex mu;
    int fd = -1;                    ///< POSIX descriptor (-1 = closed)
    std::string buffer;             ///< frames not yet written
    unsigned unsynced = 0;          ///< records since the last sync
    std::uint64_t records = 0;
};

/**
 * ResultSink decorator implementing the write-ahead order: each record
 * is appended to the journal first, then forwarded to the inner sink.
 * A null journal degrades to pure pass-through, so callers can wire
 * the sink unconditionally.  end() flushes the journal before the
 * inner sink finalises.
 */
class JournalingSink : public ResultSink
{
  public:
    JournalingSink(JournalWriter *journal, ResultSink *inner)
        : journal(journal), inner(inner)
    {
    }

    void begin(const Campaign &campaign) override
    {
        if (inner)
            inner->begin(campaign);
    }

    void record(const JobSpec &spec, const JobResult &result) override
    {
        if (journal)
            journal->append(result);
        if (inner)
            inner->record(spec, result);
    }

    void end() override
    {
        if (journal)
            journal->flush();
        if (inner)
            inner->end();
    }

  private:
    JournalWriter *journal;
    ResultSink *inner;
};

} // namespace rmt

#endif // RMTSIM_RUNNER_JOURNAL_HH
