/**
 * @file
 * Crash-safe, shardable sweep journal (docs/RESILIENCE.md,
 * "Process-level resilience"; docs/SWEEP_ENGINE.md, "Sharded
 * distributed sweeps").
 *
 * A journal directory holds one *segment* per report-producing sweep
 * a binary runs (fault_sweep runs two, most benches one). Unsharded,
 * segment k is a pair of files:
 *
 *   sweep-k.meta.json     header: schema version, base seed, grid
 *                         hash, point count, shard assignment.
 *                         Written once via atomic tmp-file + rename
 *                         (both fsync'd), so a crash never leaves a
 *                         half header.
 *   sweep-k.records.jsonl append-only log, one JSON record per
 *                         completed point:
 *                         {"index":i,"point_hash":h,"report":{...}}
 *                         Each append is a single write + fsync, so a
 *                         crash can only truncate the final record.
 *
 * With `--shard i/N` the same directory is shared by N cooperating
 * processes (or hosts on a shared filesystem). Shard i of N owns the
 * deterministic slice { j : j % N == i-1 } and writes its own pair
 *
 *   sweep-k.shard-<i>of<N>.meta.json
 *   sweep-k.shard-<i>of<N>.records.jsonl
 *
 * plus transient per-point *claim* files `sweep-k.claim-<j>` that
 * arbitrate work-stealing: ownership of a point is an exclusive
 * flock(2) on its claim file, so exactly one process simulates it at
 * a time and a SIGKILLed owner's claim is auto-released by the
 * kernel (the on-disk claim record then reads as *stale* and any
 * sibling may take the point over). `hpim_merge` validates the shard
 * headers and fuses the shard record logs back into the unsharded
 * layout above.
 *
 * On reopen the header is validated against the current run -- a
 * different grid, seed, point count, shard assignment or schema
 * version is rejected with a fatal error instead of silently mixing
 * results -- and the record log is replayed. A corrupt or truncated
 * tail record (the crash case) is dropped with a warning; everything
 * before it is reused. Reports are serialized with max_digits10
 * precision (report_io), so a resumed sweep is bit-identical to an
 * uninterrupted one.
 */

#ifndef HPIM_HARNESS_JOURNAL_HH
#define HPIM_HARNESS_JOURNAL_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "rt/execution_report.hh"

namespace hpim::harness {

/** Version of the journal directory layout and record format.
 *  v2 added the shard assignment (shard_index/shard_count) to the
 *  segment header. */
constexpr int journalSchemaVersion = 2;

/**
 * Identity of one journaled point: mixes (gridHash, index) so a
 * record can only replay into the grid slot it was computed for.
 */
std::uint64_t journalPointHash(std::uint64_t grid_hash,
                               std::size_t index);

/** 1-based shard that owns point @p index of an N-way sharded grid. */
std::uint32_t journalShardOwner(std::size_t index,
                                std::uint32_t shard_count);

/** Meta-file path of segment @p segment for one shard (1/1 uses the
 *  legacy unsharded name). */
std::string journalMetaPath(const std::string &dir,
                            std::uint32_t segment,
                            std::uint32_t shard_index = 1,
                            std::uint32_t shard_count = 1);

/** Records-file path; same naming rule as journalMetaPath. */
std::string journalRecordsPath(const std::string &dir,
                               std::uint32_t segment,
                               std::uint32_t shard_index = 1,
                               std::uint32_t shard_count = 1);

/** Claim-file path of point @p index of segment @p segment. */
std::string journalClaimPath(const std::string &dir,
                             std::uint32_t segment, std::size_t index);

/** A journal header or claim file that cannot be parsed. */
struct JournalFormatError : std::runtime_error
{
    JournalFormatError(const std::string &message, std::string path,
                       std::string field_name = {})
        : std::runtime_error("journal file '" + path + "': " + message
                             + (field_name.empty()
                                    ? ""
                                    : " (field '" + field_name + "')")),
          file(std::move(path)), field(std::move(field_name))
    {
    }

    std::string file;  ///< offending file
    std::string field; ///< offending header field, may be empty
};

/** One sweep's crash-safe record log. See file comment. */
class SweepJournal
{
  public:
    /** Identity of the sweep a segment belongs to. */
    struct Header
    {
        int schemaVersion = journalSchemaVersion;
        std::uint64_t baseSeed = 0;
        std::uint64_t gridHash = 0;
        std::uint64_t points = 0;
        std::uint32_t shardIndex = 1; ///< 1-based, <= shardCount
        std::uint32_t shardCount = 1;
    };

    /** One replayed record. */
    struct Record
    {
        std::size_t index = 0;
        std::uint64_t pointHash = 0;
        hpim::rt::ExecutionReport report;
    };

    /**
     * Open this shard's segment @p segment of the journal in @p dir,
     * creating the directory and files on first use. When the
     * segment already exists its header must equal @p header (fatal
     * otherwise) and its records are replayed into loaded().
     */
    SweepJournal(const std::string &dir, std::uint32_t segment,
                 const Header &header);

    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /** Records replayed from an earlier run of this segment. */
    const std::vector<Record> &loaded() const { return _loaded; }

    /**
     * Durably append one completed point. Thread-safe; the record is
     * fsync'd before return, so after a crash every append that
     * returned is replayable.
     *
     * Transient IO conditions (EINTR, short writes) are retried with
     * bounded backoff inside the call. A durable failure (ENOSPC,
     * EIO, a rejected fsync) *seals* the journal -- the records file
     * is cut back to the last fsync'd record, exactly the state a
     * SIGKILL at that point would leave -- and throws IoError. The
     * caller should escalate to resumableExitCode so the operator
     * can clear the condition and resume byte-identically; further
     * appends on a sealed journal throw immediately.
     */
    void append(std::size_t index, std::uint64_t point_hash,
                const hpim::rt::ExecutionReport &report);

  private:
    void checkHeader(const std::string &path, const Header &expect);
    void replay(const std::string &path, const Header &header);
    /** Cut the records file back to the durable watermark. */
    void seal();

    std::mutex _mutex;
    std::string _recordsPath;
    int _fd = -1;
    /** Bytes of _recordsPath known fsync'd (the seal watermark). */
    std::size_t _durableBytes = 0;
    bool _sealed = false;
    std::vector<Record> _loaded;
};

/**
 * Parse a segment header file. Throws JournalFormatError on an
 * unreadable or malformed file. When the file's schema_version
 * differs from journalSchemaVersion only schemaVersion is filled in
 * (older layouts cannot be parsed further); callers must check it
 * before trusting the other fields.
 */
SweepJournal::Header readJournalHeader(const std::string &path);

/** Atomically publish @p header at @p path (tmp + rename + fsync). */
void writeJournalHeaderFile(const std::string &path,
                            const SweepJournal::Header &header);

/** One syntactically valid record line of a records file. */
struct RawRecord
{
    std::size_t index = 0;
    std::uint64_t pointHash = 0;
    std::size_t lineNo = 0; ///< 1-based line in its file
    std::string line;       ///< exact record bytes, no trailing \n
};

/**
 * Tolerantly scan a records file: every record of the good prefix is
 * appended to @p out in file order. Scanning stops at the first
 * truncated or unparsable line (the mid-append crash, or a sibling
 * shard's in-flight write) -- @p tail_note, when non-null, receives a
 * one-line description of the dropped tail (empty when the whole
 * file parsed). @p good_bytes, when non-null, receives the byte
 * offset just past the last good record (what the file should be
 * truncated to on repair). @return false when the file does not
 * exist or cannot be read at all.
 */
bool scanJournalRecords(const std::string &path, std::uint64_t points,
                        std::vector<RawRecord> &out,
                        std::string *tail_note = nullptr,
                        std::size_t *good_bytes = nullptr);

/**
 * Exclusive ownership of one sweep point, arbitrated across shard
 * processes via flock(2) on the point's claim file.
 *
 * Ownership is granted only while the process holds the lock; a
 * SIGKILLed owner's lock is released by the kernel, so its points
 * become stealable without any timeout heuristic (the leftover claim
 * file -- the *stale claim* -- records which shard/pid died holding
 * it, purely for diagnostics). The destructor removes the claim file
 * and releases the lock, in that order, so by the time a sibling can
 * re-acquire the point either its record is durably journaled or the
 * owner abandoned it.
 */
class ShardClaim
{
  public:
    /**
     * Try to take ownership of point @p index of segment
     * @p segment. @return an engaged claim iff this process now owns
     * the point; disengaged when a live process already holds it.
     */
    static std::optional<ShardClaim>
    tryAcquire(const std::string &dir, std::uint32_t segment,
               std::size_t index, std::uint32_t shard_index);

    ~ShardClaim();

    ShardClaim(ShardClaim &&other) noexcept;
    ShardClaim &operator=(ShardClaim &&other) noexcept;
    ShardClaim(const ShardClaim &) = delete;
    ShardClaim &operator=(const ShardClaim &) = delete;

  private:
    ShardClaim(int fd, std::string path)
        : _fd(fd), _path(std::move(path))
    {
    }

    int _fd = -1;
    std::string _path;
};

} // namespace hpim::harness

#endif // HPIM_HARNESS_JOURNAL_HH
