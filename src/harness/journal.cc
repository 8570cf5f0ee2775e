#include "harness/journal.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "harness/failpoint.hh"
#include "harness/json.hh"
#include "harness/json_writer.hh"
#include "harness/report_io.hh"
#include "sim/hash.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace hpim::harness {

namespace {

// Injection sites for every durability decision this file makes
// (docs/RESILIENCE.md, "Host-IO fault injection"). All are plain
// relaxed-load no-ops until armed via --failpoints/HPIM_FAILPOINTS.
FailPoint fpAppendWrite("journal.append.write");
FailPoint fpAppendFsync("journal.append.fsync");
FailPoint fpHeaderWrite("journal.header.write");
FailPoint fpHeaderFsync("journal.header.fsync");
FailPoint fpHeaderRename("journal.header.rename");
FailPoint fpDirFsync("journal.dir.fsync");
FailPoint fpClaimOpen("journal.claim.open");

/**
 * fsync(2) through @p fp with bounded EINTR retry. Throws IoError on
 * a durable failure (EIO, ENOSPC, injected fsync-fail): an fsync the
 * kernel rejected means the bytes may not survive a crash, and no
 * retry can make them durable after the page-cache state is
 * undefined -- the caller must seal and escalate, not loop.
 */
void
syncAll(FailPoint &fp, int fd, const std::string &path)
{
    std::uint32_t stalled = 0;
    while (fpFsync(fp, fd) != 0) {
        if (errno != EINTR
            || ++stalled > failPointTransientRetryLimit)
            throw IoError("fsync", path, errno);
    }
}

/**
 * fsync a directory so created/renamed entries are durable. An
 * unopenable directory stays best-effort (the data files themselves
 * are synced, and some filesystems refuse O_DIRECTORY reads), but a
 * *failed* fsync on an open handle is a real durability loss and
 * propagates as a typed IoError.
 */
void
syncDir(const std::string &dir)
{
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    try {
        syncAll(fpDirFsync, fd, dir);
    } catch (...) {
        ::close(fd);
        throw;
    }
    ::close(fd);
}

std::string
headerJson(const SweepJournal::Header &header)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject();
    w.field("schema_version",
            static_cast<std::int64_t>(header.schemaVersion));
    w.field("base_seed", header.baseSeed);
    w.field("grid_hash", header.gridHash);
    w.field("points", header.points);
    w.field("shard_index", header.shardIndex);
    w.field("shard_count", header.shardCount);
    w.endObject();
    os << '\n';
    return os.str();
}

bool
fileExists(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

std::string
segmentBase(const std::string &dir, std::uint32_t segment)
{
    return dir + "/sweep-" + std::to_string(segment);
}

std::string
shardSuffix(std::uint32_t shard_index, std::uint32_t shard_count)
{
    // 1/1 keeps the legacy unsharded names, so single-process
    // journals (and every pre-shard journal consumer) are unchanged.
    if (shard_count <= 1)
        return "";
    return ".shard-" + std::to_string(shard_index) + "of"
           + std::to_string(shard_count);
}

} // namespace

// The primitives moved to sim/hash.hh (shared with graph signatures
// and the memo cache); these wrappers keep the journal API stable.
std::uint64_t
hashBytes(const void *data, std::size_t size, std::uint64_t seed)
{
    return hpim::sim::hashBytes(data, size, seed);
}

std::uint64_t
hashString(std::string_view text, std::uint64_t seed)
{
    return hpim::sim::hashString(text, seed);
}

std::uint64_t
hashU64(std::uint64_t value, std::uint64_t seed)
{
    return hpim::sim::hashU64(value, seed);
}

std::uint64_t
journalPointHash(std::uint64_t grid_hash, std::size_t index)
{
    return hpim::sim::Rng::streamSeed(grid_hash, index);
}

std::uint32_t
journalShardOwner(std::size_t index, std::uint32_t shard_count)
{
    if (shard_count <= 1)
        return 1;
    return static_cast<std::uint32_t>(index % shard_count) + 1;
}

std::string
journalMetaPath(const std::string &dir, std::uint32_t segment,
                std::uint32_t shard_index, std::uint32_t shard_count)
{
    return segmentBase(dir, segment)
           + shardSuffix(shard_index, shard_count) + ".meta.json";
}

std::string
journalRecordsPath(const std::string &dir, std::uint32_t segment,
                   std::uint32_t shard_index,
                   std::uint32_t shard_count)
{
    return segmentBase(dir, segment)
           + shardSuffix(shard_index, shard_count) + ".records.jsonl";
}

std::string
journalClaimPath(const std::string &dir, std::uint32_t segment,
                 std::size_t index)
{
    return segmentBase(dir, segment) + ".claim-"
           + std::to_string(index);
}

SweepJournal::Header
readJournalHeader(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw JournalFormatError("cannot read header", path);
    std::ostringstream os;
    os << is.rdbuf();

    SweepJournal::Header header;
    json::Value root;
    try {
        root = json::parse(os.str());
        header.schemaVersion =
            static_cast<int>(root.at("schema_version").asInt64());
    } catch (const json::Error &e) {
        throw JournalFormatError(e.what(), path, "schema_version");
    }
    // An unknown version cannot be parsed further; hand the version
    // back so the caller can produce the right diagnostic.
    if (header.schemaVersion != journalSchemaVersion)
        return header;
    try {
        header.baseSeed = root.at("base_seed").asUInt64();
        header.gridHash = root.at("grid_hash").asUInt64();
        header.points = root.at("points").asUInt64();
        header.shardIndex = static_cast<std::uint32_t>(
            root.at("shard_index").asUInt64());
        header.shardCount = static_cast<std::uint32_t>(
            root.at("shard_count").asUInt64());
    } catch (const json::Error &e) {
        throw JournalFormatError(e.what(), path);
    }
    if (header.shardCount == 0)
        throw JournalFormatError("shard_count must be >= 1", path,
                                 "shard_count");
    if (header.shardIndex == 0 || header.shardIndex > header.shardCount)
        throw JournalFormatError(
            "shard_index " + std::to_string(header.shardIndex)
                + " outside 1.." + std::to_string(header.shardCount),
            path, "shard_index");
    return header;
}

void
writeJournalHeaderFile(const std::string &path,
                       const SweepJournal::Header &header)
{
    // Atomic publish: a crash leaves either no header or a complete
    // one, never a torn file that a resume would misparse. Any IO
    // failure throws IoError with the leftover tmp file removed, so
    // a retried run starts from a clean slate.
    const std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        throw IoError("open", tmp, errno);
    try {
        fpWriteAll(fpHeaderWrite, fd, headerJson(header), tmp);
        syncAll(fpHeaderFsync, fd, tmp);
    } catch (...) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw;
    }
    ::close(fd);
    if (fpRename(fpHeaderRename, tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        throw IoError("rename", tmp, err);
    }
}

bool
scanJournalRecords(const std::string &path, std::uint64_t points,
                   std::vector<RawRecord> &out,
                   std::string *tail_note, std::size_t *good_bytes)
{
    if (tail_note)
        tail_note->clear();
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream os;
    os << is.rdbuf();
    const std::string text = os.str();

    std::size_t pos = 0;
    std::size_t keep = 0; // byte offset past the last good record
    std::size_t line_no = 0;
    while (pos < text.size()) {
        ++line_no;
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos) {
            // No terminator: a process died (or is still) mid-append.
            if (tail_note)
                *tail_note = "truncated tail record at line "
                             + std::to_string(line_no);
            break;
        }
        const std::string line = text.substr(pos, eol - pos);
        RawRecord record;
        try {
            json::Value root = json::parse(line);
            record.index =
                static_cast<std::size_t>(root.at("index").asUInt64());
            record.pointHash = root.at("point_hash").asUInt64();
            if (!root.find("report"))
                throw json::Error("record has no report", root.line());
            if (record.index >= points)
                throw json::Error("index " + std::to_string(record.index)
                                      + " out of range (grid has "
                                      + std::to_string(points)
                                      + " points)",
                                  root.line());
        } catch (const std::exception &e) {
            // A complete-looking but unparsable record: everything
            // after it is suspect too, so stop scanning here.
            if (tail_note)
                *tail_note = std::string("corrupt record at line ")
                             + std::to_string(line_no) + " (" + e.what()
                             + ")";
            break;
        }
        record.lineNo = line_no;
        record.line = line;
        out.push_back(std::move(record));
        pos = eol + 1;
        keep = pos;
    }
    if (good_bytes)
        *good_bytes = keep;
    return true;
}

SweepJournal::SweepJournal(const std::string &dir,
                           std::uint32_t segment, const Header &header)
{
    fatal_if(dir.empty(), "journal directory must not be empty");
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        throw IoError("mkdir", dir, errno);

    const std::string meta_path = journalMetaPath(
        dir, segment, header.shardIndex, header.shardCount);
    _recordsPath = journalRecordsPath(dir, segment, header.shardIndex,
                                      header.shardCount);

    if (fileExists(meta_path)) {
        checkHeader(meta_path, header);
        if (fileExists(_recordsPath))
            replay(_recordsPath, header);
    } else {
        writeJournalHeaderFile(meta_path, header);
    }

    _fd = ::open(_recordsPath.c_str(),
                 O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (_fd < 0)
        throw IoError("open", _recordsPath, errno);
    // Everything on disk right now (the replayed good prefix, or
    // nothing) is durable; seal() may cut back to this watermark.
    struct stat st{};
    if (::fstat(_fd, &st) == 0)
        _durableBytes = static_cast<std::size_t>(st.st_size);
    syncDir(dir);
}

SweepJournal::~SweepJournal()
{
    if (_fd >= 0)
        ::close(_fd);
}

void
SweepJournal::checkHeader(const std::string &path,
                          const Header &expect)
{
    Header found;
    try {
        found = readJournalHeader(path);
    } catch (const JournalFormatError &e) {
        fatal("journal header '", path, "' is corrupt (", e.what(),
              "); delete the journal directory to start over");
    }
    if (found.schemaVersion != expect.schemaVersion)
        fatal("journal '", path, "' has schema version ",
              found.schemaVersion, ", this build writes ",
              expect.schemaVersion,
              "; delete the journal directory to start over");
    if (found.baseSeed != expect.baseSeed)
        fatal("journal '", path, "' was written with --seed ",
              found.baseSeed, ", this run uses --seed ",
              expect.baseSeed,
              "; rerun with the original seed or delete the journal");
    if (found.gridHash != expect.gridHash)
        fatal("journal '", path,
              "' was written for a different sweep grid: this run "
              "expects grid hash ",
              expect.gridHash, ", found grid hash ", found.gridHash,
              "; results will not mix -- delete the journal or rerun "
              "the original binary");
    if (found.points != expect.points)
        fatal("journal '", path,
              "' was written for a different sweep grid: this run "
              "sweeps ",
              expect.points, " points, the journal holds ",
              found.points,
              "; results will not mix -- delete the journal or rerun "
              "the original binary");
    if (found.shardIndex != expect.shardIndex
        || found.shardCount != expect.shardCount)
        fatal("journal '", path, "' belongs to shard ",
              found.shardIndex, "/", found.shardCount,
              ", this run is shard ", expect.shardIndex, "/",
              expect.shardCount,
              "; every process must keep its original --shard "
              "assignment for the life of a journal");
}

void
SweepJournal::replay(const std::string &path, const Header &header)
{
    std::vector<RawRecord> raw;
    std::string tail_note;
    std::size_t keep = 0;
    if (!scanJournalRecords(path, header.points, raw, &tail_note,
                            &keep))
        fatal("cannot read journal records '", path, "'");
    std::size_t replayed_bytes = 0;
    for (const RawRecord &record : raw) {
        Record loaded;
        loaded.index = record.index;
        loaded.pointHash = record.pointHash;
        try {
            json::Value root = json::parse(record.line);
            loaded.report = reportFromJson(root.at("report"));
        } catch (const std::exception &e) {
            // The scanner checked syntax; a report that does not
            // round-trip means a schema change mid-journal. Stop at
            // it like any other bad record.
            tail_note = "unreadable report at line "
                        + std::to_string(record.lineNo) + " ("
                        + e.what() + ")";
            keep = replayed_bytes;
            break;
        }
        replayed_bytes += record.line.size() + 1;
        _loaded.push_back(std::move(loaded));
    }
    if (!tail_note.empty())
        std::cerr << "[journal] dropping " << tail_note << " of "
                  << path << "; resuming from the last good point\n";
    // Cut the file back to the last good record so this run's appends
    // start on a record boundary instead of gluing onto a torn tail.
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0
        && static_cast<std::size_t>(st.st_size) > keep)
        fatal_if(::truncate(path.c_str(),
                            static_cast<off_t>(keep)) != 0,
                 "cannot drop bad tail of journal '", path,
                 "': ", std::strerror(errno));
}

void
SweepJournal::append(std::size_t index, std::uint64_t point_hash,
                     const hpim::rt::ExecutionReport &report)
{
    // The record embeds the report via jsonString() rather than a
    // nested Writer: the journal round-trip tests depend on the
    // embedded object being byte-identical to writeJson() output.
    std::string line = "{\"index\":" + std::to_string(index)
                       + ",\"point_hash\":"
                       + std::to_string(point_hash) + ",\"report\":"
                       + jsonString(report) + "}\n";
    std::lock_guard<std::mutex> lock(_mutex);
    if (_sealed)
        throw IoError("append", _recordsPath, EROFS);
    try {
        fpWriteAll(fpAppendWrite, _fd, line, _recordsPath);
        syncAll(fpAppendFsync, _fd, _recordsPath);
    } catch (const std::bad_alloc &) {
        seal();
        throw IoError("append", _recordsPath, ENOMEM);
    } catch (const IoError &) {
        seal();
        throw;
    }
    _durableBytes += line.size();
}

void
SweepJournal::seal()
{
    // A durable failure leaves the tail of the records file in an
    // undefined state (partially written, or written but never
    // fsync'd). Cut back to the last record known durable so a
    // resumed run replays a clean prefix and re-simulates only the
    // genuinely lost points -- byte-identical to a SIGKILL crash at
    // the same spot. Best-effort: if even the truncate fails, the
    // replay scanner will drop the torn tail on resume anyway.
    _sealed = true;
    struct stat st{};
    if (::fstat(_fd, &st) == 0
        && static_cast<std::size_t>(st.st_size) > _durableBytes)
        (void)::ftruncate(_fd, static_cast<off_t>(_durableBytes));
}

std::optional<ShardClaim>
ShardClaim::tryAcquire(const std::string &dir, std::uint32_t segment,
                       std::size_t index, std::uint32_t shard_index)
{
    const std::string path = journalClaimPath(dir, segment, index);
    // The claim file may be retired (unlinked) by its owner between
    // our open and flock; detect the stale handle and retry against
    // the fresh inode. Bounded: a lost race is never an error, the
    // caller just rescans.
    for (int attempt = 0; attempt < 4; ++attempt) {
        int fd = fpOpen(fpClaimOpen, path.c_str(),
                        O_RDWR | O_CREAT, 0644);
        if (fd < 0) {
            if (errno == EINTR)
                continue; // transient; bounded by the attempt loop
            throw IoError("open", path, errno);
        }
        if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
            // A live process holds the point. (A SIGKILLed holder's
            // lock is released by the kernel, so its points do not
            // stay stuck -- no timeout heuristic needed.)
            ::close(fd);
            return std::nullopt;
        }
        struct stat fst{}, pst{};
        if (::fstat(fd, &fst) != 0 || ::stat(path.c_str(), &pst) != 0
            || fst.st_ino != pst.st_ino || fst.st_dev != pst.st_dev) {
            // We locked an inode that was already retired; whoever
            // retired it completed the point or a sibling re-created
            // the path. Start over against the current file.
            ::close(fd);
            continue;
        }
        // Ownership established. Record the claimant (shard, pid) --
        // purely diagnostic: if this process dies here, the leftover
        // bytes tell the next owner (and hpim_merge) who to blame.
        std::string note = "{\"index\":" + std::to_string(index)
                           + ",\"shard\":"
                           + std::to_string(shard_index) + ",\"pid\":"
                           + std::to_string(::getpid()) + "}\n";
        // Best effort, no fsync: the claim *lock* is what carries
        // ownership; these bytes only name the holder for post-mortem
        // diagnostics, so losing them must never fail the point.
        if (::ftruncate(fd, 0) == 0)
            (void)!::write(fd, note.data(), note.size());
        return ShardClaim(fd, path);
    }
    return std::nullopt;
}

ShardClaim::~ShardClaim()
{
    if (_fd < 0)
        return;
    // Unlink before releasing the lock: a sibling that acquires the
    // point afterwards re-creates the path fresh and re-checks the
    // record logs, so it can never act on our leftover claim bytes.
    ::unlink(_path.c_str());
    ::close(_fd);
}

ShardClaim::ShardClaim(ShardClaim &&other) noexcept
    : _fd(other._fd), _path(std::move(other._path))
{
    other._fd = -1;
}

ShardClaim &
ShardClaim::operator=(ShardClaim &&other) noexcept
{
    if (this != &other) {
        if (_fd >= 0) {
            ::unlink(_path.c_str());
            ::close(_fd);
        }
        _fd = other._fd;
        _path = std::move(other._path);
        other._fd = -1;
    }
    return *this;
}

} // namespace hpim::harness
