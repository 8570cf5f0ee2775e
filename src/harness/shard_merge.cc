#include "harness/shard_merge.hh"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "harness/failpoint.hh"
#include "harness/json.hh"
#include "sim/read_all.hh"

namespace hpim::harness {

namespace {

FailPoint fpMergeRead("merge.read");

/**
 * Fire the merge.read fail point for one shard-file read, converting
 * an injected IoError into the ShardMergeError contract every caller
 * of mergeShardJournals() already handles.
 */
void
checkMergeRead(const std::string &path)
{
    try {
        fpCheck(fpMergeRead, "read", path);
    } catch (const IoError &e) {
        throw ShardMergeError(e.what(), path);
    }
}

/** One journal file discovered in the directory scan. */
struct ShardFile
{
    std::uint32_t shardIndex = 1;
    std::uint32_t shardCount = 1;
    std::string metaPath;
};

/** Parse a non-negative decimal; @return false on any other text. */
bool
parseNum(const std::string &text, std::uint64_t &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text.c_str(), &end, 10);
    return errno == 0 && end == text.c_str() + text.size()
           && text.find_first_not_of("0123456789") == std::string::npos;
}

/**
 * Decompose a journal file name. Recognized:
 *   sweep-<k>.meta.json
 *   sweep-<k>.shard-<i>of<N>.meta.json
 *   sweep-<k>.claim-<j>
 * Everything else (records files, temp files, strangers) is skipped;
 * record and claim paths are derived from the meta entries instead.
 */
bool
parseMetaName(const std::string &name, std::uint32_t &segment,
              std::uint32_t &shard_index, std::uint32_t &shard_count)
{
    const std::string prefix = "sweep-";
    const std::string suffix = ".meta.json";
    if (name.size() <= prefix.size() + suffix.size()
        || name.compare(0, prefix.size(), prefix) != 0
        || name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix)
               != 0)
        return false;
    std::string middle = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    std::uint64_t seg = 0, idx = 1, cnt = 1;
    std::size_t dot = middle.find('.');
    if (dot == std::string::npos) {
        if (!parseNum(middle, seg))
            return false;
    } else {
        std::string shard_part = middle.substr(dot + 1);
        if (!parseNum(middle.substr(0, dot), seg))
            return false;
        const std::string shard_prefix = "shard-";
        if (shard_part.compare(0, shard_prefix.size(), shard_prefix)
            != 0)
            return false;
        shard_part = shard_part.substr(shard_prefix.size());
        std::size_t of = shard_part.find("of");
        if (of == std::string::npos
            || !parseNum(shard_part.substr(0, of), idx)
            || !parseNum(shard_part.substr(of + 2), cnt))
            return false;
    }
    segment = static_cast<std::uint32_t>(seg);
    shard_index = static_cast<std::uint32_t>(idx);
    shard_count = static_cast<std::uint32_t>(cnt);
    return true;
}

bool
parseClaimName(const std::string &name, std::uint32_t &segment,
               std::uint64_t &index)
{
    const std::string prefix = "sweep-";
    if (name.compare(0, prefix.size(), prefix) != 0)
        return false;
    std::size_t claim = name.find(".claim-");
    if (claim == std::string::npos)
        return false;
    std::uint64_t seg = 0;
    if (!parseNum(name.substr(prefix.size(), claim - prefix.size()),
                  seg)
        || !parseNum(name.substr(claim + 7), index))
        return false;
    segment = static_cast<std::uint32_t>(seg);
    return true;
}

/**
 * A claim file left behind by a crashed owner must still be readable
 * (the complete `{"index":..,"shard":..,"pid":..}` record the owner
 * wrote under the lock); a torn or empty one means the directory was
 * damaged by something other than a clean SIGKILL and the merge
 * cannot vouch for the record set.
 */
void
checkClaimFile(const std::string &path, std::uint64_t points)
{
    checkMergeRead(path);
    std::ifstream is(path, std::ios::binary);
    std::optional<std::string> text;
    if (is)
        text = hpim::sim::readAll(is);
    if (!text)
        throw ShardMergeError("cannot read leftover claim record",
                              path);
    std::uint64_t index = 0;
    try {
        json::Value root = json::parse(*text);
        index = root.at("index").asUInt64();
        (void)root.at("shard").asUInt64();
    } catch (const json::Error &e) {
        throw ShardMergeError(std::string("torn claim record: ")
                                  + e.what(),
                              path);
    }
    if (index >= points)
        throw ShardMergeError("torn claim record: point "
                                  + std::to_string(index)
                                  + " outside the sweep grid",
                              path);
}

std::string
describeHeader(const SweepJournal::Header &h)
{
    std::ostringstream os;
    os << "seed " << h.baseSeed << ", grid hash " << h.gridHash
       << ", " << h.points << " points, shard " << h.shardIndex << "/"
       << h.shardCount;
    return os.str();
}

SegmentMerge
mergeSegment(const std::string &dir, std::uint32_t segment,
             const std::vector<ShardFile> &files,
             const std::vector<std::uint64_t> &claim_indices)
{
    // One coherent shard layout: either the single legacy unsharded
    // pair, or shards 1..N of one N.
    const ShardFile &first = files.front();
    for (const ShardFile &file : files) {
        if (file.shardCount != first.shardCount)
            throw ShardMergeError(
                "segment " + std::to_string(segment)
                    + " mixes shard layouts: found "
                    + std::to_string(file.shardCount) + "-way and "
                    + std::to_string(first.shardCount)
                    + "-way journals",
                file.metaPath, "shard_count");
    }
    const std::uint32_t shards = first.shardCount;

    // Headers: schema understood, all describing the same sweep, and
    // each filed under the shard its file name announces.
    std::vector<const ShardFile *> by_shard(shards + 1, nullptr);
    for (const ShardFile &file : files) {
        if (by_shard[file.shardIndex] != nullptr)
            throw ShardMergeError("duplicate journal for shard "
                                      + std::to_string(file.shardIndex)
                                      + "/" + std::to_string(shards),
                                  file.metaPath);
        by_shard[file.shardIndex] = &file;
    }
    // A shard may be missing entirely (a host that died and never
    // restarted); the record-level gap check below is what actually
    // proves its slice was stolen and completed.
    SweepJournal::Header ref;
    bool have_ref = false;
    for (std::uint32_t s = 1; s <= shards; ++s) {
        if (by_shard[s] == nullptr)
            continue;
        const std::string &path = by_shard[s]->metaPath;
        checkMergeRead(path);
        SweepJournal::Header header = readJournalHeader(path);
        if (header.schemaVersion != journalSchemaVersion)
            throw ShardMergeError(
                "journal has schema version "
                    + std::to_string(header.schemaVersion)
                    + ", this build merges version "
                    + std::to_string(journalSchemaVersion),
                path, "schema_version");
        if (header.shardIndex != s || header.shardCount != shards)
            throw ShardMergeError(
                "file name announces shard " + std::to_string(s) + "/"
                    + std::to_string(shards)
                    + " but the header says shard "
                    + std::to_string(header.shardIndex) + "/"
                    + std::to_string(header.shardCount),
                path, "shard_index");
        if (!have_ref) {
            ref = header;
            have_ref = true;
        } else if (header.baseSeed != ref.baseSeed) {
            throw ShardMergeError(
                "shards disagree on the sweep: expected "
                    + describeHeader(ref) + ", found "
                    + describeHeader(header),
                path, "base_seed");
        } else if (header.gridHash != ref.gridHash) {
            throw ShardMergeError(
                "shards disagree on the sweep: expected "
                    + describeHeader(ref) + ", found "
                    + describeHeader(header),
                path, "grid_hash");
        } else if (header.points != ref.points) {
            throw ShardMergeError(
                "shards disagree on the sweep: expected "
                    + describeHeader(ref) + ", found "
                    + describeHeader(header),
                path, "points");
        }
    }

    // Claim files must be complete stale records, not torn writes.
    for (std::uint64_t index : claim_indices)
        checkClaimFile(journalClaimPath(dir, segment, index),
                       ref.points);

    // Records: exactly one line per grid point. The line bytes are
    // identical no matter which shard computed the point (streamSeed
    // determinism + max_digits10 serialization), so byte-identical
    // duplicates are benign cross-host redundancy and anything else
    // is corruption.
    SegmentMerge merged;
    merged.segment = segment;
    merged.header = ref;
    merged.header.shardIndex = 1;
    merged.header.shardCount = 1;
    std::vector<const RawRecord *> slot(ref.points, nullptr);
    std::vector<std::vector<RawRecord>> per_shard(shards);
    std::vector<std::string> record_paths(shards);
    for (std::uint32_t s = 1; s <= shards; ++s) {
        const std::string path =
            journalRecordsPath(dir, segment, s, shards);
        record_paths[s - 1] = path;
        // A shard that crashed before its first append may have no
        // records file at all; the gap check below attributes any
        // missing points to it.
        checkMergeRead(path);
        scanJournalRecords(path, ref.points, per_shard[s - 1]);
        for (const RawRecord &record : per_shard[s - 1]) {
            if (record.index >= ref.points)
                throw ShardMergeError(
                    "record at line " + std::to_string(record.lineNo)
                        + " is for point "
                        + std::to_string(record.index)
                        + " of a " + std::to_string(ref.points)
                        + "-point sweep",
                    path);
            if (record.pointHash
                != journalPointHash(ref.gridHash, record.index))
                throw ShardMergeError(
                    "record at line " + std::to_string(record.lineNo)
                        + " (point " + std::to_string(record.index)
                        + ") belongs to a different sweep grid",
                    path);
            const RawRecord *&seen = slot[record.index];
            if (seen == nullptr) {
                seen = &record;
            } else if (seen->line != record.line) {
                throw ShardMergeError(
                    "conflicting records for point "
                        + std::to_string(record.index)
                        + ": line " + std::to_string(record.lineNo)
                        + " disagrees with an already-merged record "
                          "for the same point",
                    path);
            }
        }
    }
    for (std::uint64_t i = 0; i < ref.points; ++i) {
        if (slot[i] != nullptr)
            continue;
        const std::uint32_t owner = journalShardOwner(i, shards);
        throw ShardMergeError(
            "grid point " + std::to_string(i)
                + " was never recorded (owning shard "
                + std::to_string(owner) + "/" + std::to_string(shards)
                + "; is the sweep still running, or did every shard "
                  "fail this point?)",
            record_paths[owner - 1]);
    }
    merged.records.reserve(ref.points);
    for (std::uint64_t i = 0; i < ref.points; ++i)
        merged.records.push_back(*slot[i]);
    return merged;
}

} // namespace

std::vector<SegmentMerge>
mergeShardJournals(const std::string &dir)
{
    DIR *dp = ::opendir(dir.c_str());
    if (dp == nullptr)
        throw ShardMergeError(std::string("cannot open journal "
                                          "directory: ")
                                  + std::strerror(errno),
                              dir);
    std::map<std::uint32_t, std::vector<ShardFile>> segments;
    std::map<std::uint32_t, std::vector<std::uint64_t>> claims;
    while (dirent *entry = ::readdir(dp)) {
        const std::string name = entry->d_name;
        std::uint32_t segment = 0, shard_index = 1, shard_count = 1;
        std::uint64_t claim_index = 0;
        if (parseMetaName(name, segment, shard_index, shard_count)) {
            segments[segment].push_back(ShardFile{
                shard_index, shard_count, dir + "/" + name});
        } else if (parseClaimName(name, segment, claim_index)) {
            claims[segment].push_back(claim_index);
        }
    }
    ::closedir(dp);
    if (segments.empty())
        throw ShardMergeError("no sweep journal segments found", dir);

    std::vector<SegmentMerge> merged;
    merged.reserve(segments.size());
    for (auto &[segment, files] : segments) {
        std::sort(files.begin(), files.end(),
                  [](const ShardFile &a, const ShardFile &b) {
                      return a.shardIndex < b.shardIndex;
                  });
        std::vector<std::uint64_t> claim_indices;
        if (auto it = claims.find(segment); it != claims.end())
            claim_indices = it->second;
        merged.push_back(
            mergeSegment(dir, segment, files, claim_indices));
    }
    return merged;
}

void
writeMergedJournal(const std::string &out_dir,
                   const std::vector<SegmentMerge> &segments)
{
    if (::mkdir(out_dir.c_str(), 0755) != 0 && errno != EEXIST)
        throw ShardMergeError(
            std::string("cannot create output directory: ")
                + std::strerror(errno),
            out_dir);
    for (const SegmentMerge &merged : segments) {
        const std::string meta_path =
            journalMetaPath(out_dir, merged.segment);
        try {
            writeJournalHeaderFile(meta_path, merged.header);
        } catch (const IoError &e) {
            throw ShardMergeError(e.what(), meta_path);
        }
        const std::string records_path =
            journalRecordsPath(out_dir, merged.segment);
        std::ofstream os(records_path,
                         std::ios::binary | std::ios::trunc);
        if (!os)
            throw ShardMergeError("cannot write merged records file",
                                  records_path);
        for (const RawRecord &record : merged.records)
            os << record.line << '\n';
        os.flush();
        if (!os)
            throw ShardMergeError("write to merged records file "
                                  "failed",
                                  records_path);
    }
}

} // namespace hpim::harness
