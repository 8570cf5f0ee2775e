/**
 * @file
 * Degenerate-input coverage for the journal readers: empty files,
 * unreadable paths, header-only segments, schema-version mismatches,
 * truncated and corrupt record tails, and headers whose `points`
 * count disagrees with the records on disk. These are exactly the
 * shapes a crashed or half-provisioned sweep leaves behind
 * (docs/RESILIENCE.md), so the readers must degrade predictably
 * instead of trusting them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <unistd.h>

#include "harness/journal.hh"

namespace {

using namespace hpim;

/** Scratch file that cleans up after itself. */
class ScratchFile
{
  public:
    explicit ScratchFile(const std::string &tag)
        : _path("/tmp/hpim_journal_scan." + std::to_string(::getpid())
                + "." + tag)
    {
        std::remove(_path.c_str());
    }

    ~ScratchFile() { std::remove(_path.c_str()); }

    void
    write(const std::string &content)
    {
        std::ofstream os(_path, std::ios::trunc | std::ios::binary);
        os << content;
    }

    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

/** A syntactically valid record line (no trailing newline). */
std::string
recordLine(std::size_t index, std::uint64_t point_hash)
{
    return "{\"index\":" + std::to_string(index) + ",\"point_hash\":"
           + std::to_string(point_hash)
           + ",\"report\":{\"schema\":2}}";
}

// ------------------------------------------------------ readJournalHeader

TEST(JournalHeader, MissingFileThrows)
{
    EXPECT_THROW(
        harness::readJournalHeader("/tmp/hpim_no_such_journal.meta"),
        harness::JournalFormatError);
}

TEST(JournalHeader, EmptyFileThrows)
{
    ScratchFile file("empty_header");
    file.write("");
    EXPECT_THROW(harness::readJournalHeader(file.path()),
                 harness::JournalFormatError);
}

TEST(JournalHeader, GarbageThrows)
{
    ScratchFile file("garbage_header");
    file.write("not json at all\n");
    EXPECT_THROW(harness::readJournalHeader(file.path()),
                 harness::JournalFormatError);
}

TEST(JournalHeader, DirectoryCannotBeRead)
{
    // A directory opens as a file, but every read of it fails
    // (EISDIR): that is an unreadable header, not an empty document.
    const std::string dir = ::testing::TempDir();
    try {
        harness::readJournalHeader(dir);
        FAIL() << "a directory was read as a header";
    } catch (const harness::JournalFormatError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "journal file '" + dir + "': cannot read header");
        EXPECT_EQ(e.field, "");
    }
}

TEST(JournalHeader, WriteReadRoundTrip)
{
    ScratchFile file("roundtrip_header");
    harness::SweepJournal::Header header;
    header.baseSeed = 0xDEADBEEFCAFEF00DULL;
    header.gridHash = 42;
    header.points = 17;
    header.shardIndex = 2;
    header.shardCount = 3;
    harness::writeJournalHeaderFile(file.path(), header);

    harness::SweepJournal::Header read =
        harness::readJournalHeader(file.path());
    EXPECT_EQ(read.schemaVersion, harness::journalSchemaVersion);
    EXPECT_EQ(read.baseSeed, header.baseSeed);
    EXPECT_EQ(read.gridHash, header.gridHash);
    EXPECT_EQ(read.points, header.points);
    EXPECT_EQ(read.shardIndex, header.shardIndex);
    EXPECT_EQ(read.shardCount, header.shardCount);
}

TEST(JournalHeader, VersionMismatchFillsOnlySchemaVersion)
{
    ScratchFile file("old_header");
    // A plausible future layout: recognizable version field, other
    // fields unknown to this build.
    file.write("{\"schema_version\":99,\"base_seed\":7,"
               "\"grid_hash\":8,\"points\":9}\n");
    harness::SweepJournal::Header read =
        harness::readJournalHeader(file.path());
    EXPECT_EQ(read.schemaVersion, 99);
    // The caller must check schemaVersion; the rest stays default.
    EXPECT_EQ(read.baseSeed, 0u);
    EXPECT_EQ(read.gridHash, 0u);
    EXPECT_EQ(read.points, 0u);
}

TEST(JournalHeader, ShardFieldsBeyond32BitsAreRejected)
{
    // Truncated to 32 bits, these read as shard 1 of 2 and 1 of 1.
    const struct
    {
        const char *shards;
        const char *field;
    } cases[] = {
        {"\"shard_index\":4294967297,\"shard_count\":4294967298",
         "shard_index"},
        {"\"shard_index\":1,\"shard_count\":4294967297", "shard_count"},
    };
    ScratchFile file("wide_shard_header");
    for (const auto &c : cases) {
        SCOPED_TRACE(c.shards);
        file.write("{\"schema_version\":"
                   + std::to_string(harness::journalSchemaVersion)
                   + ",\"base_seed\":7,\"grid_hash\":8,\"points\":9,"
                   + c.shards + "}\n");
        try {
            harness::readJournalHeader(file.path());
            ADD_FAILURE() << "a 33-bit shard field was accepted";
        } catch (const harness::JournalFormatError &e) {
            EXPECT_EQ(e.field, c.field);
        }
    }
}

// ----------------------------------------------------- scanJournalRecords

TEST(JournalScan, MissingFileReturnsFalse)
{
    std::vector<harness::RawRecord> records;
    EXPECT_FALSE(harness::scanJournalRecords(
        "/tmp/hpim_no_such_journal.records", 4, records));
    EXPECT_TRUE(records.empty());
}

TEST(JournalScan, DirectoryReturnsFalse)
{
    // Unreadable (EISDIR), so not an empty journal: a replay must stop
    // instead of truncating the file to what it read.
    std::vector<harness::RawRecord> records;
    std::string tail_note = "sentinel";
    EXPECT_FALSE(harness::scanJournalRecords(::testing::TempDir(), 4,
                                             records, &tail_note));
    EXPECT_TRUE(records.empty());
    EXPECT_TRUE(tail_note.empty());
}

TEST(JournalScan, EmptyFileIsAValidEmptyJournal)
{
    // The header-only segment: meta written, no point finished yet.
    ScratchFile file("empty_records");
    file.write("");
    std::vector<harness::RawRecord> records;
    std::string tail_note = "sentinel";
    std::size_t good_bytes = 999;
    EXPECT_TRUE(harness::scanJournalRecords(file.path(), 4, records,
                                            &tail_note, &good_bytes));
    EXPECT_TRUE(records.empty());
    EXPECT_TRUE(tail_note.empty());
    EXPECT_EQ(good_bytes, 0u);
}

TEST(JournalScan, FullyValidFileParsesEveryRecord)
{
    ScratchFile file("good_records");
    const std::string content =
        recordLine(0, 111) + "\n" + recordLine(2, 222) + "\n";
    file.write(content);
    std::vector<harness::RawRecord> records;
    std::string tail_note;
    std::size_t good_bytes = 0;
    EXPECT_TRUE(harness::scanJournalRecords(file.path(), 4, records,
                                            &tail_note, &good_bytes));
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].index, 0u);
    EXPECT_EQ(records[0].pointHash, 111u);
    EXPECT_EQ(records[0].lineNo, 1u);
    EXPECT_EQ(records[1].index, 2u);
    EXPECT_EQ(records[1].lineNo, 2u);
    EXPECT_TRUE(tail_note.empty());
    EXPECT_EQ(good_bytes, content.size());
}

TEST(JournalScan, TruncatedTailIsDroppedAndReported)
{
    // The mid-append crash: a good record, then a record whose write
    // never reached its newline.
    ScratchFile file("truncated_records");
    const std::string good = recordLine(0, 111) + "\n";
    file.write(good + "{\"index\":1,\"point_ha");
    std::vector<harness::RawRecord> records;
    std::string tail_note;
    std::size_t good_bytes = 0;
    EXPECT_TRUE(harness::scanJournalRecords(file.path(), 4, records,
                                            &tail_note, &good_bytes));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].index, 0u);
    EXPECT_NE(tail_note.find("truncated"), std::string::npos);
    EXPECT_EQ(good_bytes, good.size());
}

TEST(JournalScan, CorruptLineStopsTheScan)
{
    // A complete but unparsable line poisons everything after it:
    // records past it are NOT returned even when well-formed.
    ScratchFile file("corrupt_records");
    const std::string good = recordLine(0, 111) + "\n";
    file.write(good + "garbage line\n" + recordLine(1, 222) + "\n");
    std::vector<harness::RawRecord> records;
    std::string tail_note;
    std::size_t good_bytes = 0;
    EXPECT_TRUE(harness::scanJournalRecords(file.path(), 4, records,
                                            &tail_note, &good_bytes));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_NE(tail_note.find("corrupt"), std::string::npos);
    EXPECT_EQ(good_bytes, good.size());
}

TEST(JournalScan, RecordWithoutReportFieldIsCorrupt)
{
    ScratchFile file("reportless_records");
    file.write("{\"index\":0,\"point_hash\":1}\n");
    std::vector<harness::RawRecord> records;
    std::string tail_note;
    EXPECT_TRUE(harness::scanJournalRecords(file.path(), 4, records,
                                            &tail_note));
    EXPECT_TRUE(records.empty());
    EXPECT_NE(tail_note.find("corrupt"), std::string::npos);
}

TEST(JournalScan, IndexBeyondHeaderPointsIsRejected)
{
    // The header/records disagreement: the header announces a
    // 2-point grid but a record claims index 5 -- e.g. a journal dir
    // reused for a different sweep. The out-of-range record (and
    // everything after it) must be dropped, not replayed into a
    // nonexistent grid slot.
    ScratchFile file("overrun_records");
    const std::string good = recordLine(1, 111) + "\n";
    file.write(good + recordLine(5, 222) + "\n");
    std::vector<harness::RawRecord> records;
    std::string tail_note;
    std::size_t good_bytes = 0;
    EXPECT_TRUE(harness::scanJournalRecords(file.path(), 2, records,
                                            &tail_note, &good_bytes));
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].index, 1u);
    EXPECT_NE(tail_note.find("out of range"), std::string::npos);
    EXPECT_EQ(good_bytes, good.size());
}

TEST(JournalScan, ZeroPointHeaderRejectsEveryRecord)
{
    // points = 0 means *no* index is valid.
    ScratchFile file("zero_points");
    file.write(recordLine(0, 111) + "\n");
    std::vector<harness::RawRecord> records;
    std::string tail_note;
    EXPECT_TRUE(harness::scanJournalRecords(file.path(), 0, records,
                                            &tail_note));
    EXPECT_TRUE(records.empty());
    EXPECT_NE(tail_note.find("out of range"), std::string::npos);
}

} // namespace
