/**
 * @file
 * A streaming JSON emitter shared by every serializer in the tree.
 *
 * One writer produces all machine-readable output -- execution
 * reports (harness/report_io), sweep-journal records
 * (harness/journal) and observability traces (obs/trace) -- so the
 * escaping rules and the lossless double format live in exactly one
 * place. Output is compact (no whitespace), doubles are printed with
 * max_digits10 significant digits so strtod() recovers the exact
 * value, and strings go through json::escape. Text goes straight to
 * the stream: a string is escaped into one buffer the writer reuses
 * and a double is formatted on the stack, so a document costs a few
 * allocations, not one or two per value. The writer validates
 * nesting as it goes: a key outside an object, a bare value where a
 * key is required, or an unbalanced end*() panics, because every
 * caller is program-generated output where such a slip is a bug.
 */

#ifndef HPIM_HARNESS_JSON_WRITER_HH
#define HPIM_HARNESS_JSON_WRITER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace hpim::harness::json {

/** @return @p value formatted with max_digits10 ("%.17g"): the
 *  shortest form strtod() maps back to the identical double. */
std::string numberToString(double value);

/** Streaming emitter; see file comment for the contract. */
class Writer
{
  public:
    explicit Writer(std::ostream &os) : _os(os) {}

    ~Writer();

    Writer(const Writer &) = delete;
    Writer &operator=(const Writer &) = delete;

    Writer &beginObject();
    Writer &endObject();
    Writer &beginArray();
    Writer &endArray();

    /** Emit an object key; the next call must produce its value. */
    Writer &key(std::string_view name);

    Writer &value(std::string_view text);
    Writer &value(const char *text) { return value(std::string_view(text)); }
    Writer &value(double number);
    Writer &value(std::int64_t number);
    Writer &value(std::uint64_t number);
    Writer &value(std::uint32_t number)
    { return value(static_cast<std::uint64_t>(number)); }
    Writer &value(std::int32_t number)
    { return value(static_cast<std::int64_t>(number)); }
    Writer &value(bool flag);

    /** key() + value() in one call, for every value overload. */
    template <typename T>
    Writer &
    field(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

    /** @return true once the single top-level value is complete. */
    bool done() const;

  private:
    enum class Frame : std::uint8_t { Object, Array };

    /** Comma/colon bookkeeping before a value or container start. */
    void preValue();

    /** Write '"', @p text escaped, then @p close. */
    void writeQuoted(std::string_view text, std::string_view close);

    std::ostream &_os;
    std::vector<Frame> _stack;
    std::vector<bool> _first;   ///< first element of each open frame
    bool _expect_value = false; ///< a key was just written
    bool _root_done = false;
    std::string _quoted; ///< writeQuoted()'s text, reused
};

} // namespace hpim::harness::json

#endif // HPIM_HARNESS_JSON_WRITER_HH
