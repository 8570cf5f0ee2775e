#include "harness/json_writer.hh"

#include <charconv>
#include <limits>

#include "harness/json.hh"
#include "sim/logging.hh"

namespace hpim::harness::json {

namespace {

/** Room for any double formatDouble() writes. */
constexpr std::size_t kDoubleChars = 40;

/** Write @p value into @p buf as numberToString() spells it; @return
 *  the end of the text. */
char *
formatDouble(char (&buf)[kDoubleChars], double value)
{
    // Specified to print the characters "%.17g" prints in the "C"
    // locale, without printf's format parsing.
    return std::to_chars(buf, buf + kDoubleChars, value,
                         std::chars_format::general,
                         std::numeric_limits<double>::max_digits10)
        .ptr;
}

} // namespace

std::string
numberToString(double value)
{
    char buf[kDoubleChars];
    return std::string(buf, formatDouble(buf, value));
}

Writer::~Writer()
{
    // A half-written document is a bug in the caller, but a destructor
    // must not throw/abort during unwinding; leave the stream as-is.
}

void
Writer::preValue()
{
    panic_if(_root_done, "json writer: value after complete document");
    if (_expect_value) {
        _expect_value = false;
        return;
    }
    if (_stack.empty())
        return;
    panic_if(_stack.back() == Frame::Object,
             "json writer: object member needs key() first");
    if (!_first.back())
        _os << ',';
    _first.back() = false;
}

Writer &
Writer::beginObject()
{
    preValue();
    _os << '{';
    _stack.push_back(Frame::Object);
    _first.push_back(true);
    return *this;
}

Writer &
Writer::endObject()
{
    panic_if(_stack.empty() || _stack.back() != Frame::Object
                 || _expect_value,
             "json writer: endObject() without matching beginObject()");
    _os << '}';
    _stack.pop_back();
    _first.pop_back();
    if (_stack.empty())
        _root_done = true;
    return *this;
}

Writer &
Writer::beginArray()
{
    preValue();
    _os << '[';
    _stack.push_back(Frame::Array);
    _first.push_back(true);
    return *this;
}

Writer &
Writer::endArray()
{
    panic_if(_stack.empty() || _stack.back() != Frame::Array,
             "json writer: endArray() without matching beginArray()");
    _os << ']';
    _stack.pop_back();
    _first.pop_back();
    if (_stack.empty())
        _root_done = true;
    return *this;
}

Writer &
Writer::key(std::string_view name)
{
    panic_if(_stack.empty() || _stack.back() != Frame::Object
                 || _expect_value,
             "json writer: key() outside an object");
    if (!_first.back())
        _os << ',';
    _first.back() = false;
    writeQuoted(name, "\":");
    _expect_value = true;
    return *this;
}

Writer &
Writer::value(std::string_view text)
{
    preValue();
    writeQuoted(text, "\"");
    if (_stack.empty())
        _root_done = true;
    return *this;
}

Writer &
Writer::value(double number)
{
    preValue();
    char buf[kDoubleChars];
    const char *const end = formatDouble(buf, number);
    _os.write(buf, end - buf);
    if (_stack.empty())
        _root_done = true;
    return *this;
}

Writer &
Writer::value(std::int64_t number)
{
    preValue();
    _os << number;
    if (_stack.empty())
        _root_done = true;
    return *this;
}

Writer &
Writer::value(std::uint64_t number)
{
    preValue();
    _os << number;
    if (_stack.empty())
        _root_done = true;
    return *this;
}

Writer &
Writer::value(bool flag)
{
    preValue();
    _os << (flag ? "true" : "false");
    if (_stack.empty())
        _root_done = true;
    return *this;
}

void
Writer::writeQuoted(std::string_view text, std::string_view close)
{
    _quoted.assign(1, '"');
    escape(_quoted, text);
    _quoted += close;
    _os.write(_quoted.data(), static_cast<std::streamsize>(_quoted.size()));
}

bool
Writer::done() const
{
    return _root_done && _stack.empty() && !_expect_value;
}

} // namespace hpim::harness::json
