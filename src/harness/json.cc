#include "harness/json.hh"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <limits>

namespace hpim::harness::json {

const char *
kindName(Value::Kind kind)
{
    switch (kind) {
      case Value::Kind::Null:   return "null";
      case Value::Kind::Bool:   return "bool";
      case Value::Kind::Number: return "number";
      case Value::Kind::String: return "string";
      case Value::Kind::Array:  return "array";
      case Value::Kind::Object: return "object";
    }
    return "?";
}

Reader::Reader(std::string_view text, std::size_t line)
    : _p(text.data()), _end(text.data() + text.size()), _line(line)
{
    // Views, counts and lines are 32-bit in a parsed document.
    if (text.size() >= std::numeric_limits<std::uint32_t>::max())
        throw Error("document of 4 GiB or more", 1);
}

void
Reader::fail(const char *message) const
{
    throw Error(message, _line);
}

void
Reader::tooDeep() const
{
    throw Error("nesting deeper than " + std::to_string(maxDepth)
                    + " levels",
                _line);
}

void
Reader::end()
{
    skipSpace();
    if (_p != _end)
        fail("trailing characters after document");
}

void
Reader::literal(std::string_view word)
{
    if (static_cast<std::size_t>(_end - _p) < word.size()
        || std::string_view(_p, word.size()) != word)
        fail("bad literal");
    _p += word.size();
}

void
Reader::skip(std::size_t depth)
{
    switch (peek()) {
      case '{':
        if (beginObject(depth)) {
            do {
                key();
                skip(depth + 1);
            } while (nextMember());
        }
        return;
      case '[':
        if (beginArray(depth)) {
            do
                skip(depth + 1);
            while (nextElement());
        }
        return;
      case '"': string(); return;
      case 't': literal("true"); return;
      case 'f': literal("false"); return;
      case 'n': literal("null"); return;
      default: number(); return;
    }
}

std::string_view
Reader::escapedString(const char *start, char *out)
{
    if (!out) {
        // The source bytes up to the first unescaped quote or newline
        // bound the decoded string: decoding fails before passing one.
        const char *bound = _p;
        while (bound != _end && *bound != '"' && *bound != '\n')
            if (*bound++ == '\\' && bound != _end)
                ++bound;
        _decoded.resize(static_cast<std::size_t>(bound - start));
        out = _decoded.data();
        std::memcpy(out, start, static_cast<std::size_t>(_p - start));
    }
    char *next = out + (_p - start);
    for (;;) {
        // _p is at a stop byte or the end.
        if (_p == _end)
            fail("unterminated string");
        const char c = *_p++;
        if (c == '"')
            return {out, static_cast<std::size_t>(next - out)};
        if (c == '\n')
            fail("raw newline in string");
        if (_p == _end)
            fail("unterminated escape");
        switch (*_p++) {
          case '"': *next++ = '"'; break;
          case '\\': *next++ = '\\'; break;
          case '/': *next++ = '/'; break;
          case 'b': *next++ = '\b'; break;
          case 'f': *next++ = '\f'; break;
          case 'n': *next++ = '\n'; break;
          case 'r': *next++ = '\r'; break;
          case 't': *next++ = '\t'; break;
          case 'u': {
            // UTF-8 of the code point: at most 3 bytes, never more
            // than the 6-byte escape it replaces.
            const unsigned cp = hex4();
            if (cp < 0x80) {
                *next++ = char(cp);
            } else if (cp < 0x800) {
                *next++ = char(0xc0 | (cp >> 6));
                *next++ = char(0x80 | (cp & 0x3f));
            } else {
                *next++ = char(0xe0 | (cp >> 12));
                *next++ = char(0x80 | ((cp >> 6) & 0x3f));
                *next++ = char(0x80 | (cp & 0x3f));
            }
            break;
          }
          default: fail("unknown escape");
        }
        // In place, this moves the run down over the escapes before it.
        while (_p != _end
               && !kStringStop[static_cast<unsigned char>(*_p)])
            *next++ = *_p++;
    }
}

unsigned
Reader::hex4()
{
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
        if (_p == _end)
            fail("unterminated \\u escape");
        const char c = *_p++;
        value <<= 4;
        if (c >= '0' && c <= '9')
            value |= unsigned(c - '0');
        else if (c >= 'a' && c <= 'f')
            value |= unsigned(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            value |= unsigned(c - 'A' + 10);
        else
            fail("bad \\u escape digit");
    }
    return value;
}

std::optional<double>
detail::toDouble(std::string_view token)
{
    const char *const last = token.data() + token.size();
    double value = 0.0;
    auto [stop, ec] = std::from_chars(token.data(), last, value);
    if (stop != last
        || (ec != std::errc() && ec != std::errc::result_out_of_range))
        return std::nullopt;
    // Out of range: strtod saturates to +-inf or rounds to 0 / a
    // subnormal, which is what the loaders' checks expect.
    if (ec == std::errc::result_out_of_range)
        value = std::strtod(std::string(token).c_str(), nullptr);
    return value;
}

std::optional<std::uint64_t>
detail::toUInt64(std::string_view token)
{
    const char *const last = token.data() + token.size();
    std::uint64_t value = 0;
    auto [stop, ec] = std::from_chars(token.data(), last, value);
    if (stop != last || ec != std::errc())
        return std::nullopt;
    return value;
}

std::optional<std::int64_t>
toInt64(const Number &number)
{
    const char *const last = number.text.data() + number.text.size();
    std::int64_t value = 0;
    auto [stop, ec] = std::from_chars(number.text.data(), last, value);
    if (stop != last || ec != std::errc())
        return std::nullopt;
    return value;
}

/** Builds the flat node array of parse() from a Reader's tokens. */
class Parser
{
  public:
    Parser(std::string &text, std::vector<Value> &nodes)
        : _reader(text), _text(text), _nodes(nodes)
    {
    }

    void
    document()
    {
        parseValue(0);
        _reader.end();
    }

  private:
    /** Append a node of @p kind from @p line. */
    std::size_t
    push(Value::Kind kind, std::size_t line)
    {
        Value &node = _nodes.emplace_back();
        node._kind = kind;
        node._line = static_cast<std::uint32_t>(line);
        return _nodes.size() - 1;
    }

    /** Append a node holding the view @p text. */
    void
    pushText(Value::Kind kind, std::size_t line, std::string_view text)
    {
        Value &node = _nodes[push(kind, line)];
        node._text = text.data();
        node._size = static_cast<std::uint32_t>(text.size());
    }

    void
    close(std::size_t self, std::uint32_t count)
    {
        _nodes[self]._size = count;
        _nodes[self]._span =
            static_cast<std::uint32_t>(_nodes.size() - self);
    }

    /** Read the string or key at the cursor with @p read, decoding an
     *  escaped one over its own source bytes in the owned text. */
    template <class Read>
    std::string_view
    ownedString(Read read)
    {
        const std::size_t quote =
            static_cast<std::size_t>(_reader.rest().data() - _text.data());
        return (_reader.*read)(_text.data() + quote + 1);
    }

    /** Parse one value nested inside @p depth containers. */
    void
    parseValue(std::size_t depth)
    {
        const char first = _reader.peek();
        const std::size_t line = _reader.line();
        switch (first) {
          case '{': {
            const bool members = _reader.beginObject(depth);
            const std::size_t self = push(Value::Kind::Object, line);
            std::uint32_t count = 0;
            if (members) {
                do {
                    const std::size_t key_line = _reader.line();
                    pushText(Value::Kind::String, key_line,
                             ownedString(&Reader::key));
                    parseValue(depth + 1);
                    ++count;
                } while (_reader.nextMember());
            }
            close(self, count);
            break;
          }
          case '[': {
            const bool elements = _reader.beginArray(depth);
            const std::size_t self = push(Value::Kind::Array, line);
            std::uint32_t count = 0;
            if (elements) {
                do {
                    parseValue(depth + 1);
                    ++count;
                } while (_reader.nextElement());
            }
            close(self, count);
            break;
          }
          case '"':
            pushText(Value::Kind::String, line,
                     ownedString(&Reader::string));
            break;
          case 't':
            _reader.literal("true");
            _nodes[push(Value::Kind::Bool, line)]._boolean = true;
            break;
          case 'f':
            _reader.literal("false");
            push(Value::Kind::Bool, line);
            break;
          case 'n':
            _reader.literal("null");
            push(Value::Kind::Null, line);
            break;
          default:
            pushText(Value::Kind::Number, line, _reader.number().text);
            break;
        }
    }

    Reader _reader;
    std::string &_text;
    std::vector<Value> &_nodes;
};

namespace {

/** @return @p token, a whole number token of the document, as
 *  scanNumber() returns it, reading only its integer digits. */
Number
wholeNumber(std::string_view token)
{
    const char *p = token.data() + (token.front() == '-');
    const char *const end = token.data() + token.size();
    std::uint64_t digits = 0;
    const std::size_t count = detail::readDigits(p, end, digits);
    return {token, digits, p == end && count - 1 < 19};
}

} // namespace

Value::Value(Value &&other) noexcept
    : _text(other._text), _size(other._size), _span(other._span),
      _line(other._line), _kind(other._kind),
      _boolean(other._boolean), _document(std::move(other._document))
{
    other._kind = Kind::Null;
    other._size = 0;
    other._span = 1;
}

Value &
Value::operator=(Value &&other) noexcept
{
    _text = other._text;
    _size = other._size;
    _span = other._span;
    _line = other._line;
    _kind = other._kind;
    _boolean = other._boolean;
    _document = std::move(other._document);
    other._kind = Kind::Null;
    other._size = 0;
    other._span = 1;
    return *this;
}

Value::~Value() = default;

void
Value::requireKind(Kind wanted) const
{
    if (_kind != wanted)
        throw Error(std::string("expected ") + kindName(wanted)
                        + ", got " + kindName(_kind),
                    _line);
}

bool
Value::asBool() const
{
    requireKind(Kind::Bool);
    return _boolean;
}

std::string_view
Value::asString() const
{
    requireKind(Kind::String);
    return {_text, _size};
}

std::string_view
Value::numberText() const
{
    requireKind(Kind::Number);
    return {_text, _size};
}

double
Value::asDouble() const
{
    const std::string_view token = numberText();
    if (const auto value = toDouble(wholeNumber(token)))
        return *value;
    throw Error("malformed number '" + std::string(token) + "'", _line);
}

std::int64_t
Value::asInt64() const
{
    const std::string_view token = numberText();
    if (const auto value = toInt64(wholeNumber(token)))
        return *value;
    throw Error("expected an integer, got '" + std::string(token) + "'",
                _line);
}

std::uint64_t
Value::asUInt64() const
{
    const std::string_view token = numberText();
    if (token.front() == '-')
        throw Error("expected a non-negative integer, got '"
                        + std::string(token) + "'",
                    _line);
    if (const auto value = toUInt64(wholeNumber(token)))
        return *value;
    throw Error("expected an integer, got '" + std::string(token) + "'",
                _line);
}

std::size_t
Value::size() const
{
    if (_kind != Kind::Array && _kind != Kind::Object)
        throw Error(std::string("expected array or object, got ")
                        + kindName(_kind),
                    _line);
    return _size;
}

const Value &
Value::operator[](std::size_t index) const
{
    requireKind(Kind::Array);
    if (index >= _size)
        throw Error("index " + std::to_string(index) + " out of range",
                    _line);
    const Value *node = children();
    for (; index > 0; --index)
        node += node->_span;
    return *node;
}

const Value *
Value::find(std::string_view key) const
{
    for (const auto &[name, value] : members())
        if (name == key)
            return &value;
    return nullptr;
}

const Value &
Value::at(std::string_view key) const
{
    const Value *value = find(key);
    if (!value)
        throw Error("missing key '" + std::string(key) + "'", _line);
    return *value;
}

Value
parse(std::string_view text)
{
    // Refuse a text of 4 GiB or more before copying it.
    const Reader size_check(text);
    auto document = std::make_unique<Value::Document>();
    document->text.assign(text);
    // About one node per 8 bytes of a graph document; denser text
    // grows the array.
    document->nodes.reserve(text.size() / 8 + 4);
    Parser(document->text, document->nodes).document();

    // The root takes over the first node; navigation starts at the
    // second, so the emptied slot is never read.
    Value root(std::move(document->nodes.front()));
    root._document = std::move(document);
    return root;
}

void
escape(std::string &out, std::string_view text)
{
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
}

} // namespace hpim::harness::json
