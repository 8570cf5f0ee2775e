#include "harness/json.hh"

#include <array>
#include <charconv>
#include <cstdio>
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

namespace {

/** The bytes that end a plain run inside a string: the closing
 *  quote, an escape, and a raw newline (an error). */
constexpr auto kStringStop = [] {
    std::array<bool, 256> stop{};
    stop['"'] = stop['\\'] = stop['\n'] = true;
    return stop;
}();

} // namespace

/** Recursive-descent parser appending nodes in document order. */
class Parser
{
  public:
    Parser(std::string &text, std::vector<Value> &nodes)
        : _p(text.data()), _end(text.data() + text.size()),
          _nodes(nodes)
    {
    }

    void
    document()
    {
        parseValue(0);
        skipSpace();
        if (_p != _end)
            fail("trailing characters after document");
    }

  private:
    [[noreturn]] void
    fail(const std::string &message) const
    {
        throw Error(message, _line);
    }

    void
    skipSpace()
    {
        // Every whitespace byte is at most ' ', so compact text leaves
        // at the first compare.
        for (; _p != _end && static_cast<unsigned char>(*_p) <= ' ';
             ++_p) {
            if (*_p == '\n')
                ++_line;
            else if (*_p != ' ' && *_p != '\t' && *_p != '\r')
                return;
        }
    }

    char
    peek()
    {
        if (_p == _end)
            fail("unexpected end of document");
        return *_p;
    }

    void
    expect(char c)
    {
        if (_p == _end || *_p != c)
            fail(std::string("expected '") + c + "'");
        ++_p;
    }

    bool
    consumeWord(const char *word)
    {
        char *q = _p;
        for (const char *w = word; *w; ++w, ++q)
            if (q == _end || *q != *w)
                return false;
        _p = q;
        return true;
    }

    /** Append a node of @p kind starting on the current line. */
    std::size_t
    push(Value::Kind kind)
    {
        Value &node = _nodes.emplace_back();
        node._kind = kind;
        node._line = static_cast<std::uint32_t>(_line);
        return _nodes.size() - 1;
    }

    /** Append a node holding the view [@p text, @p text + @p size). */
    void
    pushText(Value::Kind kind, std::size_t line, const char *text,
             std::size_t size)
    {
        Value &node = _nodes.emplace_back();
        node._kind = kind;
        node._line = static_cast<std::uint32_t>(line);
        node._text = text;
        node._size = static_cast<std::uint32_t>(size);
    }

    /** Append a container node, refusing to nest past maxDepth. */
    std::size_t
    open(Value::Kind kind, std::size_t depth)
    {
        if (depth >= maxDepth)
            fail("nesting deeper than " + std::to_string(maxDepth)
                 + " levels");
        return push(kind);
    }

    void
    close(std::size_t self, std::uint32_t count)
    {
        _nodes[self]._size = count;
        _nodes[self]._span =
            static_cast<std::uint32_t>(_nodes.size() - self);
    }

    /** Parse one value nested inside @p depth containers. */
    void
    parseValue(std::size_t depth)
    {
        skipSpace();
        switch (peek()) {
          case '{': parseObject(depth); break;
          case '[': parseArray(depth); break;
          case '"': {
            const std::size_t line = _line;
            auto [text, size] = parseString();
            pushText(Value::Kind::String, line, text, size);
            break;
          }
          case 't':
            if (!consumeWord("true"))
                fail("bad literal");
            _nodes[push(Value::Kind::Bool)]._boolean = true;
            break;
          case 'f':
            if (!consumeWord("false"))
                fail("bad literal");
            push(Value::Kind::Bool);
            break;
          case 'n':
            if (!consumeWord("null"))
                fail("bad literal");
            push(Value::Kind::Null);
            break;
          default: {
            const char *start = _p;
            parseNumber();
            pushText(Value::Kind::Number, _line, start,
                     static_cast<std::size_t>(_p - start));
            break;
          }
        }
    }

    void
    parseObject(std::size_t depth)
    {
        const std::size_t self = open(Value::Kind::Object, depth);
        expect('{');
        skipSpace();
        std::uint32_t count = 0;
        if (peek() == '}') {
            ++_p;
            close(self, count);
            return;
        }
        for (;;) {
            skipSpace();
            if (peek() != '"')
                fail("expected object key string");
            const std::size_t line = _line;
            auto [key, size] = parseString();
            pushText(Value::Kind::String, line, key, size);
            skipSpace();
            expect(':');
            parseValue(depth + 1);
            ++count;
            skipSpace();
            char c = peek();
            ++_p;
            if (c == '}')
                break;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
        close(self, count);
    }

    void
    parseArray(std::size_t depth)
    {
        const std::size_t self = open(Value::Kind::Array, depth);
        expect('[');
        skipSpace();
        std::uint32_t count = 0;
        if (peek() == ']') {
            ++_p;
            close(self, count);
            return;
        }
        for (;;) {
            parseValue(depth + 1);
            ++count;
            skipSpace();
            char c = peek();
            ++_p;
            if (c == ']')
                break;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
        close(self, count);
    }

    /** Decode the string at _p in place; @return its bytes. */
    std::pair<const char *, std::size_t>
    parseString()
    {
        expect('"');
        char *const start = _p;
        while (_p != _end && !kStringStop[static_cast<unsigned char>(*_p)])
            ++_p;
        char *out = _p;
        for (;;) {
            if (_p == _end)
                fail("unterminated string");
            char c = *_p++;
            if (c == '"')
                return {start, static_cast<std::size_t>(out - start)};
            if (c == '\n')
                fail("raw newline in string");
            if (c != '\\') {
                *out++ = c;
                continue;
            }
            if (_p == _end)
                fail("unterminated escape");
            char e = *_p++;
            switch (e) {
              case '"': *out++ = '"'; break;
              case '\\': *out++ = '\\'; break;
              case '/': *out++ = '/'; break;
              case 'b': *out++ = '\b'; break;
              case 'f': *out++ = '\f'; break;
              case 'n': *out++ = '\n'; break;
              case 'r': *out++ = '\r'; break;
              case 't': *out++ = '\t'; break;
              case 'u': out = appendCodepoint(out, parseHex4()); break;
              default: fail("unknown escape");
            }
        }
    }

    unsigned
    parseHex4()
    {
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            if (_p == _end)
                fail("unterminated \\u escape");
            char c = *_p++;
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

    /** UTF-8 of @p cp: at most 3 bytes, never more than the 6-byte
     *  escape it replaces. */
    static char *
    appendCodepoint(char *out, unsigned cp)
    {
        if (cp < 0x80) {
            *out++ = char(cp);
        } else if (cp < 0x800) {
            *out++ = char(0xc0 | (cp >> 6));
            *out++ = char(0x80 | (cp & 0x3f));
        } else {
            *out++ = char(0xe0 | (cp >> 12));
            *out++ = char(0x80 | ((cp >> 6) & 0x3f));
            *out++ = char(0x80 | (cp & 0x3f));
        }
        return out;
    }

    /** Step over a numeric token; conversion happens on request. */
    void
    parseNumber()
    {
        if (_p != _end && *_p == '-')
            ++_p;
        bool digits = false;
        while (_p != _end && *_p >= '0' && *_p <= '9') {
            ++_p;
            digits = true;
        }
        if (_p != _end && *_p == '.') {
            ++_p;
            while (_p != _end && *_p >= '0' && *_p <= '9')
                ++_p;
        }
        if (_p != _end && (*_p == 'e' || *_p == 'E')) {
            ++_p;
            if (_p != _end && (*_p == '+' || *_p == '-'))
                ++_p;
            while (_p != _end && *_p >= '0' && *_p <= '9')
                ++_p;
        }
        if (!digits)
            fail("expected a value");
    }

    char *_p;
    char *_end;
    std::vector<Value> &_nodes;
    std::size_t _line = 1;
};

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
    // An optional '-' and 1-19 digits is an exact uint64; converting
    // it rounds to nearest, as from_chars does, so the double is the
    // same bit for bit. Most numbers in a graph document take this
    // path.
    const bool negative = token.front() == '-';
    const std::size_t digits = token.size() - negative;
    if (digits - 1 < 19) {
        std::uint64_t integer = 0;
        std::size_t i = negative;
        for (; i < token.size(); ++i) {
            const unsigned digit =
                static_cast<unsigned char>(token[i]) - '0';
            if (digit > 9)
                break;
            integer = integer * 10 + digit;
        }
        if (i == token.size()) {
            const double value = static_cast<double>(integer);
            return negative ? -value : value;
        }
    }
    const char *const end = token.data() + token.size();
    double value = 0.0;
    auto [stop, ec] = std::from_chars(token.data(), end, value);
    if (stop != end
        || (ec != std::errc() && ec != std::errc::result_out_of_range))
        throw Error("malformed number '" + std::string(token) + "'",
                    _line);
    // Out of range: strtod saturates to +-inf or rounds to 0 / a
    // subnormal, which is what the loaders' checks expect.
    if (ec == std::errc::result_out_of_range)
        value = std::strtod(std::string(token).c_str(), nullptr);
    return value;
}

std::int64_t
Value::asInt64() const
{
    const std::string_view token = numberText();
    const char *const end = token.data() + token.size();
    std::int64_t value = 0;
    auto [stop, ec] = std::from_chars(token.data(), end, value);
    if (stop != end || ec != std::errc())
        throw Error("expected an integer, got '" + std::string(token)
                        + "'",
                    _line);
    return value;
}

std::uint64_t
Value::asUInt64() const
{
    const std::string_view token = numberText();
    if (token.front() == '-')
        throw Error("expected a non-negative integer, got '"
                        + std::string(token) + "'",
                    _line);
    const char *const end = token.data() + token.size();
    std::uint64_t value = 0;
    auto [stop, ec] = std::from_chars(token.data(), end, value);
    if (stop != end || ec != std::errc())
        throw Error("expected an integer, got '" + std::string(token)
                        + "'",
                    _line);
    return value;
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
    // Views, counts and lines are 32-bit.
    if (text.size() >= std::numeric_limits<std::uint32_t>::max())
        throw Error("document of 4 GiB or more", 1);
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
