/**
 * @file
 * The one strict JSON reader: graph documents, reports, journal
 * records, protocol frames and traces all read through it.
 *
 * Reader is the tokenizer, and the only code that scans JSON
 * whitespace, strings and numbers. It pulls one token at a time from a
 * text it does not own, counting lines as it goes, so a consumer can
 * check each value as it arrives and build its own result with no
 * tree in between: nn::loadGraph reads graph documents that way. A
 * string without escapes is a view of the text; one with escapes is
 * decoded into a buffer. A number is a view of its raw source token,
 * and a plain one (an optional '-' and 1-19 digits) carries its value,
 * summed while it was scanned. toDouble(), toInt64() and toUInt64()
 * convert a token as std::from_chars does, falling back to strtod's
 * saturated result where from_chars reports out of range (1e999 reads
 * as inf, 1e-999 as 0), so 64-bit counters round-trip losslessly.
 * Nesting deeper than maxDepth is an Error, not a stack overflow.
 *
 * parse() builds a tree on a Reader, for everything else: it copies
 * the text once and returns a root Value that owns that copy and one
 * flat array of nodes in document order. A node is its kind, its
 * 1-based source line, a view into the owned text and the size of its
 * subtree, so a container's children follow it in the array and
 * stepping over a child is one addition; nothing else is allocated per
 * node. Escaped strings are decoded over their own source bytes in the
 * copy (decoding never lengthens a string), and numbers are converted
 * on request. Objects preserve entry order and keep duplicate keys, so
 * a strict consumer can detect both unknown and repeated fields.
 */

#ifndef HPIM_HARNESS_JSON_HH
#define HPIM_HARNESS_JSON_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace hpim::harness::json {

/** Malformed JSON text or a type/number conversion that cannot work. */
struct Error : std::runtime_error
{
    Error(const std::string &message, std::size_t line_number)
        : std::runtime_error("json: " + message + " (line "
                             + std::to_string(line_number) + ")"),
          line(line_number)
    {
    }

    std::size_t line; ///< 1-based source line of the offence
};

/**
 * Deepest container nesting a Reader accepts. The deepest document the
 * program writes is 6 levels (a served report's histogram buckets), so
 * this leaves ample room while bounding the parser's recursion.
 */
constexpr std::size_t maxDepth = 64;

/** One number token, as scanNumber() scanned it. */
struct Number
{
    std::string_view text; ///< the raw token, e.g. "-1.25e-3"
    std::uint64_t digits = 0; ///< the digits' value when plain
    bool plain = false; ///< an optional '-' and 1-19 digits, no more

    bool negative() const { return text.front() == '-'; }
};

namespace detail {

/** Step @p p over the decimal digits before @p end, folding them into
 *  @p digits (wrapping past 19 digits); @return how many there were. */
inline std::size_t
readDigits(const char *&p, const char *end, std::uint64_t &digits)
{
    const char *const first = p;
    for (; p != end; ++p) {
        const unsigned digit = static_cast<unsigned char>(*p) - '0';
        if (digit > 9)
            break;
        digits = digits * 10 + digit;
    }
    return static_cast<std::size_t>(p - first);
}

} // namespace detail

/**
 * @return the number token at the start of @p text: an optional '-',
 * digits, then an optional fraction and exponent, each as long as it
 * runs. Its text is empty when it has no integer digit: no number.
 */
inline Number
scanNumber(std::string_view text)
{
    const char *p = text.data();
    const char *const end = p + text.size();
    if (p != end && *p == '-')
        ++p;
    std::uint64_t digits = 0, fraction = 0;
    const std::size_t count = detail::readDigits(p, end, digits);
    bool plain = count - 1 < 19;
    if (p != end && *p == '.') {
        plain = false;
        ++p;
        detail::readDigits(p, end, fraction);
    }
    if (p != end && (*p == 'e' || *p == 'E')) {
        plain = false;
        ++p;
        if (p != end && (*p == '+' || *p == '-'))
            ++p;
        detail::readDigits(p, end, fraction);
    }
    if (count == 0)
        return {};
    return {std::string_view(text.data(),
                             static_cast<std::size_t>(p - text.data())),
            digits, plain};
}

namespace detail {

/** The conversions below for a token that is not plain. */
std::optional<double> toDouble(std::string_view token);
std::optional<std::uint64_t> toUInt64(std::string_view token);

} // namespace detail

/** @return @p number as a double, or nullopt when no conversion reads
 *  the token whole ("1e", "2E+"). */
inline std::optional<double>
toDouble(const Number &number)
{
    // A plain token is an exact uint64; converting it rounds to
    // nearest, as from_chars does, so the double is the same bit for
    // bit. Most numbers in a graph document take this path.
    if (!number.plain)
        return detail::toDouble(number.text);
    const double value = static_cast<double>(number.digits);
    return number.negative() ? -value : value;
}

/** @return @p number as an int64, or nullopt for a fraction, an
 *  exponent or overflow. */
std::optional<std::int64_t> toInt64(const Number &number);

/** @return @p number as a uint64, or nullopt for a '-', a fraction, an
 *  exponent or overflow. */
inline std::optional<std::uint64_t>
toUInt64(const Number &number)
{
    if (number.negative())
        return std::nullopt;
    // 19 digits never overflow.
    if (number.plain)
        return number.digits;
    return detail::toUInt64(number.text);
}

/**
 * A pull tokenizer over one text, which must outlive it. Each value
 * starts with peek(), whose byte says what the value is: '{' and '['
 * open containers (beginObject(), beginArray()), '"' a string, 't',
 * 'f' and 'n' a literal, anything else a number. Every method throws
 * Error, naming the current line, on text that is not JSON.
 *
 *   if (reader.beginObject(depth))
 *       do {
 *           std::string_view key = reader.key();
 *           reader.skip(depth + 1);
 *       } while (reader.nextMember());
 */
class Reader
{
  public:
    /** Read @p text, whose first byte is on line @p line. Throws Error
     *  for a text of 4 GiB or more (views, counts and lines are
     *  32-bit in a parsed document). */
    explicit Reader(std::string_view text, std::size_t line = 1);

    std::size_t line() const { return _line; }

    /** @return the text from the cursor on. */
    std::string_view rest() const
    {
        return {_p, static_cast<std::size_t>(_end - _p)};
    }

    /** Step over whitespace; @return the next byte. Throws at the end
     *  of the text. */
    char peek();

    /** Throw unless only whitespace is left. */
    void end();

    /**
     * Step into the object at the cursor (peek() returned '{'), nested
     * inside @p depth containers. @return true with the cursor at its
     * first key, or false, having stepped over an empty object.
     */
    bool beginObject(std::size_t depth);

    /** After a member's value: @return true at ',' with the cursor at
     *  the next key, or false, having stepped over the closing '}'. */
    bool nextMember();

    /** @return the key at the cursor, decoded as string(@p out) does,
     *  having stepped over it and its ':'. */
    std::string_view key(char *out = nullptr);

    /** At a key (beginObject() or nextMember() returned true): when
     *  the bytes at the cursor are @p name quoted, then ':', as compact
     *  text spells a key without escapes, step over them; @return
     *  whether they were. */
    bool tryKey(std::string_view name);

    /** As beginObject(), for the array at the cursor (peek() returned
     *  '['): true with the cursor at its first element. */
    bool beginArray(std::size_t depth);

    /** After an element: @return true at ',', or false, having stepped
     *  over the closing ']'. */
    bool nextElement();

    /**
     * @return the decoded string at the cursor (peek() returned '"'),
     * having stepped over it: a view of the text when it holds no
     * escape. An escaped string is decoded into @p out, which has room
     * for the string's source bytes (decoding never lengthens a string,
     * so a writable copy of those very bytes will do), or else into the
     * reader's buffer, which the next string overwrites.
     */
    std::string_view string(char *out = nullptr);

    /** @return the number token at the cursor, having stepped over it.
     *  The token is not checked further; converting it is. */
    Number number();

    /** Step over the literal @p word ("true", "false" or "null") at
     *  the cursor. */
    void literal(std::string_view word);

    /** Step over the value at the cursor, nested inside @p depth
     *  containers, checking its syntax as parse() would. */
    void skip(std::size_t depth);

  private:
    /** The bytes that end a plain run inside a string: the closing
     *  quote, an escape, and a raw newline (an error). */
    static constexpr std::array<bool, 256> kStringStop = [] {
        std::array<bool, 256> stop{};
        stop['"'] = stop['\\'] = stop['\n'] = true;
        return stop;
    }();

    [[noreturn]] void fail(const char *message) const;
    [[noreturn]] void tooDeep() const;
    void skipSpace();
    void open(std::size_t depth);
    /** string(@p out) from the first escape on; @p start is the first
     *  byte after the opening quote. */
    std::string_view escapedString(const char *start, char *out);
    unsigned hex4();

    const char *_p;
    const char *_end;
    std::size_t _line;
    std::string _decoded; ///< the last escaped string, decoded
};

inline void
Reader::skipSpace()
{
    // Every whitespace byte is at most ' ', so compact text leaves at
    // the first compare.
    for (; _p != _end && static_cast<unsigned char>(*_p) <= ' '; ++_p) {
        if (*_p == '\n')
            ++_line;
        else if (*_p != ' ' && *_p != '\t' && *_p != '\r')
            return;
    }
}

inline char
Reader::peek()
{
    skipSpace();
    if (_p == _end)
        fail("unexpected end of document");
    return *_p;
}

inline void
Reader::open(std::size_t depth)
{
    if (depth >= maxDepth)
        tooDeep();
    ++_p;
}

inline bool
Reader::beginObject(std::size_t depth)
{
    open(depth);
    if (peek() != '}')
        return true;
    ++_p;
    return false;
}

inline bool
Reader::nextMember()
{
    const char c = peek();
    ++_p;
    if (c == ',') {
        skipSpace();
        return true;
    }
    if (c != '}')
        fail("expected ',' or '}' in object");
    return false;
}

inline std::string_view
Reader::key(char *out)
{
    if (peek() != '"')
        fail("expected object key string");
    const std::string_view text = string(out);
    skipSpace();
    if (_p == _end || *_p != ':')
        fail("expected ':'");
    ++_p;
    return text;
}

inline bool
Reader::tryKey(std::string_view name)
{
    const std::size_t size = name.size();
    if (static_cast<std::size_t>(_end - _p) < size + 3 || _p[0] != '"'
        || _p[size + 1] != '"' || _p[size + 2] != ':'
        || std::memcmp(_p + 1, name.data(), size) != 0)
        return false;
    _p += size + 3;
    return true;
}

inline bool
Reader::beginArray(std::size_t depth)
{
    open(depth);
    if (peek() != ']')
        return true;
    ++_p;
    return false;
}

inline bool
Reader::nextElement()
{
    const char c = peek();
    ++_p;
    if (c == ',')
        return true;
    if (c != ']')
        fail("expected ',' or ']' in array");
    return false;
}

inline std::string_view
Reader::string(char *out)
{
    const char *const start = ++_p;
    while (_p != _end && !kStringStop[static_cast<unsigned char>(*_p)])
        ++_p;
    if (_p != _end && *_p == '"')
        return {start, static_cast<std::size_t>(_p++ - start)};
    return escapedString(start, out);
}

inline Number
Reader::number()
{
    const Number number = scanNumber(rest());
    if (number.text.empty())
        fail("expected a value");
    _p += number.text.size();
    return number;
}

class Value;

/** One object entry. */
struct Member
{
    std::string_view key;
    const Value &value;
};

/**
 * One JSON node. The root returned by parse() owns the document;
 * every other node lives in the root's array and is reached by
 * reference, so nodes cannot be copied.
 */
class Value
{
  public:
    enum class Kind : std::uint8_t {
        Null, Bool, Number, String, Array, Object
    };

    Value() = default;
    Value(Value &&other) noexcept;
    Value &operator=(Value &&other) noexcept;
    Value(const Value &) = delete;
    Value &operator=(const Value &) = delete;
    ~Value();

    Kind kind() const { return _kind; }
    /** @return 1-based line the token started on. */
    std::size_t line() const { return _line; }

    bool isNull() const { return _kind == Kind::Null; }
    bool isBool() const { return _kind == Kind::Bool; }
    bool isNumber() const { return _kind == Kind::Number; }
    bool isString() const { return _kind == Kind::String; }
    bool isArray() const { return _kind == Kind::Array; }
    bool isObject() const { return _kind == Kind::Object; }

    /** @return boolean contents; throws Error on kind mismatch. */
    bool asBool() const;

    /** @return decoded string contents; throws Error on kind
     *  mismatch. The view lives as long as the root. */
    std::string_view asString() const;

    /** @return the raw numeric token, e.g. "-1.25e-3"; throws Error
     *  on kind mismatch. */
    std::string_view numberText() const;

    /** @return numeric token as a double (toDouble()); throws Error on
     *  kind mismatch or a token that is not a whole number. */
    double asDouble() const;

    /** @return integral token as int64; throws Error on kind
     *  mismatch, a fractional value, or overflow. */
    std::int64_t asInt64() const;

    /** @return non-negative integral token as uint64; throws Error. */
    std::uint64_t asUInt64() const;

    /** @return element count of an array or entry count of an
     *  object; throws Error for scalars. */
    std::size_t size() const;

    /** @return element @p index of an array (a walk over the ones
     *  before it); throws Error on kind mismatch or out of range. */
    const Value &operator[](std::size_t index) const;

    /** @return first entry named @p key, or nullptr. Object only. */
    const Value *find(std::string_view key) const;

    /** @return entry named @p key; throws Error when absent. */
    const Value &at(std::string_view key) const;

    class ElementIterator;
    class MemberIterator;
    template <class Iterator> struct Range;

    /** Array elements in order; throws Error on kind mismatch. */
    Range<ElementIterator> elements() const;

    /** Object entries in order, duplicates included; throws Error on
     *  kind mismatch. */
    Range<MemberIterator> members() const;

  private:
    friend class Parser;
    friend Value parse(std::string_view text);
    struct Document;

    /** @return the first node after this one in document order. */
    const Value *children() const;
    void requireKind(Kind wanted) const;

    const char *_text = nullptr; ///< string/number/key bytes
    std::uint32_t _size = 0; ///< text length, or element/entry count
    std::uint32_t _span = 1; ///< nodes in this subtree, itself included
    std::uint32_t _line = 0;
    Kind _kind = Kind::Null;
    bool _boolean = false;
    std::unique_ptr<Document> _document; ///< root only
};

/** Text and nodes of one parsed document, owned by its root. */
struct Value::Document
{
    std::string text;
    std::vector<Value> nodes;
};

class Value::ElementIterator
{
  public:
    explicit ElementIterator(const Value *node) : _node(node) {}
    const Value &operator*() const { return *_node; }
    ElementIterator &
    operator++()
    {
        _node += _node->_span;
        return *this;
    }
    bool operator!=(const ElementIterator &o) const
    {
        return _node != o._node;
    }

  private:
    const Value *_node;
};

/** Steps over key/value node pairs. */
class Value::MemberIterator
{
  public:
    explicit MemberIterator(const Value *key) : _key(key) {}
    Member operator*() const
    {
        return {std::string_view(_key->_text, _key->_size), _key[1]};
    }
    MemberIterator &
    operator++()
    {
        _key += 1 + _key[1]._span;
        return *this;
    }
    bool operator!=(const MemberIterator &o) const
    {
        return _key != o._key;
    }

  private:
    const Value *_key;
};

template <class Iterator> struct Value::Range
{
    Iterator first, last;
    Iterator begin() const { return first; }
    Iterator end() const { return last; }
};

inline const Value *
Value::children() const
{
    return _document ? _document->nodes.data() + 1 : this + 1;
}

inline Value::Range<Value::ElementIterator>
Value::elements() const
{
    requireKind(Kind::Array);
    return {ElementIterator(children()),
            ElementIterator(children() + _span - 1)};
}

inline Value::Range<Value::MemberIterator>
Value::members() const
{
    requireKind(Kind::Object);
    return {MemberIterator(children()),
            MemberIterator(children() + _span - 1)};
}

/**
 * Parse one complete JSON document. Trailing non-whitespace after the
 * document is an Error, as is any syntax violation, nesting deeper
 * than maxDepth, or a text of 4 GiB or more.
 */
Value parse(std::string_view text);

/** Write @p text JSON-escaped (quotes, backslashes, control chars). */
void escape(std::string &out, std::string_view text);

/** @return the JSON name of @p kind: "null", "bool", "number", ... */
const char *kindName(Value::Kind kind);

} // namespace hpim::harness::json

#endif // HPIM_HARNESS_JSON_HH
