/**
 * @file
 * The one strict JSON reader: graph documents, reports, journal
 * records, protocol frames and traces all parse through it.
 *
 * parse() copies the text once and returns a root Value that owns
 * that copy and one flat array of nodes in document order. A node is
 * its kind, its 1-based source line, a view into the owned text and
 * the size of its subtree, so a container's children follow it in the
 * array and stepping over a child is one addition; nothing else is
 * allocated per node. Strings are views with their escapes decoded in
 * place (decoding never lengthens a string). Numbers are views of
 * their raw source token, so 64-bit counters round-trip losslessly;
 * they are converted on request with std::from_chars, falling back to
 * strtod's saturated result where from_chars reports out of range
 * (1e999 reads as inf, 1e-999 as 0). Objects preserve entry order and
 * keep duplicate keys, so a strict consumer can detect both unknown
 * and repeated fields. Nesting deeper than maxDepth is an Error, not
 * a stack overflow.
 */

#ifndef HPIM_HARNESS_JSON_HH
#define HPIM_HARNESS_JSON_HH

#include <cstdint>
#include <memory>
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
 * Deepest container nesting parse() accepts. The deepest document the
 * program writes is 6 levels (a served report's histogram buckets), so
 * this leaves ample room while bounding the parser's recursion.
 */
constexpr std::size_t maxDepth = 64;

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

    /** @return numeric token as a double; throws Error on kind
     *  mismatch or a token that is not a whole number. */
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

} // namespace hpim::harness::json

#endif // HPIM_HARNESS_JSON_HH
