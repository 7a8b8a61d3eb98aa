/**
 * @file
 * The JSON-ish configuration reader shared by the `.sweep` spec parser
 * and the `qccd_lint` artifact analyzer.
 *
 * Hand-rolled on purpose: the container bakes in no JSON dependency,
 * the grammar we need is small, and owning the parser lets every
 * diagnostic carry origin:line:column. Two conveniences beyond strict
 * JSON, both common in config dialects: `#` comments to end of line
 * and trailing commas in objects/arrays.
 *
 * The `.sweep` parser (core/sweep_spec.cpp) is its one reader; qccd_lint
 * reaches it through that parser's collecting pass, which reports a
 * syntax error as a finding placed by JsonError's parts.
 */

#ifndef QCCD_COMMON_JSON_HPP
#define QCCD_COMMON_JSON_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace qccd
{

/**
 * What JsonParser throws: a ConfigError whose what() reads
 * "origin:line:column: message", with its parts kept for callers that
 * collect findings instead of stopping at the first.
 */
class JsonError : public ConfigError
{
  public:
    JsonError(const std::string &origin, int line, int column,
              const std::string &message);

    int line;
    int column;
    std::string message;
};

/** One parsed JSON value with its document position. */
struct JsonValue
{
    enum class Kind
    {
        Object,
        Array,
        String,
        Number,
        Bool,
        Null
    };

    Kind kind = Kind::Null;
    // Members keep declaration order: grid axes expand in the order the
    // file declares them, which fixes a spec's row order exactly.
    std::vector<std::pair<std::string, JsonValue>> members;
    std::vector<JsonValue> items;
    std::string text;
    double number = 0;
    bool boolean = false;
    int line = 0;
    int column = 0;

    /** Member lookup; nullptr when absent. @pre kind == Object */
    const JsonValue *find(const std::string &key) const;
};

/** Lowercase kind name for diagnostics ("object", "string", ...). */
std::string jsonKindName(JsonValue::Kind kind);

/**
 * @p number as an int, or nullopt unless it is an integer within int's
 * range. The range is checked before narrowing: converting an
 * out-of-range double to an integer type is undefined behaviour.
 */
std::optional<int> exactInt(double number);

/** Likewise for uint64_t: an integer in [0, 2^64). */
std::optional<uint64_t> exactUint64(double number);

/**
 * Recursive-descent JSON reader with positioned failures.
 *
 * Every error is a JsonError formatted "origin:line:column: message"
 * — malformed input never crashes. Numbers are parsed with from_chars
 * (locale-independent, correctly rounded), so a spec literal parses to
 * the same double the C++ compiler gives the equivalent source
 * literal; required for spec rows to stay bit-identical to golden/.
 */
class JsonParser
{
  public:
    JsonParser(const std::string &source, const std::string &origin);

    /** Parse one document; trailing garbage is an error. */
    JsonValue parseDocument();

    /** Raise a JsonError anchored at @p value's position. */
    [[noreturn]] void failAt(const JsonValue &value,
                             const std::string &msg) const;

    const std::string &origin() const { return origin_; }

  private:
    [[noreturn]] void fail(int line, int column,
                           const std::string &msg) const;

    void check(bool ok, const std::string &msg) const;
    bool atEnd() const { return pos_ >= src_.size(); }
    char peek() const { return src_[pos_]; }
    char advance();
    void skipSpace();
    JsonValue parseValue(int depth);
    void parseObject(JsonValue &value, int depth);
    void parseArray(JsonValue &value, int depth);
    std::string parseString();
    void parseNumber(JsonValue &value);
    void parseKeyword(JsonValue &value);

    static constexpr int kMaxDepth = 64;

    const std::string &src_;
    std::string origin_;
    size_t pos_ = 0;
    int line_ = 1;
    int column_ = 1;
};

} // namespace qccd

#endif // QCCD_COMMON_JSON_HPP
