#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace qccd
{

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &member : members)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

std::string
jsonKindName(JsonValue::Kind kind)
{
    switch (kind) {
      case JsonValue::Kind::Object: return "object";
      case JsonValue::Kind::Array: return "array";
      case JsonValue::Kind::String: return "string";
      case JsonValue::Kind::Number: return "number";
      case JsonValue::Kind::Bool: return "boolean";
      case JsonValue::Kind::Null: return "null";
    }
    return "value";
}

std::optional<int>
exactInt(double number)
{
    if (!(number >= std::numeric_limits<int>::min() &&
          number <= std::numeric_limits<int>::max()) ||
        std::trunc(number) != number)
        return std::nullopt;
    return static_cast<int>(number);
}

std::optional<uint64_t>
exactUint64(double number)
{
    // 0x1p64 is 2^64, the first double past uint64_t's range.
    if (!(number >= 0 && number < 0x1p64) || std::trunc(number) != number)
        return std::nullopt;
    return static_cast<uint64_t>(number);
}

JsonParser::JsonParser(const std::string &source,
                       const std::string &origin)
    : src_(source), origin_(origin)
{
}

JsonValue
JsonParser::parseDocument()
{
    const JsonValue root = parseValue(0);
    skipSpace();
    check(pos_ >= src_.size(), "trailing content after document");
    return root;
}

void
JsonParser::failAt(const JsonValue &value, const std::string &msg) const
{
    fail(value.line, value.column, msg);
}

std::string
JsonParser::formatAt(const JsonValue &value, const std::string &msg) const
{
    std::ostringstream out;
    out << origin_ << ":" << value.line << ":" << value.column << ": "
        << msg;
    return out.str();
}

void
JsonParser::fail(int line, int column, const std::string &msg) const
{
    std::ostringstream out;
    out << origin_ << ":" << line << ":" << column << ": " << msg;
    throw ConfigError(out.str());
}

void
JsonParser::check(bool ok, const std::string &msg) const
{
    if (!ok)
        fail(line_, column_, msg);
}

char
JsonParser::advance()
{
    const char c = src_[pos_++];
    if (c == '\n') {
        ++line_;
        column_ = 1;
    } else {
        ++column_;
    }
    return c;
}

void
JsonParser::skipSpace()
{
    while (!atEnd()) {
        const char c = peek();
        if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
            advance();
        } else if (c == '#') {
            while (!atEnd() && peek() != '\n')
                advance();
        } else {
            break;
        }
    }
}

JsonValue
JsonParser::parseValue(int depth)
{
    check(depth < kMaxDepth, "spec nesting too deep");
    skipSpace();
    check(!atEnd(), "unexpected end of input (expected a value)");
    JsonValue value;
    value.line = line_;
    value.column = column_;
    const char c = peek();
    if (c == '{') {
        parseObject(value, depth);
    } else if (c == '[') {
        parseArray(value, depth);
    } else if (c == '"') {
        value.kind = JsonValue::Kind::String;
        value.text = parseString();
    } else if (c == '-' || (c >= '0' && c <= '9')) {
        parseNumber(value);
    } else if (std::isalpha(static_cast<unsigned char>(c))) {
        parseKeyword(value);
    } else {
        fail(line_, column_,
             std::string("unexpected character '") + c + "'");
    }
    return value;
}

void
JsonParser::parseObject(JsonValue &value, int depth)
{
    value.kind = JsonValue::Kind::Object;
    advance(); // '{'
    skipSpace();
    if (!atEnd() && peek() == '}') {
        advance();
        return;
    }
    while (true) {
        skipSpace();
        check(!atEnd() && peek() == '"',
              "expected a quoted object key");
        const int key_line = line_;
        const int key_column = column_;
        const std::string key = parseString();
        for (const auto &member : value.members)
            if (member.first == key)
                fail(key_line, key_column,
                     "duplicate key \"" + key + "\"");
        skipSpace();
        check(!atEnd() && peek() == ':', "expected ':' after key");
        advance();
        value.members.emplace_back(key, parseValue(depth + 1));
        skipSpace();
        check(!atEnd(), "unterminated object (expected ',' or '}')");
        if (peek() == ',') {
            advance();
            skipSpace();
            check(!atEnd(),
                  "unterminated object (expected ',' or '}')");
            if (peek() == '}') { // trailing comma
                advance();
                return;
            }
            continue;
        }
        check(peek() == '}', "expected ',' or '}' in object");
        advance();
        return;
    }
}

void
JsonParser::parseArray(JsonValue &value, int depth)
{
    value.kind = JsonValue::Kind::Array;
    advance(); // '['
    skipSpace();
    if (!atEnd() && peek() == ']') {
        advance();
        return;
    }
    while (true) {
        value.items.push_back(parseValue(depth + 1));
        skipSpace();
        check(!atEnd(), "unterminated array (expected ',' or ']')");
        if (peek() == ',') {
            advance();
            skipSpace();
            check(!atEnd(),
                  "unterminated array (expected ',' or ']')");
            if (peek() == ']') { // trailing comma
                advance();
                return;
            }
            continue;
        }
        check(peek() == ']', "expected ',' or ']' in array");
        advance();
        return;
    }
}

std::string
JsonParser::parseString()
{
    advance(); // opening quote
    std::string out;
    while (true) {
        check(!atEnd(), "unterminated string");
        const char c = advance();
        if (c == '"')
            return out;
        check(c != '\n', "unterminated string");
        if (c != '\\') {
            out.push_back(c);
            continue;
        }
        check(!atEnd(), "unterminated escape sequence");
        const char esc = advance();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          default:
            fail(line_, column_,
                 std::string("unsupported escape '\\") + esc + "'");
        }
    }
}

void
JsonParser::parseNumber(JsonValue &value)
{
    value.kind = JsonValue::Kind::Number;
    const size_t start = pos_;
    auto digits = [&]() {
        size_t n = 0;
        while (!atEnd() && peek() >= '0' && peek() <= '9') {
            advance();
            ++n;
        }
        check(n > 0, "malformed number");
    };
    if (peek() == '-')
        advance();
    digits();
    if (!atEnd() && peek() == '.') {
        advance();
        digits();
    }
    if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
        advance();
        if (!atEnd() && (peek() == '+' || peek() == '-'))
            advance();
        digits();
    }
    // from_chars is locale-independent and correctly rounded, so a
    // spec literal parses to the same double the C++ compiler gives
    // the equivalent source literal — required for bit-identical
    // spec-vs-bench reproductions.
    const char *first = src_.data() + start;
    const char *last = src_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value.number);
    check(ec == std::errc() && ptr == last, "number out of range");
    value.text.assign(first, last);
}

void
JsonParser::parseKeyword(JsonValue &value)
{
    std::string word;
    while (!atEnd() && std::isalpha(static_cast<unsigned char>(peek())))
        word.push_back(advance());
    if (word == "true") {
        value.kind = JsonValue::Kind::Bool;
        value.boolean = true;
    } else if (word == "false") {
        value.kind = JsonValue::Kind::Bool;
        value.boolean = false;
    } else if (word == "null") {
        value.kind = JsonValue::Kind::Null;
    } else {
        fail(value.line, value.column,
             "unknown keyword '" + word + "'");
    }
}

} // namespace qccd
