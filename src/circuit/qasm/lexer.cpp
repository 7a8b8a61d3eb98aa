#include "circuit/qasm/lexer.hpp"

#include <cctype>
#include <charconv>
#include <unordered_set>

#include "common/error.hpp"

namespace qccd::qasm
{

namespace
{

const std::unordered_set<std::string> kKeywords = {
    "OPENQASM", "include", "qreg", "creg", "gate", "opaque", "measure",
    "barrier", "reset", "if",
};

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool
isIdentBody(char c)
{
    return isIdentStart(c) ||
           std::isdigit(static_cast<unsigned char>(c)) != 0;
}

} // namespace

std::string
tokenKindName(TokenKind kind)
{
    switch (kind) {
      case TokenKind::Identifier: return "identifier";
      case TokenKind::Keyword: return "keyword";
      case TokenKind::Integer: return "integer";
      case TokenKind::Real: return "real";
      case TokenKind::Pi: return "pi";
      case TokenKind::LParen: return "'('";
      case TokenKind::RParen: return "')'";
      case TokenKind::LBracket: return "'['";
      case TokenKind::RBracket: return "']'";
      case TokenKind::LBrace: return "'{'";
      case TokenKind::RBrace: return "'}'";
      case TokenKind::Comma: return "','";
      case TokenKind::Semicolon: return "';'";
      case TokenKind::Arrow: return "'->'";
      case TokenKind::Plus: return "'+'";
      case TokenKind::Minus: return "'-'";
      case TokenKind::Star: return "'*'";
      case TokenKind::Slash: return "'/'";
      case TokenKind::StringLit: return "string";
      case TokenKind::EndOfFile: return "end of file";
    }
    throw InternalError("unknown TokenKind");
}

void
failAt(int line, int column, const std::string &msg)
{
    throw ConfigError("QASM parse error at line " + std::to_string(line) +
                      ", column " + std::to_string(column) + ": " + msg);
}

std::vector<Token>
tokenize(const std::string &source)
{
    std::vector<Token> tokens;
    int line = 1;
    int col = 1;
    size_t i = 0;
    const size_t n = source.size();

    auto make = [&](TokenKind kind, std::string text) {
        Token t;
        t.kind = kind;
        t.text = std::move(text);
        t.line = line;
        t.column = col;
        return t;
    };
    auto advance = [&](size_t count) {
        for (size_t k = 0; k < count && i < n; ++k, ++i) {
            if (source[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
    };

    while (i < n) {
        const char c = source[i];
        if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
            advance(1);
            continue;
        }
        if (c == '/' && i + 1 < n && source[i + 1] == '/') {
            while (i < n && source[i] != '\n')
                advance(1);
            continue;
        }
        if (isIdentStart(c)) {
            size_t j = i;
            while (j < n && isIdentBody(source[j]))
                ++j;
            std::string word = source.substr(i, j - i);
            TokenKind kind = TokenKind::Identifier;
            if (kKeywords.count(word))
                kind = TokenKind::Keyword;
            else if (word == "pi")
                kind = TokenKind::Pi;
            tokens.push_back(make(kind, word));
            advance(j - i);
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
            (c == '.' && i + 1 < n &&
             std::isdigit(static_cast<unsigned char>(source[i + 1])))) {
            size_t j = i;
            bool real = false;
            while (j < n) {
                const char d = source[j];
                if (std::isdigit(static_cast<unsigned char>(d)) != 0) {
                    ++j;
                } else if (d == '.' || d == 'e' || d == 'E') {
                    real = true;
                    ++j;
                    if (j < n && (source[j] == '+' || source[j] == '-') &&
                        (d == 'e' || d == 'E'))
                        ++j;
                } else {
                    break;
                }
            }
            // The whole lexeme must be one number: from_chars gives the
            // same correctly rounded double strtod does, but reports a
            // partial parse (`1.2.3`, `1e`) and overflow instead of
            // truncating or throwing std::out_of_range.
            const char *first = source.data() + i;
            const char *last = source.data() + j;
            Token t = make(real ? TokenKind::Real : TokenKind::Integer,
                           std::string(first, last));
            const auto [ptr, ec] = std::from_chars(first, last, t.numValue);
            if (ec == std::errc::result_out_of_range) [[unlikely]]
                failAt(line, col, "number '" + t.text + "' is out of range");
            if (ec != std::errc() || ptr != last) [[unlikely]]
                failAt(line, col, "malformed number '" + t.text + "'");
            tokens.push_back(std::move(t));
            advance(j - i);
            continue;
        }
        if (c == '"') {
            size_t j = i + 1;
            while (j < n && source[j] != '"')
                ++j;
            if (j == n)
                throw ConfigError("unterminated string literal at line " +
                                  std::to_string(line));
            tokens.push_back(make(TokenKind::StringLit,
                                  source.substr(i + 1, j - i - 1)));
            advance(j - i + 1);
            continue;
        }
        if (c == '-' && i + 1 < n && source[i + 1] == '>') {
            tokens.push_back(make(TokenKind::Arrow, "->"));
            advance(2);
            continue;
        }
        TokenKind kind;
        switch (c) {
          case '(': kind = TokenKind::LParen; break;
          case ')': kind = TokenKind::RParen; break;
          case '[': kind = TokenKind::LBracket; break;
          case ']': kind = TokenKind::RBracket; break;
          case '{': kind = TokenKind::LBrace; break;
          case '}': kind = TokenKind::RBrace; break;
          case ',': kind = TokenKind::Comma; break;
          case ';': kind = TokenKind::Semicolon; break;
          case '+': kind = TokenKind::Plus; break;
          case '-': kind = TokenKind::Minus; break;
          case '*': kind = TokenKind::Star; break;
          case '/': kind = TokenKind::Slash; break;
          default:
            throw ConfigError("illegal character '" + std::string(1, c) +
                              "' at line " + std::to_string(line) +
                              ", column " + std::to_string(col));
        }
        tokens.push_back(make(kind, std::string(1, c)));
        advance(1);
    }

    tokens.push_back(make(TokenKind::EndOfFile, ""));
    return tokens;
}

} // namespace qccd::qasm
