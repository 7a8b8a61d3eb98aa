/**
 * @file
 * Tokenizer for the OpenQASM 2.0 subset QCCDSim accepts.
 *
 * The paper's toolflow exposes an OpenQASM interface to high-level
 * frontends (Section VIII-A); this lexer plus parser.hpp replace those
 * frontends offline. Supported lexemes: identifiers, keywords, integer
 * and real literals, `pi`, punctuation, operators (+ - * /), comments
 * (`//` to end of line) and the `OPENQASM 2.0;` header.
 */

#ifndef QCCD_CIRCUIT_QASM_LEXER_HPP
#define QCCD_CIRCUIT_QASM_LEXER_HPP

#include <string>
#include <vector>

namespace qccd::qasm
{

/** Token categories. */
enum class TokenKind
{
    Identifier,
    Keyword,    ///< OPENQASM, include, qreg, creg, gate, measure, barrier
    Integer,
    Real,
    Pi,
    LParen, RParen,
    LBracket, RBracket,
    LBrace, RBrace,
    Comma, Semicolon, Arrow,
    Plus, Minus, Star, Slash,
    StringLit,
    EndOfFile
};

/** One token with source position for diagnostics. */
struct Token
{
    TokenKind kind = TokenKind::EndOfFile;
    std::string text;
    double numValue = 0; ///< for Integer/Real
    int line = 0;
    int column = 0;
};

/**
 * Tokenize @p source.
 *
 * @throws ConfigError with line/column info on illegal characters and
 *         on number literals that are malformed (`1.2.3`, `1e`) or out
 *         of double range (`1e999`).
 */
std::vector<Token> tokenize(const std::string &source);

/** Printable name of a token kind (for error messages). */
std::string tokenKindName(TokenKind kind);

/**
 * Throw the ConfigError every positioned QASM diagnostic uses:
 * "QASM parse error at line L, column C: msg".
 */
[[noreturn]] void failAt(int line, int column, const std::string &msg);

} // namespace qccd::qasm

#endif // QCCD_CIRCUIT_QASM_LEXER_HPP
