/**
 * @file
 * Lexer of the kernel DSL (docs/KERNEL_DSL.md): turns `.mk` text into a
 * token stream with line/column positions, so every later stage can
 * attach an exact source location to its diagnostics.
 */

#ifndef MTDAE_WORKLOAD_DSL_LEXER_HH
#define MTDAE_WORKLOAD_DSL_LEXER_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace mtdae::dsl {

/**
 * A diagnostic from any stage of the DSL front end (lexer, parser,
 * interpreter). Unlike the simulator's MTDAE_PANIC paths, DSL
 * errors are recoverable — a bad kernel file is user input, and the
 * tests (and fuzzer) assert messages without dying — so they travel as
 * exceptions. what() renders as "line:col: message".
 */
class DslError : public std::runtime_error
{
  public:
    DslError(int error_line, int error_col, const std::string &msg)
        : std::runtime_error(std::to_string(error_line) + ":" +
                             std::to_string(error_col) + ": " + msg),
          line(error_line), col(error_col), message(msg)
    {}

    int line;             ///< 1-based source line.
    int col;              ///< 1-based source column.
    std::string message;  ///< The message without the position prefix.
};

/** One lexical token. */
struct Token
{
    enum class Kind : std::uint8_t {
        Ident,    ///< Unreserved identifier.
        Keyword,  ///< Reserved word (see dslKeywords()).
        Number,   ///< Numeric literal; value in num.
        Punct,    ///< Punctuation/operator; spelling in text.
        Eof,      ///< End of input.
    };

    Kind kind = Kind::Eof;
    std::string text;  ///< Spelling (idents, keywords, puncts).
    double num = 0.0;  ///< Value (numbers only), suffix applied.
    int line = 1;      ///< 1-based source line.
    int col = 1;       ///< 1-based source column.
};

/**
 * The reserved words of the kernel DSL, sorted lexicographically. The
 * docs-drift test locks this list against the table in
 * docs/KERNEL_DSL.md in both directions.
 */
const std::vector<std::string> &dslKeywords();

/** True when @p word is a reserved word. */
bool isDslKeyword(const std::string &word);

/**
 * Tokenize @p text. Comments run from '#' to end of line; numeric
 * literals take an optional K/M/G (binary) suffix.
 *
 * @throws DslError on a malformed token
 */
std::vector<Token> lex(const std::string &text);

} // namespace mtdae::dsl

#endif // MTDAE_WORKLOAD_DSL_LEXER_HH
