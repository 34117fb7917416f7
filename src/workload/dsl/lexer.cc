#include "workload/dsl/lexer.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace mtdae::dsl {

const std::vector<std::string> &
dslKeywords()
{
    static const std::vector<std::string> words = [] {
        std::vector<std::string> w = {
            // structure
            "kernel", "param", "stream", "reg", "let", "advance",
            "loop", "as", "if", "else",
            // streams
            "strided", "gather", "chain", "share", "index", "addr",
            // register classes
            "int", "fp",
            // memory / control statements
            "storef", "storei", "branch", "branchf", "prob", "skip",
            // operations
            "loadf", "loadi",
            "fadd", "fsub", "fmul", "fdiv", "fma", "fcmp", "fmov",
            "iadd", "isub", "imul", "ilogic", "ishift", "icmp",
            "movif", "movfi",
        };
        std::sort(w.begin(), w.end());
        return w;
    }();
    return words;
}

bool
isDslKeyword(const std::string &word)
{
    const auto &words = dslKeywords();
    return std::binary_search(words.begin(), words.end(), word);
}

namespace {

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identCont(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
digit(char c)
{
    return c >= '0' && c <= '9';
}

} // namespace

std::vector<Token>
lex(const std::string &text)
{
    std::vector<Token> out;
    int line = 1;
    int col = 1;
    std::size_t i = 0;

    auto advance = [&](std::size_t n) {
        for (std::size_t k = 0; k < n; ++k) {
            if (text[i + k] == '\n') {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        i += n;
    };

    while (i < text.size()) {
        const char c = text[i];
        if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
            advance(1);
            continue;
        }
        if (c == '#') {  // comment to end of line
            std::size_t n = 0;
            while (i + n < text.size() && text[i + n] != '\n')
                ++n;
            advance(n);
            continue;
        }

        Token tok;
        tok.line = line;
        tok.col = col;

        if (identStart(c)) {
            std::size_t n = 1;
            while (i + n < text.size() && identCont(text[i + n]))
                ++n;
            tok.text = text.substr(i, n);
            tok.kind = isDslKeyword(tok.text) ? Token::Kind::Keyword
                                              : Token::Kind::Ident;
            advance(n);
            out.push_back(std::move(tok));
            continue;
        }

        if (digit(c)) {
            std::size_t n = 1;
            while (i + n < text.size() && digit(text[i + n]))
                ++n;
            if (i + n < text.size() && text[i + n] == '.' &&
                i + n + 1 < text.size() && digit(text[i + n + 1])) {
                ++n;
                while (i + n < text.size() && digit(text[i + n]))
                    ++n;
            }
            const std::string digits = text.substr(i, n);
            double mult = 1.0;
            if (i + n < text.size()) {
                const char s = text[i + n];
                if (s == 'K')
                    mult = 1024.0;
                else if (s == 'M')
                    mult = 1024.0 * 1024.0;
                else if (s == 'G')
                    mult = 1024.0 * 1024.0 * 1024.0;
                if (mult != 1.0)
                    ++n;
            }
            // A trailing identifier character makes the literal
            // ambiguous (e.g. "4Kb", "12x"): reject it outright.
            if (i + n < text.size() && identCont(text[i + n]))
                throw DslError(line, col, "bad numeric literal '" +
                                              text.substr(i, n + 1) +
                                              "'");
            tok.kind = Token::Kind::Number;
            tok.text = text.substr(i, n);
            tok.num = std::strtod(digits.c_str(), nullptr) * mult;
            advance(n);
            out.push_back(std::move(tok));
            continue;
        }

        // Two-character operators first, then single punctuation.
        static const char *const two[] = {"==", "!=", "<=", ">="};
        bool matched = false;
        for (const char *op : two) {
            if (text.compare(i, 2, op) == 0) {
                out.push_back(Token{Token::Kind::Punct, op, 0.0, line, col});
                advance(2);
                matched = true;
                break;
            }
        }
        if (matched)
            continue;

        static const std::string singles = "=,(){}:+-*/%<>";
        if (singles.find(c) != std::string::npos) {
            tok.kind = Token::Kind::Punct;
            tok.text = std::string(1, c);
            advance(1);
            out.push_back(std::move(tok));
            continue;
        }

        throw DslError(line, col,
                       "unexpected character '" + std::string(1, c) +
                           "'");
    }

    Token eof;
    eof.kind = Token::Kind::Eof;
    eof.text = "<eof>";
    eof.line = line;
    eof.col = col;
    out.push_back(std::move(eof));
    return out;
}

} // namespace mtdae::dsl
