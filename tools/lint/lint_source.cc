#include "lint_source.hh"

#include <cctype>

namespace thermostat
{
namespace lint
{

namespace
{

/** Tokenizer state carried across physical lines. */
enum class State
{
    Code,
    LineComment,  //!< may continue via trailing backslash
    BlockComment,
    String,       //!< ordinary "..."; may continue via backslash
    CharLit,
    RawString,    //!< R"delim(...)delim"; spans lines freely
};

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * True when the '"' at @p pos opens a raw string literal: it is
 * preceded by 'R' with an optional encoding prefix (u8, u, U, L)
 * and the prefix is not the tail of a longer identifier.
 */
bool
rawPrefixAt(const std::string &text, std::size_t pos)
{
    if (pos == 0 || text[pos - 1] != 'R') {
        return false;
    }
    std::size_t before = pos - 1; // index of 'R'
    if (before >= 2 && text[before - 2] == 'u' &&
        text[before - 1] == '8') {
        before -= 2;
    } else if (before >= 1 && (text[before - 1] == 'u' ||
                               text[before - 1] == 'U' ||
                               text[before - 1] == 'L')) {
        before -= 1;
    }
    return before == 0 || !identChar(text[before - 1]);
}

} // namespace

std::vector<LineView>
splitLines(const std::string &text)
{
    std::vector<LineView> lines;
    lines.emplace_back();
    State state = State::Code;
    std::string rawDelim;    // RawString: ")delim" closer to match
    std::string literalBody; // String: body accumulated on the line

    auto line = [&]() -> LineView & { return lines.back(); };

    auto newline = [&]() {
        switch (state) {
          case State::LineComment:
            // A line comment whose last character is a backslash
            // splices onto the next physical line (phase-2 line
            // continuation) and keeps commenting it out.
            if (line().raw.empty() || line().raw.back() != '\\') {
                state = State::Code;
            }
            break;
          case State::String:
          case State::CharLit:
            // Unterminated at end-of-line without a splice: be
            // error-tolerant and drop back to code.
            literalBody.clear();
            state = State::Code;
            break;
          default:
            break;
        }
        lines.emplace_back();
    };

    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if (c == '\n') {
            newline();
            continue;
        }
        line().raw += c;
        const std::size_t pos = line().raw.size() - 1;

        switch (state) {
          case State::Code:
            if (c == '/' && i + 1 < text.size()) {
                if (text[i + 1] == '/') {
                    state = State::LineComment;
                    line().raw += text[++i];
                    continue;
                }
                if (text[i + 1] == '*') {
                    state = State::BlockComment;
                    line().raw += text[++i];
                    continue;
                }
            }
            if (c == '"') {
                if (rawPrefixAt(line().raw, pos)) {
                    // Parse the open delimiter up to '('.
                    std::string delim;
                    std::size_t j = i + 1;
                    while (j < text.size() && text[j] != '(' &&
                           text[j] != '\n' && delim.size() < 16) {
                        delim += text[j];
                        line().raw += text[j];
                        ++j;
                    }
                    if (j < text.size() && text[j] == '(') {
                        line().raw += text[j];
                        i = j;
                        rawDelim = ")" + delim + "\"";
                        line().code += '"';
                        state = State::RawString;
                        continue;
                    }
                    // Malformed open: treat as ordinary string.
                    i = j - 1;
                }
                line().code += '"';
                literalBody.clear();
                state = State::String;
                continue;
            }
            if (c == '\'') {
                line().code += '\'';
                state = State::CharLit;
                continue;
            }
            line().code += c;
            break;

          case State::LineComment:
            break; // swallowed; newline() decides continuation

          case State::BlockComment:
            if (c == '*' && i + 1 < text.size() &&
                text[i + 1] == '/') {
                line().raw += text[++i];
                state = State::Code;
            }
            break;

          case State::String:
            if (c == '\\' && i + 1 < text.size()) {
                if (text[i + 1] == '\n') {
                    // Spliced string: the literal continues on the
                    // next physical line, so start a new LineView
                    // without newline()'s back-to-code reset.
                    lines.emplace_back();
                    ++i;
                    continue;
                }
                literalBody += c;
                literalBody += text[i + 1];
                line().raw += text[i + 1];
                line().code += "  ";
                ++i;
                continue;
            }
            if (c == '"') {
                line().code += '"';
                line().literals.push_back(literalBody);
                literalBody.clear();
                state = State::Code;
                continue;
            }
            literalBody += c;
            line().code += ' ';
            break;

          case State::CharLit:
            if (c == '\\' && i + 1 < text.size() &&
                text[i + 1] != '\n') {
                line().raw += text[i + 1];
                line().code += "  ";
                ++i;
                continue;
            }
            if (c == '\'') {
                line().code += '\'';
                state = State::Code;
                continue;
            }
            line().code += ' ';
            break;

          case State::RawString:
            // Look for the ")delim"" closer starting here.
            if (c == ')' &&
                text.compare(i, rawDelim.size(), rawDelim) == 0) {
                for (std::size_t k = 1; k < rawDelim.size(); ++k) {
                    line().raw += text[i + k];
                }
                i += rawDelim.size() - 1;
                line().code += '"';
                state = State::Code;
                continue;
            }
            break;
        }
    }
    return lines;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) {
        ++b;
    }
    while (e > b &&
           std::isspace(static_cast<unsigned char>(s[e - 1]))) {
        --e;
    }
    return s.substr(b, e - b);
}

} // namespace lint
} // namespace thermostat
