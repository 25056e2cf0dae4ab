/**
 * @file
 * Source-text model for thermostat_lint: a comment/literal-aware
 * tokenizer that turns a translation unit into per-line views, plus
 * the small string helpers every pass shares.
 *
 * The tokenizer is a whole-file state machine (not per-line): block
 * comments, raw string literals (`R"(...)"`, any delimiter, any
 * encoding prefix) and backslash line-continuations all carry state
 * across physical lines, so rule regexes can never match inside a
 * literal or a continued comment -- the two blind spots of the old
 * per-line scanner.
 */

#ifndef THERMOSTAT_LINT_SOURCE_HH
#define THERMOSTAT_LINT_SOURCE_HH

#include <string>
#include <vector>

namespace thermostat
{
namespace lint
{

/**
 * One physical line: raw text, a comment/literal-stripped code view
 * (literal *delimiters* survive, bodies are blanked so columns keep
 * their meaning), and the bodies of the ordinary double-quoted
 * literals that closed on the line.  Raw-string bodies are blanked
 * entirely and never recorded: they hold regex/JSON payloads, not
 * conventions.
 */
struct LineView
{
    std::string raw;
    std::string code;
    std::vector<std::string> literals;
};

/** Tokenize @p text into per-line views (see file comment). */
std::vector<LineView> splitLines(const std::string &text);

/** Strip leading/trailing whitespace. */
std::string trim(const std::string &s);

} // namespace lint
} // namespace thermostat

#endif // THERMOSTAT_LINT_SOURCE_HH
