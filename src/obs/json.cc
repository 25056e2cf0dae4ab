#include "obs/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace thermostat
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value)) {
        return "0";
    }
    // Integral values print without a fraction so counters stay
    // exact; everything else keeps full double precision.
    if (value == std::floor(value) && std::fabs(value) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", value);
        return buf;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

bool
JsonValue::asBool(bool fallback) const
{
    return kind_ == Kind::Bool ? bool_ : fallback;
}

double
JsonValue::asNumber(double fallback) const
{
    return kind_ == Kind::Number ? number_ : fallback;
}

const std::string &
JsonValue::asString() const
{
    static const std::string kEmpty;
    return kind_ == Kind::String ? string_ : kEmpty;
}

const std::vector<JsonValue> &
JsonValue::elements() const
{
    static const std::vector<JsonValue> kEmpty;
    return kind_ == Kind::Array ? array_ : kEmpty;
}

const JsonValue &
JsonValue::member(const std::string &name) const
{
    static const JsonValue kNull;
    if (kind_ != Kind::Object) {
        return kNull;
    }
    const auto it = object_.find(name);
    return it != object_.end() ? it->second : kNull;
}

bool
JsonValue::hasMember(const std::string &name) const
{
    return kind_ == Kind::Object &&
           object_.find(name) != object_.end();
}

const std::map<std::string, JsonValue> &
JsonValue::members() const
{
    static const std::map<std::string, JsonValue> kEmpty;
    return kind_ == Kind::Object ? object_ : kEmpty;
}

/** Recursive-descent parser building the JsonValue DOM. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    bool
    parse(JsonValue *out, std::string *error)
    {
        skipWs();
        if (!value(out, 0)) {
            fillError(error);
            return false;
        }
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after document");
            fillError(error);
            return false;
        }
        return true;
    }

  private:
    static constexpr int kMaxDepth = 64;

    bool
    value(JsonValue *out, int depth)
    {
        if (depth > kMaxDepth) {
            return fail("nesting too deep");
        }
        if (pos_ >= text_.size()) {
            return fail("unexpected end of input");
        }
        switch (text_[pos_]) {
          case '{':
            return object(out, depth);
          case '[':
            return array(out, depth);
          case '"':
            out->kind_ = JsonValue::Kind::String;
            return string(&out->string_);
          case 't':
            out->kind_ = JsonValue::Kind::Bool;
            out->bool_ = true;
            return literal("true");
          case 'f':
            out->kind_ = JsonValue::Kind::Bool;
            out->bool_ = false;
            return literal("false");
          case 'n':
            out->kind_ = JsonValue::Kind::Null;
            return literal("null");
          default:
            out->kind_ = JsonValue::Kind::Number;
            return number(&out->number_);
        }
    }

    bool
    object(JsonValue *out, int depth)
    {
        out->kind_ = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string name;
            if (!string(&name)) {
                return false;
            }
            skipWs();
            if (peek() != ':') {
                return fail("expected ':' after member name");
            }
            ++pos_;
            skipWs();
            JsonValue member;
            if (!value(&member, depth + 1)) {
                return false;
            }
            out->object_[name] = std::move(member);
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    array(JsonValue *out, int depth)
    {
        out->kind_ = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            JsonValue element;
            if (!value(&element, depth + 1)) {
                return false;
            }
            out->array_.push_back(std::move(element));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    string(std::string *out)
    {
        if (peek() != '"') {
            return fail("expected string");
        }
        ++pos_;
        out->clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size()) {
                    return fail("unterminated escape");
                }
                const char esc = text_[pos_];
                switch (esc) {
                  case '"':
                  case '\\':
                  case '/':
                    *out += esc;
                    break;
                  case 'b':
                    *out += '\b';
                    break;
                  case 'f':
                    *out += '\f';
                    break;
                  case 'n':
                    *out += '\n';
                    break;
                  case 'r':
                    *out += '\r';
                    break;
                  case 't':
                    *out += '\t';
                    break;
                  case 'u': {
                    unsigned code = 0;
                    for (int i = 1; i <= 4; ++i) {
                        if (pos_ + i >= text_.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(
                                    text_[pos_ + i]))) {
                            return fail("bad \\u escape");
                        }
                        const char h = text_[pos_ + i];
                        code = code * 16 +
                               static_cast<unsigned>(
                                   std::isdigit(
                                       static_cast<unsigned char>(h))
                                       ? h - '0'
                                       : std::tolower(h) - 'a' + 10);
                    }
                    pos_ += 4;
                    // Exporters only emit \u00xx control escapes;
                    // anything wider degrades to '?' rather than
                    // growing a UTF-8 encoder here.
                    *out += code < 0x80
                                ? static_cast<char>(code)
                                : '?';
                    break;
                  }
                  default:
                    return fail("bad escape character");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return fail("raw control character in string");
            } else {
                *out += c;
            }
            ++pos_;
        }
        return fail("unterminated string");
    }

    bool
    number(double *out)
    {
        const std::size_t start = pos_;
        if (peek() == '-') {
            ++pos_;
        }
        if (!digits()) {
            return fail("malformed number");
        }
        if (peek() == '.') {
            ++pos_;
            if (!digits()) {
                return fail("malformed number fraction");
            }
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-') {
                ++pos_;
            }
            if (!digits()) {
                return fail("malformed number exponent");
            }
        }
        *out = std::strtod(text_.substr(start, pos_ - start).c_str(),
                           nullptr);
        return true;
    }

    bool
    digits()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0) {
            return fail("bad literal");
        }
        pos_ += len;
        return true;
    }

    bool
    fail(const char *what)
    {
        if (error_.empty()) {
            error_ = what;
            errorPos_ = pos_;
        }
        return false;
    }

    void
    fillError(std::string *error) const
    {
        if (error != nullptr) {
            *error = "offset " + std::to_string(errorPos_) + ": " +
                     (error_.empty() ? "parse error" : error_);
        }
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    std::string error_;
    std::size_t errorPos_ = 0;
};

bool
parseJson(const std::string &text, JsonValue *out,
          std::string *error)
{
    return JsonParser(text).parse(out, error);
}

bool
jsonWellFormed(const std::string &text)
{
    JsonValue scratch;
    return parseJson(text, &scratch, nullptr);
}

void
JsonWriter::comma()
{
    if (needComma_) {
        out_ += ',';
    }
    needComma_ = false;
}

void
JsonWriter::beginObject()
{
    comma();
    out_ += '{';
}

void
JsonWriter::endObject()
{
    out_ += '}';
    needComma_ = true;
}

void
JsonWriter::beginArray()
{
    comma();
    out_ += '[';
}

void
JsonWriter::endArray()
{
    out_ += ']';
    needComma_ = true;
}

void
JsonWriter::key(const std::string &name)
{
    comma();
    out_ += '"';
    out_ += jsonEscape(name);
    out_ += "\":";
}

void
JsonWriter::value(const std::string &s)
{
    comma();
    out_ += '"';
    out_ += jsonEscape(s);
    out_ += '"';
    needComma_ = true;
}

void
JsonWriter::value(const char *s)
{
    value(std::string(s));
}

void
JsonWriter::value(double d)
{
    comma();
    out_ += jsonNumber(d);
    needComma_ = true;
}

void
JsonWriter::value(std::uint64_t v)
{
    comma();
    out_ += std::to_string(v);
    needComma_ = true;
}

void
JsonWriter::value(bool b)
{
    comma();
    out_ += b ? "true" : "false";
    needComma_ = true;
}

void
JsonWriter::raw(const std::string &json)
{
    comma();
    out_ += json;
    needComma_ = true;
}

} // namespace thermostat
