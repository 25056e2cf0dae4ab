/**
 * @file
 * Minimal JSON helpers for the observability exporters.
 *
 * JsonWriter is a small append-only builder that handles string
 * escaping and number formatting.  parseJson() is a strict
 * recursive-descent parser into a small JsonValue DOM, for tools and
 * tests that read the exporters' output; jsonWellFormed() is the
 * same parser with the value thrown away.  No external dependency.
 */

#ifndef THERMOSTAT_OBS_JSON_HH
#define THERMOSTAT_OBS_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace thermostat
{

/** Escape @p s for inclusion inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** Format a double as a JSON number (no NaN/Inf; those become 0). */
std::string jsonNumber(double value);

/**
 * Strict syntax check of a complete JSON document (one value):
 * parseJson() with the result discarded.  Returns false on trailing
 * garbage, unbalanced structure, bad escapes, raw control characters,
 * malformed numbers or nesting deeper than 64 levels.
 */
bool jsonWellFormed(const std::string &text);

/**
 * Parsed JSON value: a small immutable DOM for tools that consume
 * the exporters' output (tools/perf_diff compares BENCH_*.json
 * baselines).  Object member order is not preserved (members are
 * name-sorted); numbers are doubles, matching what JsonWriter
 * emits.  Accessors return fallbacks instead of throwing so
 * comparison tools can probe optional fields cheaply.
 */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool(bool fallback = false) const;
    double asNumber(double fallback = 0.0) const;
    const std::string &asString() const;

    /** Array elements (empty unless isArray()). */
    const std::vector<JsonValue> &elements() const;

    /** Object member lookup; null-kind sentinel when absent. */
    const JsonValue &member(const std::string &name) const;
    bool hasMember(const std::string &name) const;
    const std::map<std::string, JsonValue> &members() const;

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;
};

/**
 * Parse one complete JSON document.  On failure returns false and
 * sets @p error to a position-prefixed message; @p out is then
 * unspecified.
 */
bool parseJson(const std::string &text, JsonValue *out,
               std::string *error);

/**
 * Append-only JSON builder.  The caller is responsible for calling
 * the begin/end methods in a balanced order; key() must precede
 * every member value inside an object.
 */
class JsonWriter
{
  public:
    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Start an object member; follow with a value call. */
    void key(const std::string &name);

    void value(const std::string &s);
    void value(const char *s);
    void value(double d);
    void value(std::uint64_t v);
    void value(bool b);

    /** Splice an already-rendered JSON value in as a member. */
    void raw(const std::string &json);

    const std::string &str() const { return out_; }

  private:
    void comma();

    std::string out_;
    bool needComma_ = false;
};

} // namespace thermostat

#endif // THERMOSTAT_OBS_JSON_HH
