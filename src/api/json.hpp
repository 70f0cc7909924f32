/**
 * @file
 * Minimal JSON emission and parsing.
 *
 * Just enough of a writer for the machine-readable result and bench
 * telemetry outputs (api::Result::writeJson, bench BENCH_<fig>.json):
 * objects, arrays, strings with escaping, and IEEE doubles rendered
 * round-trip-exactly (non-finite values become null, which JSON
 * requires).  The matching parser (parseJson) reads those documents
 * back — it is what hammer_cli --serve uses to accept JSON spec lines
 * and what the round-trip tests verify the writer against.
 *
 * The rendering is a byte contract: golden files, local-vs-sharded
 * identity and the exec keys the router hashes all read it.  A double
 * renders with 17 significant digits, byte-identical to
 * printf("%.17g") in the C locale and independent of the process
 * locale; integers render as std::to_string does.
 */

#ifndef HAMMER_API_JSON_HPP
#define HAMMER_API_JSON_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hammer::api {

/** Escape and quote @p text as a JSON string literal. */
std::string jsonQuote(std::string_view text);

/** Render a double (17 significant digits; non-finite -> null). */
std::string jsonNumber(double value);

/**
 * Incremental writer producing compact JSON.
 *
 * Usage:
 * @code
 *   JsonWriter json;
 *   json.beginObject();
 *   json.key("shots").value(8192);
 *   json.key("histogram").beginArray();
 *   json.value("0101");
 *   json.endArray();
 *   json.endObject();
 *   out << json.str();
 * @endcode
 *
 * The writer tracks whether a separator comma is needed; begin/end
 * calls must balance (checked with assertions via common::panic-free
 * best effort: unbalanced output is simply malformed).
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; must be followed by exactly one value. */
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view text);
    // Without this overload a string literal would pick value(bool).
    JsonWriter &value(const char *text);
    JsonWriter &value(double number);
    JsonWriter &value(int number);
    JsonWriter &value(std::uint64_t number);
    JsonWriter &value(bool flag);
    JsonWriter &null();

    /** The document so far. */
    const std::string &str() const { return out_; }

    /** Move the finished document out; the writer is left empty. */
    std::string take();

  private:
    void separate();

    std::string out_;
    std::vector<bool> hasItems_; // per open scope
    bool pendingKey_ = false;
};

/**
 * One parsed JSON value (recursive; objects keep insertion order).
 *
 * The accessors throw std::invalid_argument on a kind mismatch with a
 * message naming the expected kind, so spec-parsing call sites get
 * field-level errors for free.
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default; // null

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;

    /** Array elements. @throws std::invalid_argument if not an array. */
    const std::vector<JsonValue> &items() const;

    /** Object members in document order. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    /** First member named @p key, or nullptr (object only). */
    const JsonValue *find(const std::string &key) const;

    /** Like find(), but throws when the key is absent. */
    const JsonValue &at(const std::string &key) const;

  private:
    friend JsonValue parseJson(const std::string &text);
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Parse one complete JSON document.
 *
 * Strict: trailing non-whitespace, unterminated strings, bad escapes
 * and malformed numbers all throw std::invalid_argument with the
 * offending byte offset.  \uXXXX escapes decode to UTF-8 (surrogate
 * pairs included).
 */
JsonValue parseJson(const std::string &text);

/**
 * Re-emit a parsed value through @p out (object members in document
 * order, numbers via jsonNumber).  Because jsonNumber renders doubles
 * round-trip-exactly, two values re-emitted this way are byte-equal
 * iff they are value-equal — the primitive canonicalResultJson builds
 * cross-process bit-identity checks on.
 */
void writeJsonValue(JsonWriter &out, const JsonValue &value);

} // namespace hammer::api

#endif // HAMMER_API_JSON_HPP
