#include "api/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/logging.hpp"

namespace hammer::api {

using common::fatal;
using common::require;

namespace {

/** Append @p text as a quoted JSON string, copying unescaped runs. */
void
appendQuoted(std::string &out, std::string_view text)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out += '"';
    std::size_t run = 0; // start of the pending unescaped run
    for (std::size_t i = 0; i < text.size(); ++i) {
        const auto c = static_cast<unsigned char>(text[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(text.data() + run, i - run);
        run = i + 1;
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
        default: {
            const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                   kHex[c & 0xF]};
            out.append(escape, sizeof(escape));
        }
        }
    }
    out.append(text.data() + run, text.size() - run);
    out += '"';
}

/**
 * Append @p value with 17 significant digits.  std::to_chars with a
 * precision renders exactly what printf("%.17g") does in the C
 * locale, whatever the process locale is.
 */
void
appendNumber(std::string &out, double value)
{
    if (!std::isfinite(value)) {
        out += "null";
        return;
    }
    char buf[32]; // "-1.7976931348623157e+308" is the longest: 24
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                  std::chars_format::general, 17)
                        .ptr);
}

template <typename Int>
void
appendInteger(std::string &out, Int value)
{
    char buf[24]; // 2^64-1 and INT_MIN both fit
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

} // namespace

std::string
jsonQuote(std::string_view text)
{
    std::string out;
    appendQuoted(out, text);
    return out;
}

std::string
jsonNumber(double value)
{
    std::string out;
    appendNumber(out, value);
    return out;
}

void
JsonWriter::separate()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (!hasItems_.empty()) {
        if (hasItems_.back())
            out_ += ',';
        hasItems_.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out_ += '{';
    hasItems_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    out_ += '}';
    hasItems_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out_ += '[';
    hasItems_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    out_ += ']';
    hasItems_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    separate();
    appendQuoted(out_, name);
    out_ += ':';
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view text)
{
    separate();
    appendQuoted(out_, text);
    return *this;
}

JsonWriter &
JsonWriter::value(const char *text)
{
    return value(std::string_view(text));
}

JsonWriter &
JsonWriter::value(double number)
{
    separate();
    appendNumber(out_, number);
    return *this;
}

JsonWriter &
JsonWriter::value(int number)
{
    separate();
    appendInteger(out_, number);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t number)
{
    separate();
    appendInteger(out_, number);
    return *this;
}

JsonWriter &
JsonWriter::value(bool flag)
{
    separate();
    out_ += flag ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    out_ += "null";
    return *this;
}

std::string
JsonWriter::take()
{
    return std::exchange(out_, {});
}

// ---------------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------------

bool
JsonValue::asBool() const
{
    require(isBool(), "JsonValue: not a bool");
    return bool_;
}

double
JsonValue::asNumber() const
{
    require(isNumber(), "JsonValue: not a number");
    return number_;
}

const std::string &
JsonValue::asString() const
{
    require(isString(), "JsonValue: not a string");
    return string_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    require(isArray(), "JsonValue: not an array");
    return items_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    require(isObject(), "JsonValue: not an object");
    return members_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    require(isObject(), "JsonValue: not an object");
    for (const auto &[name, value] : members_)
        if (name == key)
            return &value;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *value = find(key);
    if (!value)
        fatal("JsonValue: missing key '" + key + "'");
    return *value;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue parse()
    {
        const JsonValue value = parseValue();
        skipWhitespace();
        require(pos_ == text_.size(),
                "JSON: trailing characters at offset " +
                    std::to_string(pos_));
        return value;
    }

  private:
    [[noreturn]] void fail(const std::string &what) const
    {
        fatal("JSON: " + what + " at offset " + std::to_string(pos_));
    }

    void skipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consumeLiteral(const char *literal)
    {
        std::size_t len = 0;
        while (literal[len] != '\0')
            ++len;
        if (text_.compare(pos_, len, literal) != 0)
            return false;
        pos_ += len;
        return true;
    }

    // Recursion bound: parseValue recurses per nesting level, and
    // the parser fronts untrusted traffic (hammer_cli --serve), so
    // pathological inputs must fail instead of overflowing the
    // stack.
    static constexpr int kMaxDepth = 256;

    JsonValue parseValue()
    {
        skipWhitespace();
        if (depth_ >= kMaxDepth)
            fail("nesting deeper than " + std::to_string(kMaxDepth) +
                 " levels");
        switch (peek()) {
        case '{':
            return parseObject();
        case '[':
            return parseArray();
        case '"': {
            JsonValue value;
            value.kind_ = JsonValue::Kind::String;
            value.string_ = parseString();
            return value;
        }
        case 't':
        case 'f': {
            JsonValue value;
            value.kind_ = JsonValue::Kind::Bool;
            if (consumeLiteral("true"))
                value.bool_ = true;
            else if (consumeLiteral("false"))
                value.bool_ = false;
            else
                fail("bad literal");
            return value;
        }
        case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            return JsonValue{};
        default:
            return parseNumber();
        }
    }

    JsonValue parseObject()
    {
        expect('{');
        ++depth_;
        JsonValue value;
        value.kind_ = JsonValue::Kind::Object;
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
            --depth_;
            return value;
        }
        for (;;) {
            skipWhitespace();
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            value.members_.emplace_back(std::move(key), parseValue());
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            --depth_;
            return value;
        }
    }

    JsonValue parseArray()
    {
        expect('[');
        ++depth_;
        JsonValue value;
        value.kind_ = JsonValue::Kind::Array;
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
            --depth_;
            return value;
        }
        for (;;) {
            value.items_.push_back(parseValue());
            skipWhitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            --depth_;
            return value;
        }
    }

    unsigned parseHex4()
    {
        unsigned code = 0;
        for (int digit = 0; digit < 4; ++digit) {
            const char c = peek();
            code <<= 4;
            if (c >= '0' && c <= '9')
                code |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("bad \\u escape");
            ++pos_;
        }
        return code;
    }

    static void appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
            case '"':
            case '\\':
            case '/':
                out += esc;
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'n':
                out += '\n';
                break;
            case 'r':
                out += '\r';
                break;
            case 't':
                out += '\t';
                break;
            case 'u': {
                unsigned code = parseHex4();
                if (code >= 0xDC00 && code <= 0xDFFF)
                    fail("lone low surrogate");
                if (code >= 0xD800 && code <= 0xDBFF) {
                    // High surrogate: a \uXXXX low surrogate must
                    // follow to form one supplementary code point.
                    if (pos_ + 1 >= text_.size() ||
                        text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
                        fail("lone high surrogate");
                    pos_ += 2;
                    const unsigned low = parseHex4();
                    if (low < 0xDC00 || low > 0xDFFF)
                        fail("bad low surrogate");
                    code = 0x10000 + ((code - 0xD800) << 10) +
                           (low - 0xDC00);
                }
                appendUtf8(out, code);
                break;
            }
            default:
                fail("bad escape");
            }
        }
    }

    JsonValue parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        const std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        const double number = std::strtod(token.c_str(), &end);
        if (end == token.c_str() || *end != '\0')
            fail("bad number '" + token + "'");
        JsonValue value;
        value.kind_ = JsonValue::Kind::Number;
        value.number_ = number;
        return value;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

void
writeJsonValue(JsonWriter &out, const JsonValue &value)
{
    switch (value.kind()) {
    case JsonValue::Kind::Null:
        out.null();
        break;
    case JsonValue::Kind::Bool:
        out.value(value.asBool());
        break;
    case JsonValue::Kind::Number:
        out.value(value.asNumber());
        break;
    case JsonValue::Kind::String:
        out.value(value.asString());
        break;
    case JsonValue::Kind::Array:
        out.beginArray();
        for (const JsonValue &item : value.items())
            writeJsonValue(out, item);
        out.endArray();
        break;
    case JsonValue::Kind::Object:
        out.beginObject();
        for (const auto &[key, member] : value.members()) {
            out.key(key);
            writeJsonValue(out, member);
        }
        out.endObject();
        break;
    }
}

} // namespace hammer::api
