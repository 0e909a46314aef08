#include "core/json.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/logging.hh"

namespace nvsim
{

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        fatal("json: expected a boolean");
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (kind_ != Kind::Number)
        fatal("json: expected a number");
    return number_;
}

std::uint64_t
JsonValue::asUint() const
{
    double n = asNumber();
    // 2^64 is one past the largest uint64_t; casting it or anything
    // larger is undefined behaviour.
    if (!(n >= 0 && n < 18446744073709551616.0) || n != std::floor(n))
        fatal("json: expected a non-negative 64-bit integer, got %g", n);
    return static_cast<std::uint64_t>(n);
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        fatal("json: expected a string");
    return string_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (kind_ != Kind::Array)
        fatal("json: expected an array");
    return items_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    if (kind_ != Kind::Object)
        fatal("json: expected an object");
    return members_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &m : members()) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue();
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double n)
{
    JsonValue v;
    v.kind_ = Kind::Number;
    v.number_ = n;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.kind_ = Kind::String;
    v.string_ = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue v;
    v.kind_ = Kind::Array;
    v.items_ = std::move(items);
    return v;
}

JsonValue
JsonValue::makeObject(
    std::vector<std::pair<std::string, JsonValue>> members)
{
    JsonValue v;
    v.kind_ = Kind::Object;
    v.members_ = std::move(members);
    return v;
}

namespace
{

/** Recursive-descent parser; every error is fatal with a position. */
class Parser
{
  public:
    Parser(const std::string &text, const std::string &what)
        : text_(text), what_(what)
    {
    }

    JsonValue
    document()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after the JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *msg)
    {
        unsigned line = 1, col = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        fatal("%s:%u:%u: %s", what_.c_str(), line, col, msg);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c, const char *msg)
    {
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail(msg);
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    JsonValue
    value()
    {
        skipWs();
        char c = peek();
        switch (c) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return JsonValue::makeString(string());
          case 't':
            literal("true");
            return JsonValue::makeBool(true);
          case 'f':
            literal("false");
            return JsonValue::makeBool(false);
          case 'n':
            literal("null");
            return JsonValue::makeNull();
          default:
            return number();
        }
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail("invalid literal");
            ++pos_;
        }
    }

    JsonValue
    object()
    {
        expect('{', "expected '{'");
        std::vector<std::pair<std::string, JsonValue>> members;
        skipWs();
        if (consume('}'))
            return JsonValue::makeObject(std::move(members));
        for (;;) {
            skipWs();
            std::string key = string();
            for (const auto &m : members) {
                if (m.first == key)
                    fail("duplicate object key");
            }
            skipWs();
            expect(':', "expected ':' after object key");
            members.emplace_back(std::move(key), value());
            skipWs();
            if (consume(','))
                continue;
            expect('}', "expected ',' or '}' in object");
            return JsonValue::makeObject(std::move(members));
        }
    }

    JsonValue
    array()
    {
        expect('[', "expected '['");
        std::vector<JsonValue> items;
        skipWs();
        if (consume(']'))
            return JsonValue::makeArray(std::move(items));
        for (;;) {
            items.push_back(value());
            skipWs();
            if (consume(','))
                continue;
            expect(']', "expected ',' or ']' in array");
            return JsonValue::makeArray(std::move(items));
        }
    }

    std::string
    string()
    {
        expect('"', "expected '\"'");
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"':
                out.push_back('"');
                break;
              case '\\':
                out.push_back('\\');
                break;
              case '/':
                out.push_back('/');
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'u': {
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    if (pos_ >= text_.size() ||
                        !std::isxdigit(static_cast<unsigned char>(
                            text_[pos_])))
                        fail("invalid \\u escape");
                    char h = text_[pos_++];
                    code = code * 16 +
                           static_cast<unsigned>(
                               h <= '9' ? h - '0'
                                        : (h | 0x20) - 'a' + 10);
                }
                if (code > 0x7f)
                    fail("\\u escapes above ASCII are not supported");
                out.push_back(static_cast<char>(code));
                break;
              }
              default:
                fail("invalid escape character");
            }
        }
    }

    JsonValue
    number()
    {
        std::size_t start = pos_;
        if (consume('-')) {
        }
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected a JSON value");
        std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        double n = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) {
            pos_ = start;
            fail("malformed number");
        }
        return JsonValue::makeNumber(n);
    }

    const std::string &text_;
    const std::string &what_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
parseJson(const std::string &text, const std::string &what)
{
    return Parser(text, what).document();
}

JsonValue
parseJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    return parseJson(ss.str(), path);
}

} // namespace nvsim
