/**
 * @file
 * The benchmark's one JSON writer: compact, single-line, fixed field
 * order. A string literal binds to the `const char *` overload and is
 * written as a string; any other pointer is a compile error instead of
 * silently converting to `true` (the pointer->bool trap that turns
 * `field("schema", "v1")` into `"schema": true` when only a
 * `std::string` overload exists).
 */

#ifndef PERFBENCH_JSON_HPP
#define PERFBENCH_JSON_HPP

#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class JsonWriter
{
  public:
    JsonWriter() { open('{'); }

    /** Close every open scope and return the document. */
    std::string
    finish()
    {
        while (!closers.empty())
            close();
        return out;
    }

    JsonWriter &
    field(std::string_view k, std::string_view v)
    {
        key(k);
        quote(v);
        return *this;
    }
    JsonWriter &
    field(std::string_view k, const std::string &v)
    {
        return field(k, std::string_view(v));
    }
    JsonWriter &
    field(std::string_view k, const char *v)
    {
        return field(k, std::string_view(v));
    }
    /** Every pointer other than a C string is refused. */
    template <typename T>
    JsonWriter &field(std::string_view k, const T *v) = delete;

    JsonWriter &
    field(std::string_view k, bool v)
    {
        key(k);
        out += v ? "true" : "false";
        return *this;
    }
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    JsonWriter &
    field(std::string_view k, T v)
    {
        key(k);
        out += std::to_string(v);
        return *this;
    }
    template <std::floating_point T>
    JsonWriter &
    field(std::string_view k, T v)
    {
        key(k);
        number(static_cast<double>(v));
        return *this;
    }

    /** Open a nested object under @p k; close with end(). */
    JsonWriter &
    object(std::string_view k)
    {
        key(k);
        open('{');
        return *this;
    }

    /** Open an array under @p k, filled with item(). */
    JsonWriter &
    array(std::string_view k)
    {
        key(k);
        open('[');
        return *this;
    }

    JsonWriter &
    item(std::string_view v)
    {
        separator();
        quote(v);
        return *this;
    }
    JsonWriter &
    item(double v)
    {
        separator();
        number(v);
        return *this;
    }

    JsonWriter &
    end()
    {
        close();
        return *this;
    }

  private:
    void
    open(char c)
    {
        out += c;
        closers.push_back(c == '{' ? '}' : ']');
        first.push_back(true);
    }
    void
    close()
    {
        out += closers.back();
        closers.pop_back();
        first.pop_back();
    }
    void
    separator()
    {
        if (!first.back())
            out += ", ";
        first.back() = false;
    }
    void
    key(std::string_view k)
    {
        separator();
        quote(k);
        out += ": ";
    }
    void
    number(double v)
    {
        // JSON has no NaN/Inf; a metric that produced one is a bug
        // the reader must see, so it becomes null, not a fake number.
        if (!std::isfinite(v)) {
            out += "null";
            return;
        }
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out += buf;
    }
    void
    quote(std::string_view s)
    {
        out += '"';
        for (char c : s) {
            if (c == '"' || c == '\\') {
                out += '\\';
                out += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
        out += '"';
    }

    std::string out;
    std::vector<char> closers;
    std::vector<bool> first;
};

} // namespace perfbench

#endif // PERFBENCH_JSON_HPP
