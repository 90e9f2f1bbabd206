/**
 * @file
 * The bench binaries' one JSON writer: pretty-printed (2-space
 * indent), fixed field order, doubles at 12 significant digits, so the
 * checked-in BENCH_*.json baselines diff line by line.
 *
 * A string literal binds to the `const char *` overload and is written
 * as a string; any other pointer is a compile error instead of
 * silently converting to `true` (the pointer->bool trap that turns
 * `field("schema", "v1")` into `"schema": true` when only a
 * `std::string` overload exists). Strings and keys are escaped, and a
 * non-finite number is written as `null`: JSON has no NaN/Inf, and a
 * metric that produced one is a bug the reader must see.
 */

#ifndef AUTH_BENCH_JSON_HPP
#define AUTH_BENCH_JSON_HPP

#include <cmath>
#include <concepts>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace authbench {

class Json
{
  public:
    explicit Json(std::ostream &os_) : os(os_) { os.precision(12); }

    void
    open()
    {
        os << "{";
        firsts.push_back(true);
    }
    void
    close()
    {
        firsts.pop_back();
        os << "\n}\n";
    }

    void
    field(std::string_view key, std::string_view value)
    {
        pre(key);
        quote(value);
    }
    void
    field(std::string_view key, const char *value)
    {
        field(key, std::string_view(value));
    }
    /** Every pointer other than a C string is refused. */
    template <typename T>
    void field(std::string_view key, const T *value) = delete;

    void
    field(std::string_view key, bool value)
    {
        pre(key);
        os << (value ? "true" : "false");
    }
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    void
    field(std::string_view key, T value)
    {
        pre(key);
        os << value;
    }
    template <std::floating_point T>
    void
    field(std::string_view key, T value)
    {
        pre(key);
        number(static_cast<double>(value));
    }
    /** A flat numeric array, written on one line. */
    void
    field(std::string_view key, const std::vector<double> &values)
    {
        pre(key);
        os << "[";
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i > 0)
                os << ", ";
            number(values[i]);
        }
        os << "]";
    }

    void
    openArray(std::string_view key)
    {
        pre(key);
        os << "[";
        firsts.push_back(true);
    }
    void
    closeArray()
    {
        firsts.pop_back();
        os << "\n" << indent() << "  ]";
    }
    /** Open an object under @p key, or an array element if empty. */
    void
    openObject(std::string_view key = {})
    {
        pre(key);
        os << "{";
        firsts.push_back(true);
    }
    void
    closeObject()
    {
        firsts.pop_back();
        os << "\n" << indent() << "  }";
    }

  private:
    /** Separator, newline and indent, then `"key": ` unless empty. */
    void
    pre(std::string_view key)
    {
        if (!firsts.back())
            os << ",";
        firsts.back() = false;
        os << "\n" << indent() << "  ";
        if (!key.empty()) {
            quote(key);
            os << ": ";
        }
    }
    std::string
    indent() const
    {
        return std::string(2 * (firsts.size() - 1), ' ');
    }
    void
    number(double v)
    {
        if (std::isfinite(v))
            os << v;
        else
            os << "null";
    }
    void
    quote(std::string_view s)
    {
        os << '"';
        for (char c : s) {
            if (c == '"' || c == '\\') {
                os << '\\' << c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(c));
                os << buf;
            } else {
                os << c;
            }
        }
        os << '"';
    }

    std::ostream &os;
    std::vector<bool> firsts; ///< "next element is first" per depth.
};

} // namespace authbench

#endif // AUTH_BENCH_JSON_HPP
