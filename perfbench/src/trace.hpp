/**
 * @file
 * In-memory span recorder for the traced run. A span names the
 * library call it wraps, carries the request it served and the span
 * that caused it (a pump call or a wave), and stays in memory until
 * the run ends. A Tracer is single-threaded; each thread records
 * into its own and the run merges them at the end.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct Span
{
    const char *name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = a root span.
    std::uint64_t request = 0; ///< Device / frame the span served.
    Clock::time_point start;
    Clock::time_point end;

    double
    micros() const
    {
        return std::chrono::duration<double, std::micro>(end - start)
            .count();
    }
};

class Tracer
{
  public:
    /** Span ids start at @p id_base, so merged tracers never clash. */
    explicit Tracer(std::uint64_t id_base = 0) : nextId(id_base + 1) {}

    std::uint64_t
    record(const char *name, std::uint64_t parent,
           std::uint64_t request, Clock::time_point start,
           Clock::time_point end)
    {
        spans.push_back({name, nextId, parent, request, start, end});
        return nextId++;
    }

    /** Append another thread's spans (after that thread joined). */
    void
    merge(const Tracer &other)
    {
        spans.insert(spans.end(), other.spans.begin(),
                     other.spans.end());
    }

    /** Durations in microseconds of every span called @p name. */
    std::vector<double> micros(std::string_view name) const;

    /** Sum of micros(name). */
    double totalMicros(std::string_view name) const;

    std::size_t count(std::string_view name) const;

    /** Mean span duration in microseconds; 0 when none. */
    double
    meanMicros(std::string_view name) const
    {
        const std::size_t n = count(name);
        return n ? totalMicros(name) / static_cast<double>(n) : 0.0;
    }

    /** Tab-separated dump: name id parent request start_us dur_us. */
    void writeTsv(const std::string &path) const;

  private:
    std::vector<Span> spans;
    std::uint64_t nextId;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
