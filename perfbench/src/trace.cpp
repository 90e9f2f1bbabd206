#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

std::vector<double>
Tracer::micros(std::string_view name) const
{
    std::vector<double> out;
    for (const Span &s : spans)
        if (name == s.name)
            out.push_back(s.micros());
    return out;
}

double
Tracer::totalMicros(std::string_view name) const
{
    double sum = 0.0;
    for (const Span &s : spans)
        if (name == s.name)
            sum += s.micros();
    return sum;
}

std::size_t
Tracer::count(std::string_view name) const
{
    return static_cast<std::size_t>(
        std::count_if(spans.begin(), spans.end(),
                      [&](const Span &s) { return name == s.name; }));
}

void
Tracer::writeTsv(const std::string &path) const
{
    std::ofstream f(path);
    f << "name\tid\tparent\trequest\tstart_us\tdur_us\n";
    if (spans.empty())
        return;
    Clock::time_point origin = spans.front().start;
    for (const Span &s : spans)
        origin = std::min(origin, s.start);
    for (const Span &s : spans)
        f << s.name << '\t' << s.id << '\t' << s.parent << '\t'
          << s.request << '\t'
          << std::chrono::duration<double, std::micro>(s.start - origin)
                 .count()
          << '\t' << s.micros() << '\n';
}

} // namespace perfbench
