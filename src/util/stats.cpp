#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace authenticache::util {

void
RunningStats::add(double x)
{
    ++n;
    double delta = x - m;
    m += delta / static_cast<double>(n);
    s += delta * (x - m);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
}

double
RunningStats::variance() const
{
    if (n < 2)
        return 0.0;
    return s / static_cast<double>(n - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo_, double hi_, std::size_t bins)
    : lo(lo_), hi(hi_), counts(bins, 0)
{
    assert(bins > 0 && hi > lo);
}

void
Histogram::add(double x)
{
    double t = (x - lo) / (hi - lo);
    auto i = static_cast<std::int64_t>(t * static_cast<double>(bins()));
    i = std::clamp<std::int64_t>(i, 0,
                                 static_cast<std::int64_t>(bins()) - 1);
    ++counts[static_cast<std::size_t>(i)];
    ++n;
}

double
Histogram::binCenter(std::size_t i) const
{
    double w = (hi - lo) / static_cast<double>(bins());
    return lo + (static_cast<double>(i) + 0.5) * w;
}

double
Histogram::binFraction(std::size_t i) const
{
    if (n == 0)
        return 0.0;
    return static_cast<double>(counts.at(i)) / static_cast<double>(n);
}

double
Histogram::cdf(double x) const
{
    if (n == 0)
        return 0.0;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < bins(); ++i) {
        if (binCenter(i) <= x)
            acc += counts[i];
    }
    return static_cast<double>(acc) / static_cast<double>(n);
}

namespace {

/**
 * log(Gamma(x)) without touching the global signgam that std::lgamma
 * writes: verifiers on different pool threads compute thresholds
 * concurrently.
 */
double
logGamma(double x)
{
    int sign = 0;
    return ::lgamma_r(x, &sign);
}

} // namespace

double
logBinomialCoefficient(std::uint64_t n, std::uint64_t k)
{
    if (k > n)
        return -std::numeric_limits<double>::infinity();
    return logGamma(static_cast<double>(n) + 1.0) -
           logGamma(static_cast<double>(k) + 1.0) -
           logGamma(static_cast<double>(n - k) + 1.0);
}

double
binomialPmf(std::uint64_t n, std::uint64_t k, double p)
{
    if (k > n)
        return 0.0;
    if (p <= 0.0)
        return k == 0 ? 1.0 : 0.0;
    if (p >= 1.0)
        return k == n ? 1.0 : 0.0;
    double lp = logBinomialCoefficient(n, k) +
                static_cast<double>(k) * std::log(p) +
                static_cast<double>(n - k) * std::log1p(-p);
    return std::exp(lp);
}

double
binomialCdf(std::uint64_t n, std::int64_t k, double p)
{
    if (k < 0)
        return 0.0;
    auto ku = static_cast<std::uint64_t>(k);
    if (ku >= n)
        return 1.0;
    // Sum the smaller tail for accuracy.
    double mean = static_cast<double>(n) * p;
    if (static_cast<double>(ku) < mean) {
        double acc = 0.0;
        for (std::uint64_t i = 0; i <= ku; ++i)
            acc += binomialPmf(n, i, p);
        return std::min(acc, 1.0);
    }
    double acc = 0.0;
    for (std::uint64_t i = ku + 1; i <= n; ++i)
        acc += binomialPmf(n, i, p);
    return std::max(0.0, 1.0 - acc);
}

double
binomialSf(std::uint64_t n, std::int64_t k, double p)
{
    if (k < 0)
        return 1.0;
    auto ku = static_cast<std::uint64_t>(k);
    if (ku >= n)
        return 0.0;
    double mean = static_cast<double>(n) * p;
    if (static_cast<double>(ku) >= mean) {
        double acc = 0.0;
        for (std::uint64_t i = ku + 1; i <= n; ++i)
            acc += binomialPmf(n, i, p);
        return std::min(acc, 1.0);
    }
    double acc = 0.0;
    for (std::uint64_t i = 0; i <= ku; ++i)
        acc += binomialPmf(n, i, p);
    return std::max(0.0, 1.0 - acc);
}

double
normalCdf(double x)
{
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double
proportionConfidence95(double p, std::size_t n)
{
    if (n == 0)
        return 1.0;
    return 1.96 * std::sqrt(p * (1.0 - p) / static_cast<double>(n));
}

} // namespace authenticache::util
