/**
 * @file
 * Measurement helpers: the wall clock, percentiles, process counters
 * read from /proc, and the per-run scratch directory.
 */

#ifndef PERFBENCH_MEASURE_HPP
#define PERFBENCH_MEASURE_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point a)
{
    return secondsBetween(a, Clock::now());
}

/**
 * Nearest-rank percentile (0 <= p <= 1) of @p v; sorts in place.
 * 0 for an empty sample.
 */
double percentile(std::vector<double> &v, double p);

/** Median of a copy of @p v. */
double median(std::vector<double> v);

/**
 * The median, over consecutive chunks of @p chunk samples of each
 * series (arrival order; a trailing partial chunk is dropped), of the
 * chunk's @p p percentile. A host stall of a few milliseconds moves
 * the chunks it lands in, not the result, where one pooled p99 over
 * the whole run jumps with every stall. 0 when no chunk is complete.
 */
double chunkedPercentile(const std::vector<std::vector<double>> &series,
                         std::size_t chunk, double p);

/** Resident set size of this process in bytes (VmRSS). */
std::uint64_t residentBytes();

/** Bytes this process caused to reach storage (/proc/self/io). */
std::uint64_t storageWriteBytes();

/** Jiffies of all CPUs from /proc/stat: {total, steal}. */
struct CpuTimes
{
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
};
CpuTimes cpuTimes();

/** Share of CPU time the hypervisor took from this machine since @p a. */
double stealFraction(const CpuTimes &a);

/** Release freed heap pages so RSS deltas see only live memory. */
void trimHeap();

/** Filesystem type name of @p path, from statfs(2). */
std::string filesystemType(const std::string &path);

/**
 * A fresh, uniquely named directory under @p parent, removed with
 * everything in it when the object dies.
 */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &parent);
    ~ScratchDir();
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return dir; }

    /** A new, empty subdirectory (name unique within this one). */
    std::string subdir(const std::string &stem);

  private:
    std::string dir;
    unsigned next = 0;
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HPP
