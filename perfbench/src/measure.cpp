#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <stdexcept>
#include <sys/vfs.h>

namespace perfbench {

double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size()));
    const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
chunkedPercentile(const std::vector<std::vector<double>> &series,
                  std::size_t chunk, double p)
{
    std::vector<double> perChunk;
    for (const std::vector<double> &s : series) {
        for (std::size_t lo = 0; lo + chunk <= s.size(); lo += chunk) {
            std::vector<double> c(s.begin() + static_cast<long>(lo),
                                  s.begin() + static_cast<long>(lo + chunk));
            perChunk.push_back(percentile(c, p));
        }
    }
    return median(std::move(perChunk));
}

namespace {

/** The number after "<key>" on its line of a /proc file, or 0. */
std::uint64_t
procField(const char *path, const std::string &key)
{
    std::ifstream f(path);
    std::string line;
    while (std::getline(f, line)) {
        if (line.compare(0, key.size(), key) == 0) {
            std::istringstream in(line.substr(key.size()));
            std::uint64_t v = 0;
            in >> v;
            return v;
        }
    }
    return 0;
}

} // namespace

std::uint64_t
residentBytes()
{
    return procField("/proc/self/status", "VmRSS:") * 1024;
}

std::uint64_t
storageWriteBytes()
{
    return procField("/proc/self/io", "write_bytes:");
}

CpuTimes
cpuTimes()
{
    std::ifstream f("/proc/stat");
    std::string cpu;
    CpuTimes t;
    f >> cpu;
    // user nice system idle iowait irq softirq steal ...
    for (int i = 0; i < 8; ++i) {
        std::uint64_t v = 0;
        if (!(f >> v))
            break;
        t.total += v;
        if (i == 7)
            t.steal = v;
    }
    return t;
}

double
stealFraction(const CpuTimes &a)
{
    const CpuTimes b = cpuTimes();
    return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                   static_cast<double>(b.total - a.total)
                             : 0.0;
}

void
trimHeap()
{
    malloc_trim(0);
}

std::string
filesystemType(const std::string &path)
{
    struct statfs s{};
    if (statfs(path.c_str(), &s) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53:
        return "ext2/3/4";
    case 0x01021994:
        return "tmpfs";
    case 0x58465342:
        return "xfs";
    case 0x9123683E:
        return "btrfs";
    case 0x794C7630:
        return "overlayfs";
    case 0x6969:
        return "nfs";
    case 0x65735546:
        return "fuse";
    default: {
        std::ostringstream o;
        o << "0x" << std::hex << static_cast<unsigned long>(s.f_type);
        return o.str();
    }
    }
}

ScratchDir::ScratchDir(const std::string &parent)
{
    std::filesystem::create_directories(parent);
    std::string templ = parent + "/run-XXXXXX";
    if (mkdtemp(templ.data()) == nullptr)
        throw std::runtime_error("mkdtemp failed under " + parent);
    dir = templ;
}

ScratchDir::~ScratchDir()
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

std::string
ScratchDir::subdir(const std::string &stem)
{
    std::string p = dir + "/" + stem + "-" + std::to_string(next++);
    std::filesystem::create_directories(p);
    return p;
}

} // namespace perfbench
