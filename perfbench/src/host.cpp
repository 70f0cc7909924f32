#include "host.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

namespace {

std::string
procPath(pid_t pid, const char *leaf)
{
    return "/proc/" + std::to_string(pid) + "/" + leaf;
}

} // namespace

double
selfCpuSeconds()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
pidCpuSeconds(pid_t pid)
{
    std::ifstream in(procPath(pid, "stat"));
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 of the whole line.
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
        if (i >= 14)
            ticks += std::stod(field);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double
peakRssMb(pid_t pid)
{
    std::ifstream in(procPath(pid, "status"));
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib * 1024.0 / 1e6;
        }
    }
    return 0.0;
}

std::uint64_t
stealTicks()
{
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label; // "cpu": the all-CPU line comes first
    std::uint64_t value = 0;
    // user nice system idle iowait irq softirq steal
    for (int i = 0; i < 8 && in >> value; ++i) {
    }
    return label == "cpu" ? value : 0;
}

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    std::string one, five, fifteen;
    in >> one >> five >> fifteen;
    return one + " " + five + " " + fifteen;
}

int
onlineCpus()
{
    return static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
}

} // namespace perfbench
