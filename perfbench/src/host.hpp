/**
 * @file
 * Host readings: CPU time, peak RSS, steal ticks, load (Linux /proc).
 */

#ifndef PERFBENCH_HOST_HPP
#define PERFBENCH_HOST_HPP

#include <cstdint>
#include <string>
#include <sys/types.h>

namespace perfbench {

/** User + system CPU seconds of this process (all threads). */
double selfCpuSeconds();

/** User + system CPU seconds of process @p pid; 0 when unreadable. */
double pidCpuSeconds(pid_t pid);

/** Peak resident set (VmHWM) of @p pid in MB; 0 when unreadable. */
double peakRssMb(pid_t pid);

/** Steal ticks summed over all CPUs (/proc/stat). */
std::uint64_t stealTicks();

/** The three load averages of /proc/loadavg, space separated. */
std::string loadAverage();

/** Online CPUs. */
int onlineCpus();

} // namespace perfbench

#endif // PERFBENCH_HOST_HPP
