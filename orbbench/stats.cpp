#include "stats.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>

namespace orbbench {

double Percentile(std::vector<double>& samples, double pct) {
  if (samples.empty()) return 0;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

double Median(std::vector<double> samples) {
  return Percentile(samples, 50);
}

Figures QuietFigures(const std::vector<Window>& windows, double share) {
  Figures f;
  std::vector<const Window*> ranked;
  for (const Window& w : windows) {
    if (w.seconds > 0) ranked.push_back(&w);
  }
  if (ranked.empty()) return f;
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Window* a, const Window* b) {
                     return static_cast<double>(a->Ops()) / a->seconds >
                            static_cast<double>(b->Ops()) / b->seconds;
                   });
  f.pooled = std::clamp<size_t>(
      static_cast<size_t>(share * static_cast<double>(ranked.size())), 1,
      ranked.size());
  std::vector<double> latency;
  double seconds = 0, bytes = 0, cpu_s = 0;
  uint64_t ops = 0;
  for (size_t i = 0; i < f.pooled; ++i) {
    const Window& w = *ranked[i];
    latency.insert(latency.end(), w.latency_us.begin(), w.latency_us.end());
    seconds += w.seconds;
    bytes += w.payload_bytes;
    cpu_s += w.cpu_s;
    ops += w.Ops();
  }
  f.samples = latency.size();
  f.p50_us = Percentile(latency, 50);
  f.p99_us = Percentile(latency, 99);
  f.calls_per_s = static_cast<double>(f.samples) / seconds;
  f.payload_mib_per_s = bytes / (1024.0 * 1024.0) / seconds;
  f.cpu_us_per_call = cpu_s * 1e6 / static_cast<double>(std::max<uint64_t>(1, ops));
  return f;
}

Figures QuietRepeats(const std::vector<std::vector<Repeat>>& repeats,
                     const std::vector<double>& payload_bytes, double share) {
  Figures f;
  std::vector<double> latency;
  double seconds = 0, bytes = 0, cpu_us = 0;
  for (size_t i = 0; i < repeats.size(); ++i) {
    std::vector<Repeat> reps = repeats[i];
    if (reps.empty()) continue;
    std::sort(reps.begin(), reps.end(), [](const Repeat& a, const Repeat& b) {
      return a.latency_us < b.latency_us;
    });
    const size_t n = std::clamp<size_t>(
        static_cast<size_t>(share * static_cast<double>(reps.size())), 1,
        reps.size());
    double lat = 0, cpu = 0;
    for (size_t k = 0; k < n; ++k) {
      lat += reps[k].latency_us;
      cpu += reps[k].cpu_us;
    }
    lat /= static_cast<double>(n);
    latency.push_back(lat);
    seconds += lat / 1e6;
    bytes += payload_bytes[i];
    cpu_us += cpu / static_cast<double>(n);
    f.pooled = f.pooled == 0 ? n : std::min(f.pooled, n);
    f.samples += n;
  }
  if (latency.empty()) return f;
  const double ops = static_cast<double>(latency.size());
  f.p50_us = Percentile(latency, 50);
  f.p99_us = Percentile(latency, 99);
  f.calls_per_s = ops / seconds;
  f.payload_mib_per_s = bytes / (1024.0 * 1024.0) / seconds;
  f.cpu_us_per_call = cpu_us / ops;
  return f;
}

int64_t MonoNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ProcSample SampleProc() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  ProcSample s;
  s.cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  s.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  s.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return s;
}

int ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

// One CPU at a time, because on a shared VM a wakeup that crosses vCPUs
// waits for the host to schedule an idle vCPU, and that wait swings with
// the other tenants' load: on a 4-vCPU VM, rpc-small spread over all
// vCPUs read 50-95 us p50 and up to 2 ms p99 from run to run, and 21-34
// us p50 and 32-60 us p99 on one vCPU. Each CPU in turn, because the
// other tenants do not load the vCPUs equally: idl-compile kept on one
// vCPU ran 15 % slower for whole runs at a time, and moved round by round
// over all of them it did not; the quiet figures come from the vCPU that
// was least disturbed.
int PinToNextCpu() {
  // The CPUs the thread could use before the first call pinned it.
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return allowed;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
    }
    return allowed;
  }();
  static size_t next = 0;
  if (cpus.empty()) return -1;
  const int cpu = cpus[next++ % cpus.size()];
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

}  // namespace orbbench
