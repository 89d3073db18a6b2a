// Exact statistics over per-operation samples, and process counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace orbbench {

// Nearest-rank percentile: the smallest sample with at least `pct`% of
// the samples at or below it. Reorders `samples`; 0 when empty.
double Percentile(std::vector<double>& samples, double pct);
double Median(std::vector<double> samples);

// The operations a run completed in one stretch of time.
struct Window {
  double seconds = 0;
  std::vector<float> latency_us;  // one per twoway call (compile)
  uint64_t oneway = 0;
  double payload_bytes = 0;
  double cpu_s = 0;  // process CPU time spent in the window

  uint64_t Ops() const { return latency_us.size() + oneway; }
};

// The end-to-end figures of a run.
struct Figures {
  double p50_us = 0;
  double p99_us = 0;
  double calls_per_s = 0;
  double payload_mib_per_s = 0;
  double cpu_us_per_call = 0;  // per operation, oneways included
  size_t pooled = 0;    // windows pooled, or repetitions per operation
  uint64_t samples = 0;  // latency samples the figures rest on
};

// The figures of the quiet windows: the best `share` of `windows` (at
// least one), ranked by operations completed per second, pooled. The
// percentiles are taken over every latency sample of those windows, the
// rates over their summed time. Contention from outside the process
// slows windows down and never speeds any up, so the quiet windows read
// the program on an undisturbed machine; a change in the program moves
// every window, so it still shows.
Figures QuietFigures(const std::vector<Window>& windows, double share);

// One measured repetition of an operation.
struct Repeat {
  float latency_us;
  float cpu_us;  // process CPU time from its start to its check's end
};

// The figures of a run whose rounds repeat the same operations:
// `repeats[i]` holds every measured repetition of operation i of the
// round, `payload_bytes[i]` its payload. An operation's quiet latency
// and CPU time are the means over its fastest `share` of repetitions (at
// least one). The percentiles are taken over the operations' quiet
// latencies and the rates over their sum: one round as it runs on a
// quiet machine. Operations with no repetition are left out. Used where
// an operation takes milliseconds, too long for short time windows to
// catch the quiet stretches, and where operations differ in size, so
// that windows holding different operations would not compare.
Figures QuietRepeats(const std::vector<std::vector<Repeat>>& repeats,
                     const std::vector<double>& payload_bytes, double share);

// Monotonic nanoseconds (CLOCK_MONOTONIC via steady_clock).
int64_t MonoNs();

struct ProcSample {
  double cpu_s = 0;            // user + system, all threads
  uint64_t ctx_switches = 0;   // voluntary + involuntary
  double peak_rss_mib = 0;
};
ProcSample SampleProc();
// Restricts the calling thread, and every thread it starts later, to
// one CPU: the next, in turn, of those the process could use at its
// first call. Returns the CPU, or -1 if the affinity is unchanged.
int PinToNextCpu();

// Live threads of this process (/proc/self/status), 0 if unreadable.
int ThreadCount();

// Process-wide operator new calls (heap_count.cpp), counted only while
// enabled so untraced runs pay no shared-counter traffic.
uint64_t HeapAllocs();
void EnableHeapCounting(bool on);

}  // namespace orbbench
