// Shared declarations of the ORB benchmark: the run options every
// workload takes, the result a run prints, and the workload entry points.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "servant.h"

namespace orbbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";  // repository root: IDL inputs and goldens
  // rpc workloads: a deliberately wrong servant, for the benchmark's own
  // tests (the command line always runs the correct one).
  BenchEcho::Fault fault = BenchEcho::Fault::kNone;
};

// One run's outcome. `failed` counts operations whose reply or output
// was wrong (or never came); `correct` turns false only when a check
// outside any counted operation fails, e.g. a golden file differs.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void Set(const std::string& name, double value) { metrics[name] = value; }
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every end-to-end metric, printed by every untraced run.
const std::vector<MetricSpec>& EndToEndMetrics();
// Every per-layer metric, printed by every traced run; a layer the
// workload does not exercise reads 0.
const std::vector<MetricSpec>& PerLayerMetrics();

// rpc-small, rpc-bulk, rpc-fanin.
RunResult RunRpc(const RunOptions& options);
// idl-compile.
RunResult RunCompile(const RunOptions& options);

// Repetitions of the set-up phase whose median is setup_s; at least
// 2 * kSegments.
constexpr int kSetupReps = 17;
// Segments of an rpc run, each on a fresh world just set up and on the
// next CPU: each CPU of a 4-vCPU VM serves two.
constexpr int kSegments = 8;

}  // namespace orbbench
