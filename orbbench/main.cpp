// orbbench — the ORB benchmark binary.
//
//   orbbench --workload <rpc-small|rpc-bulk|rpc-fanin|idl-compile>
//            --seed <n> --seconds <s> --trace <0|1> [--root <repo root>]
//
// Progress goes to stderr. The last line of stdout is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1), each as {"value": v, "unit": u}.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "bench.h"
#include "stats.h"

namespace orbbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"call_p50_us", "us"},
      {"call_p99_us", "us"},
      {"calls_per_s", "1/s"},
      {"payload_mib_per_s", "MiB/s"},
      {"cpu_us_per_call", "us"},
      {"peak_rss_mib", "MiB"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"traced.call_p50_us", "us"},
      {"orb.client.acquire_p50_us", "us"},
      {"orb.client.send_p50_us", "us"},
      {"orb.client.wait_p50_us", "us"},
      {"orb.client.unmarshal_p50_us", "us"},
      {"orb.server.queue_p50_us", "us"},
      {"orb.server.queue_p99_us", "us"},
      {"orb.server.exec_p50_us", "us"},
      {"orb.server.reply_p50_us", "us"},
      {"orb.wait_outside_server_p50_us", "us"},
      {"orb.mux_wakeups_per_call", "count"},
      {"orb.dispatch_queue_highwater", "count"},
      {"orb.dispatch_ns_per_call", "ns"},
      {"net.reactor_epoll_wakeups_per_call", "count"},
      {"net.reactor_eventfd_wakeups_per_call", "count"},
      {"wire.encode_ns_per_call", "ns"},
      {"wire.decode_ns_per_call", "ns"},
      {"wire.request_bytes_per_call", "bytes"},
      {"wire.reply_bytes_per_call", "bytes"},
      {"support.iobuf_pool_misses_per_call", "count"},
      {"support.heap_allocs_per_call", "count"},
      {"proc.ctx_switches_per_call", "count"},
      {"proc.threads", "count"},
      {"idl.parse_resolve_ms", "ms"},
      {"est.build_ms", "ms"},
      {"tmpl.compile_ms", "ms"},
      {"tmpl.exec_ms.heidi_cpp", "ms"},
      {"tmpl.exec_ms.corba_cpp", "ms"},
      {"tmpl.exec_ms.java", "ms"},
      {"tmpl.exec_ms.tcl", "ms"},
      {"tmpl.exec_ms.heidi_cpp_view", "ms"},
      {"codegen.output_kib", "KiB"},
  };
  return metrics;
}

}  // namespace orbbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: orbbench --workload <rpc-small|rpc-bulk|rpc-fanin|"
               "idl-compile> --seed <n> --seconds <s> --trace <0|1> "
               "[--root <dir>]\n");
  return 2;
}

// Prints the result line; false if a metric the run must report is
// missing or not finite.
bool PrintResult(const orbbench::RunResult& r, bool trace) {
  const auto& specs =
      trace ? orbbench::PerLayerMetrics() : orbbench::EndToEndMetrics();
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool ok = true;
  for (size_t i = 0; i < specs.size(); ++i) {
    auto it = r.metrics.find(specs[i].name);
    double value = 0;
    if (it != r.metrics.end()) {
      value = it->second;
    } else if (!trace) {
      std::fprintf(stderr, "orbbench: metric %s missing\n", specs[i].name);
      ok = false;
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "orbbench: metric %s is not finite\n", specs[i].name);
      ok = false;
      value = 0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += std::string(i ? ", " : "") + "\"" + specs[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  orbbench::RunOptions options;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = true;
      } else if (arg == "--trace") {
        trace = std::stoi(value);
      } else if (arg == "--root") {
        options.root = value;
      } else {
        return Usage();
      }
    } catch (const std::exception&) {
      return Usage();
    }
  }
  if (options.workload.empty() || !have_seed || !have_seconds ||
      (trace != 0 && trace != 1) || !(options.seconds > 0)) {
    return Usage();
  }
  options.trace = trace == 1;
  std::fprintf(stderr, "orbbench: running on cpu %d\n", orbbench::PinToNextCpu());

  try {
    orbbench::RunResult result;
    if (options.workload == "idl-compile") {
      result = orbbench::RunCompile(options);
    } else {
      result = orbbench::RunRpc(options);
    }
    return PrintResult(result, options.trace) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "orbbench: %s\n", e.what());
    return 1;
  }
}
