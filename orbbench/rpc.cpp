// The rpc workloads: one server orb and one client orb in this process,
// closed-loop callers, every reply checked.
//
//   rpc-small  1 caller, HIOP over TCP loopback, twoway add.
//   rpc-bulk   1 caller, text protocol over inproc:, twoway echo(string).
//   rpc-fanin  4 callers on one cached HIOP/TCP connection: add, blob,
//              and sequence-numbered oneway post.
//
// An untraced run reports the end-to-end metrics. A traced run attaches
// one obs::Tracer (always sampling) to both orbs, repeats the same loop,
// and reports the per-layer metrics: stage histograms, span pairs,
// Orb::Stats() deltas, process counters, and replays of the workload's
// requests through the wire layer and the skeleton alone.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <latch>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "demo/demo.h"
#include "inputs.h"
#include "layers.h"
#include "obs/tracer.h"
#include "orb/orb.h"
#include "servant.h"
#include "stats.h"

namespace orbbench {
namespace {

using heidi::orb::Orb;
using heidi::orb::OrbOptions;

struct Workload {
  const char* protocol;
  bool tcp;
  int callers;
  // The end-to-end figures pool the quiet share of time windows of
  // `window_s` (about 900 calls each on rpc-small and rpc-fanin); or,
  // with `window_s` 0, of each operation's repetitions (rpc-bulk, whose
  // calls take milliseconds and differ in size; see QuietRepeats).
  double window_s;
  double quiet_share;
};

Workload Describe(const std::string& name) {
  if (name == "rpc-small") return {"hiop", true, 1, 0.02, 0.01};
  if (name == "rpc-bulk") return {"text", false, 1, 0, 0.05};
  if (name == "rpc-fanin") return {"hiop", true, kFaninCallers, 0.02, 0.01};
  throw std::invalid_argument("unknown rpc workload " + name);
}

// The seeded inputs of one run, and each caller's round of operations
// pointing into them.
struct Inputs {
  std::vector<AddInput> adds;
  std::vector<std::string> payloads;
  std::vector<std::vector<FaninInput>> fanin;
  std::vector<std::vector<Op>> rounds;  // per caller
  // Post events as the first round sends them (sequence numbers from 0),
  // for the layer replays.
  std::vector<std::string> replay_events;
  std::vector<Op> replay_ops;  // caller 0's first round
};

void MakeInputs(const std::string& workload, uint64_t seed, Inputs& in) {
  if (workload == "rpc-small") {
    in.adds = MakeAddInputs(seed, kSmallPool);
    auto& round = in.rounds.emplace_back();
    for (const AddInput& a : in.adds) round.push_back({OpKind::kAdd, a.a, a.b});
  } else if (workload == "rpc-bulk") {
    in.payloads = MakeBulkInputs(seed, kBulkPool);
    auto& round = in.rounds.emplace_back();
    for (const std::string& p : in.payloads) {
      round.push_back({OpKind::kEcho, 0, 0, &p});
    }
  } else {
    in.fanin = MakeFaninInputs(seed, kFaninCallers, kFaninPool);
    for (const auto& ops : in.fanin) {
      auto& round = in.rounds.emplace_back();
      for (const FaninInput& f : ops) {
        switch (f.op) {
          case FanOp::kAdd: round.push_back({OpKind::kAdd, f.a, f.b}); break;
          case FanOp::kBlob:
            round.push_back({OpKind::kBlob, 0, 0, &f.data, &f.expected});
            break;
          case FanOp::kPost: round.push_back({OpKind::kPost, 0, 0, &f.data}); break;
        }
      }
    }
  }
  in.replay_events.reserve(in.rounds[0].size());
  uint64_t seq = 0;
  for (Op op : in.rounds[0]) {
    if (op.kind == OpKind::kPost) {
      in.replay_events.push_back(BenchEcho::FormatPost(0, seq++, *op.data));
      op.data = &in.replay_events.back();
    }
    in.replay_ops.push_back(op);
  }
}

// Server and client orb, the servant, and the client's stub.
class World {
 public:
  World(const Workload& w, BenchEcho::Fault fault,
        std::shared_ptr<heidi::obs::Tracer> tracer)
      : servant_(fault) {
    static std::atomic<int> serial{0};
    const std::string id = std::to_string(serial.fetch_add(1));
    OrbOptions server_options;
    server_options.protocol = w.protocol;
    server_options.tracer = std::move(tracer);
    OrbOptions client_options = server_options;
    if (!w.tcp) {
      server_options.inproc_name = "orbbench-server-" + id;
      client_options.inproc_name = "orbbench-client-" + id;
    }
    server_ = std::make_unique<Orb>(server_options);
    client_ = std::make_unique<Orb>(client_options);
    if (w.tcp) server_->ListenTcp();
    auto ref = server_->ExportObject(&servant_, "IDL:Heidi/Echo:1.0");
    echo_ = client_->ResolveAs<HdEcho>(ref.ToString());
  }
  ~World() {
    echo_.reset();
    client_->Shutdown();
    server_->Shutdown();
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  HdEcho& Echo() { return *echo_; }
  BenchEcho& Servant() { return servant_; }
  Orb& Server() { return *server_; }
  Orb& Client() { return *client_; }

 private:
  BenchEcho servant_;  // outlives both orbs
  std::unique_ptr<Orb> server_;
  std::unique_ptr<Orb> client_;
  std::shared_ptr<HdEcho> echo_;
};

struct CallerTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // wrong or failed twoway replies
  uint64_t posts = 0;   // oneways sent, warm-up included
  // Measured operations by the time window they completed in; set up by
  // MeasureSegment before the measured rounds start.
  std::vector<Window> windows;
  // Or, when sized to the round, every measured repetition of each
  // operation of the round.
  std::vector<std::vector<Repeat>> repeats;
  int64_t t_start = 0;
  int64_t window_ns = 1;
  uint64_t measured = 0;  // all measured operations, in windows or not

  // `latency_us` < 0 marks a oneway. Completions after the last full
  // time window are not kept.
  void Record(int64_t done_ns, double latency_us, double payload_bytes) {
    ++measured;
    size_t i = static_cast<size_t>((done_ns - t_start) / window_ns);
    if (done_ns < t_start || i >= windows.size()) return;
    Window& win = windows[i];
    win.payload_bytes += payload_bytes;
    if (latency_us < 0) {
      ++win.oneway;
    } else {
      win.latency_us.push_back(static_cast<float>(latency_us));
    }
  }
  void RecordRepeat(size_t op, double latency_us, double cpu_us) {
    ++measured;
    repeats[op].push_back({static_cast<float>(latency_us), static_cast<float>(cpu_us)});
  }
};

double PayloadBytes(const Op& op) {
  if (op.kind == OpKind::kAdd) return 12.0;
  if (op.kind == OpKind::kPost) return static_cast<double>(op.data->size());
  return 2.0 * static_cast<double>(op.data->size());
}

// One whole round of `ops`. Twoway calls are timed one by one; checks
// run after the clock stops.
void RunRound(HdEcho& echo, int caller, const std::vector<Op>& ops,
              bool measured, CallerTally& t) {
  const bool per_op = measured && !t.repeats.empty();
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    ++t.attempted;
    if (op.kind == OpKind::kPost) {
      try {
        echo.post(BenchEcho::FormatPost(caller, t.posts, *op.data));
      } catch (const std::exception&) {
        // Counted as undelivered when the servant's tally is read.
      }
      ++t.posts;
      if (measured) t.Record(MonoNs(), -1, PayloadBytes(op));
      continue;
    }
    bool ok = false;
    const double cpu0 = per_op ? SampleProc().cpu_s : 0;
    int64_t t0 = MonoNs();
    int64_t t1 = t0;
    try {
      switch (op.kind) {
        case OpKind::kAdd: {
          long r = echo.add(op.a, op.b);
          t1 = MonoNs();
          ok = r == static_cast<long>(op.a) + op.b;
          break;
        }
        case OpKind::kEcho: {
          HdString r = echo.echo(*op.data);
          t1 = MonoNs();
          ok = r == *op.data;
          break;
        }
        case OpKind::kBlob: {
          HdString r = echo.blob(*op.data);
          t1 = MonoNs();
          ok = r == *op.expected;
          break;
        }
        case OpKind::kPost: break;
      }
    } catch (const std::exception&) {
      t1 = MonoNs();
      ok = false;
    }
    if (!ok) ++t.failed;
    const double latency_us = static_cast<double>(t1 - t0) / 1000.0;
    if (per_op) {
      t.RecordRepeat(i, latency_us, (SampleProc().cpu_s - cpu0) * 1e6);
    } else if (measured) {
      t.Record(t1, latency_us, PayloadBytes(op));
    }
  }
}

// Exact p50 of the part of each client wait that its server span does
// not cover: the hops there and back and the demux wake.
double WaitOutsideServerP50Us(const heidi::obs::Tracer& tracer) {
  struct Pair {
    int64_t wait_start = 0, wait_end = 0;
    int64_t server_start = 0, server_end = 0;
    bool client = false, server = false;
  };
  std::map<std::pair<uint64_t, uint64_t>, Pair> pairs;
  for (const auto& rec : tracer.Snapshot()) {
    Pair& p = pairs[{rec.ctx.trace_hi, rec.ctx.trace_lo}];
    if (rec.kind == heidi::obs::SpanKind::kServer) {
      p.server = true;
      p.server_start = rec.start_ns;
      p.server_end = rec.end_ns;
    } else if (rec.kind == heidi::obs::SpanKind::kClient) {
      for (int i = 0; i < rec.stage_count; ++i) {
        if (std::string_view(rec.stages[i].name) == "wait") {
          p.client = true;
          p.wait_start = rec.stages[i].start_ns;
          p.wait_end = rec.stages[i].end_ns;
        }
      }
    }
  }
  std::vector<double> outside;
  for (const auto& [id, p] : pairs) {
    if (!p.client || !p.server) continue;
    int64_t lo = std::max(p.wait_start, p.server_start);
    int64_t hi = std::min(p.wait_end, p.server_end);
    int64_t covered = hi > lo ? hi - lo : 0;
    outside.push_back(static_cast<double>(p.wait_end - p.wait_start - covered) /
                      1000.0);
  }
  return Median(std::move(outside));
}

double StageUs(heidi::obs::Tracer& tracer, const char* stage, double pct) {
  return static_cast<double>(
             tracer.Metrics().Histogram(stage)->Percentile(pct)) /
         1000.0;
}

struct Segment {
  std::vector<Window> windows;
  std::vector<std::vector<Repeat>> repeats;
  std::map<std::string, double> layers;  // traced runs only
};

// One measured segment on `world`: a warm-up round per caller, then
// whole rounds until `seconds` have passed. Adds the segment's operations
// to `result`. The segment's time is cut into windows of `window_s`, and
// only windows that end before the deadline, when every caller is still
// busy, are kept; with `window_s` 0 the one caller keeps every
// repetition of each operation instead. Per-layer metrics are read when
// `tracer` is set.
Segment MeasureSegment(World& world, const Inputs& in, const Workload& w,
                       double seconds, heidi::obs::Tracer* tracer,
                       RunResult& result) {
  const bool repeated = w.window_s == 0;
  const int64_t window_ns = repeated ? 1 : static_cast<int64_t>(w.window_s * 1e9);
  const size_t n_windows =
      repeated ? 0 : static_cast<size_t>(static_cast<int64_t>(seconds * 1e9) / window_ns);
  std::vector<CallerTally> tallies(static_cast<size_t>(w.callers));
  for (size_t c = 0; c < tallies.size(); ++c) {
    tallies[c].windows.resize(n_windows);
    tallies[c].window_ns = window_ns;
    if (repeated) tallies[c].repeats.resize(in.rounds[c].size());
  }
  std::atomic<int64_t> start{0};
  std::latch warmed(w.callers);
  std::latch go(1);
  std::atomic<int64_t> deadline{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < w.callers; ++c) {
    callers.emplace_back([&, c] {
      const auto& round = in.rounds[static_cast<size_t>(c)];
      CallerTally& t = tallies[static_cast<size_t>(c)];
      RunRound(world.Echo(), c, round, /*measured=*/false, t);
      warmed.count_down();
      go.wait();
      t.t_start = start.load();
      const int64_t end = deadline.load();
      do {
        RunRound(world.Echo(), c, round, /*measured=*/true, t);
      } while (MonoNs() < end);
    });
  }
  warmed.wait();
  const int threads = ThreadCount();  // every thread of the run is up
  if (tracer != nullptr) EnableHeapCounting(true);
  const heidi::orb::OrbStats server0 = world.Server().Stats();
  const heidi::orb::OrbStats client0 = world.Client().Stats();
  const uint64_t heap0 = HeapAllocs();
  const ProcSample proc0 = SampleProc();
  const int64_t t_start = MonoNs();
  const int64_t t_deadline = t_start + static_cast<int64_t>(seconds * 1e9);
  start.store(t_start);
  deadline.store(t_deadline);
  go.count_down();
  // CPU time at each time window's boundary.
  std::vector<double> cpu_marks = {proc0.cpu_s};
  for (size_t i = 1; i <= n_windows; ++i) {
    const int64_t edge = t_start + static_cast<int64_t>(i) * window_ns;
    std::this_thread::sleep_for(std::chrono::nanoseconds(edge - MonoNs()));
    cpu_marks.push_back(SampleProc().cpu_s);
  }
  for (auto& t : callers) t.join();
  const ProcSample proc1 = SampleProc();
  const uint64_t heap1 = HeapAllocs();
  EnableHeapCounting(false);

  // Every post sent must arrive, in order, with its checksum intact.
  uint64_t posts = 0;
  for (const auto& t : tallies) posts += t.posts;
  world.Servant().WaitForDelivered(posts, /*timeout_ms=*/10000);
  const BenchEcho::PostTally tally = world.Servant().Tally();
  const heidi::orb::OrbStats server1 = world.Server().Stats();
  const heidi::orb::OrbStats client1 = world.Client().Stats();
  result.failed += tally.Bad() + (posts - std::min(posts, tally.delivered));

  Segment seg;
  seg.repeats = std::move(tallies[0].repeats);  // one caller when repeated
  for (size_t i = 0; i < n_windows; ++i) {
    Window& win = seg.windows.emplace_back();
    win.seconds = w.window_s;
    win.cpu_s = cpu_marks[i + 1] - cpu_marks[i];
    for (const CallerTally& t : tallies) {
      const Window& part = t.windows[i];
      win.oneway += part.oneway;
      win.payload_bytes += part.payload_bytes;
      win.latency_us.insert(win.latency_us.end(), part.latency_us.begin(),
                            part.latency_us.end());
    }
  }
  uint64_t ops = 0;  // the per-layer denominators
  for (const CallerTally& t : tallies) {
    result.attempted += t.attempted;
    result.failed += t.failed;
    ops += t.measured;
  }
  if (tracer == nullptr) return seg;

  heidi::obs::Tracer& tr = *tracer;
  const double n = static_cast<double>(ops);
  auto per_op = [n](uint64_t before, uint64_t after) {
    return static_cast<double>(after - before) / n;
  };
  auto& m = seg.layers;
  m["orb.client.acquire_p50_us"] = StageUs(tr, "stage.client.acquire", 50);
  m["orb.client.send_p50_us"] = StageUs(tr, "stage.client.send", 50);
  m["orb.client.wait_p50_us"] = StageUs(tr, "stage.client.wait", 50);
  m["orb.client.unmarshal_p50_us"] = StageUs(tr, "stage.client.unmarshal", 50);
  m["orb.server.queue_p50_us"] = StageUs(tr, "stage.server.queue", 50);
  m["orb.server.queue_p99_us"] = StageUs(tr, "stage.server.queue", 99);
  m["orb.server.exec_p50_us"] = StageUs(tr, "stage.server.exec", 50);
  m["orb.server.reply_p50_us"] = StageUs(tr, "stage.server.reply", 50);
  m["orb.wait_outside_server_p50_us"] = WaitOutsideServerP50Us(tr);
  m["orb.mux_wakeups_per_call"] = per_op(client0.mux_wakeups, client1.mux_wakeups);
  m["orb.dispatch_queue_highwater"] =
      static_cast<double>(server1.dispatch_queue_highwater);
  m["net.reactor_epoll_wakeups_per_call"] =
      per_op(server0.reactor_epoll_wakeups, server1.reactor_epoll_wakeups);
  m["net.reactor_eventfd_wakeups_per_call"] =
      per_op(server0.reactor_eventfd_wakeups, server1.reactor_eventfd_wakeups);
  m["support.iobuf_pool_misses_per_call"] =
      per_op(server0.iobuf_pool_misses, server1.iobuf_pool_misses);
  m["support.heap_allocs_per_call"] = per_op(heap0, heap1);
  m["proc.ctx_switches_per_call"] = per_op(proc0.ctx_switches, proc1.ctx_switches);
  m["proc.threads"] = threads;
  return seg;
}

}  // namespace

RunResult RunRpc(const RunOptions& options) {
  const Workload w = Describe(options.workload);
  Inputs in;
  MakeInputs(options.workload, options.seed, in);
  RunResult result;

  // kSetupReps fresh worlds, each with its set-up (orbs up, object
  // exported, reference resolved, first call answered) timed; setup_s is
  // their median. Every other world, kSegments in all, then serves a
  // segment of the run, so the set-ups spread over the run. Each
  // per-layer metric is the median over segments, so one unlucky thread
  // placement does not move it.
  std::vector<double> setup_s;
  std::vector<Window> windows;
  std::vector<std::vector<Repeat>> repeats(in.rounds[0].size());
  std::map<std::string, std::vector<double>> layers;
  // Every tracer lives until the run ends: an orb with a tracer binds the
  // process-global buffer pool's counters into the tracer's registry and
  // never unbinds them, so the pool traffic of a later segment would
  // write into a destroyed tracer's memory.
  std::vector<std::shared_ptr<heidi::obs::Tracer>> tracers;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::shared_ptr<heidi::obs::Tracer> tracer;
    if (options.trace) {
      heidi::obs::TracerOptions topts;
      topts.mode = heidi::obs::SampleMode::kAlways;
      topts.ring_capacity = 1 << 14;
      tracer = std::make_shared<heidi::obs::Tracer>(topts);
      tracers.push_back(tracer);
    }
    const bool segment = rep % 2 == 0 && rep < 2 * kSegments;
    // Each segment's threads, the orbs' included, run on the next CPU.
    if (segment) {
      std::fprintf(stderr, "orbbench: segment on cpu %d\n", PinToNextCpu());
    }
    int64_t t0 = MonoNs();
    auto world = std::make_unique<World>(w, options.fault, tracer);
    long first = world->Echo().add(20, 22);
    setup_s.push_back(static_cast<double>(MonoNs() - t0) / 1e9);
    ++result.attempted;
    if (first != 42) ++result.failed;
    if (!segment) continue;
    Segment seg = MeasureSegment(*world, in, w, options.seconds / kSegments,
                                 tracer.get(), result);
    for (Window& win : seg.windows) windows.push_back(std::move(win));
    for (size_t i = 0; i < seg.repeats.size(); ++i) {
      repeats[i].insert(repeats[i].end(), seg.repeats[i].begin(), seg.repeats[i].end());
    }
    for (const auto& [name, value] : seg.layers) layers[name].push_back(value);
  }

  // The end-to-end figures pool the quiet windows, or the quiet
  // repetitions, of all segments.
  Figures f;
  if (w.window_s > 0) {
    f = QuietFigures(windows, w.quiet_share);
    std::fprintf(stderr,
                 "orbbench: %s seed %llu: %zu windows, the %zu quiet ones "
                 "pool %llu twoway latency samples\n",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed), windows.size(),
                 f.pooled, static_cast<unsigned long long>(f.samples));
  } else {
    std::vector<double> payload_bytes;
    for (const Op& op : in.rounds[0]) payload_bytes.push_back(PayloadBytes(op));
    f = QuietRepeats(repeats, payload_bytes, w.quiet_share);
    std::fprintf(stderr,
                 "orbbench: %s seed %llu: %zu operations per round, at least "
                 "%zu quiet repetitions of each, %llu latency samples\n",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed), repeats.size(),
                 f.pooled, static_cast<unsigned long long>(f.samples));
  }
  if (!options.trace) {
    result.Set("setup_s", Median(setup_s));
    result.Set("call_p50_us", f.p50_us);
    result.Set("call_p99_us", f.p99_us);
    result.Set("calls_per_s", f.calls_per_s);
    result.Set("payload_mib_per_s", f.payload_mib_per_s);
    result.Set("cpu_us_per_call", f.cpu_us_per_call);
    result.Set("peak_rss_mib", SampleProc().peak_rss_mib);
    return result;
  }
  for (const auto& [name, values] : layers) result.Set(name, Median(values));
  result.Set("traced.call_p50_us", f.p50_us);

  if (!in.payloads.empty()) {
    double escaped = 0;
    double total = 0;
    for (const std::string& p : in.payloads) {
      total += static_cast<double>(p.size());
      escaped += static_cast<double>(std::count_if(p.begin(), p.end(), TextEscapes));
    }
    std::fprintf(stderr, "orbbench: %.0f payload bytes per round, %.4f of them escaped\n",
                 total, escaped / total);
  }
  const WireLayer wire = ReplayWire(w.protocol, in.replay_ops, 0.5);
  if (!wire.correct) {
    std::fprintf(stderr, "orbbench: wire replay decoded a wrong value\n");
    result.correct = false;
  }
  result.Set("wire.encode_ns_per_call", wire.encode_ns_per_call);
  result.Set("wire.decode_ns_per_call", wire.decode_ns_per_call);
  result.Set("wire.request_bytes_per_call", wire.request_bytes_per_call);
  result.Set("wire.reply_bytes_per_call", wire.reply_bytes_per_call);
  result.Set("orb.dispatch_ns_per_call",
             ReplayDispatch(w.protocol, in.replay_ops, 0.5));
  return result;
}

}  // namespace orbbench
