// The benchmark's own tests: seeded inputs repeat, the percentile
// routine matches a sort-based reference, and a wrong servant shows up
// as failed operations rather than as a pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "inputs.h"
#include "stats.h"

namespace orbbench {
namespace {

TEST(Inputs, SameSeedSameInputs) {
  for (uint64_t seed : {1ull, 7ull, 123456789ull}) {
    auto adds1 = MakeAddInputs(seed, kSmallPool);
    auto adds2 = MakeAddInputs(seed, kSmallPool);
    ASSERT_EQ(adds1.size(), adds2.size());
    for (size_t i = 0; i < adds1.size(); ++i) {
      EXPECT_EQ(adds1[i].a, adds2[i].a);
      EXPECT_EQ(adds1[i].b, adds2[i].b);
    }
    EXPECT_EQ(MakeBulkInputs(seed, 16), MakeBulkInputs(seed, 16));
    auto fan1 = MakeFaninInputs(seed, kFaninCallers, kFaninPool);
    auto fan2 = MakeFaninInputs(seed, kFaninCallers, kFaninPool);
    for (int c = 0; c < kFaninCallers; ++c) {
      for (size_t i = 0; i < kFaninPool; ++i) {
        EXPECT_EQ(fan1[c][i].op, fan2[c][i].op);
        EXPECT_EQ(fan1[c][i].a, fan2[c][i].a);
        EXPECT_EQ(fan1[c][i].data, fan2[c][i].data);
      }
    }
    auto idl1 = MakeIdlCorpus(seed, 3);
    auto idl2 = MakeIdlCorpus(seed, 3);
    for (size_t i = 0; i < idl1.size(); ++i) {
      EXPECT_EQ(idl1[i].source, idl2[i].source);
    }
  }
  EXPECT_NE(MakeBulkInputs(1, 4), MakeBulkInputs(2, 4));
  EXPECT_NE(MakeIdlCorpus(1, 1)[0].source, MakeIdlCorpus(2, 1)[0].source);
}

TEST(Inputs, ShapeIsFixed) {
  for (uint64_t seed : {3ull, 4ull}) {
    size_t escaped = 0;
    size_t total = 0;
    for (const std::string& p : MakeBulkInputs(seed, kBulkPool)) {
      EXPECT_GE(p.size(), kBulkMinBytes);
      EXPECT_LE(p.size(), kBulkMaxBytes);
      total += p.size();
      escaped += static_cast<size_t>(std::count_if(p.begin(), p.end(), TextEscapes));
    }
    EXPECT_NEAR(static_cast<double>(escaped) / static_cast<double>(total),
                1.0 / kBulkEscapeEvery, 0.001);
    for (const auto& ops : MakeFaninInputs(seed, kFaninCallers, kFaninPool)) {
      EXPECT_EQ(std::count_if(ops.begin(), ops.end(),
                              [](const FaninInput& f) { return f.op == FanOp::kAdd; }),
                static_cast<long>(kFaninPool / 2));
      EXPECT_EQ(std::count_if(ops.begin(), ops.end(),
                              [](const FaninInput& f) { return f.op == FanOp::kPost; }),
                static_cast<long>(kFaninPool / 4));
    }
    // Same structure for every seed: same interface and operation count.
    size_t ops = 0;
    for (const IdlFile& f : MakeIdlCorpus(seed, 2)) {
      for (const IdlInterface& i : f.interfaces) ops += i.operations.size();
      EXPECT_EQ(ScanIdlInterfaces(f.source).size(), f.interfaces.size());
    }
    EXPECT_EQ(ops, 2u * 6 * 8);  // files x interfaces x operations
  }
}

TEST(Inputs, ScanFindsInterfacesAndOperations) {
  auto found = ScanIdlInterfaces(R"(
    // interface Commented { void no(); };
    module M {
      interface Fwd;
      exception E { long code; };
      interface A { void ping(); long add(in long a) raises (E); };
      interface B : A {
        oneway void post(in string s);
        readonly attribute long n;
        struct Inner { long x; };
      };
    };)");
  ASSERT_EQ(found.size(), 2u);
  EXPECT_EQ(found[0].name, "A");
  EXPECT_EQ(found[0].operations, (std::vector<std::string>{"ping", "add"}));
  EXPECT_EQ(found[1].name, "B");
  EXPECT_EQ(found[1].operations, (std::vector<std::string>{"post"}));
}

TEST(Percentile, MatchesSortReference) {
  Rng rng(99);
  for (size_t n : {1u, 2u, 3u, 10u, 99u, 100u, 101u, 1000u, 4097u}) {
    std::vector<double> v(n);
    for (double& x : v) x = std::floor(rng.Uniform() * 50);  // with ties
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double pct : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
      double want = sorted[rank == 0 ? 0 : rank - 1];
      std::vector<double> copy = v;
      EXPECT_EQ(Percentile(copy, pct), want) << "n=" << n << " pct=" << pct;
    }
  }
  std::vector<double> empty;
  EXPECT_EQ(Percentile(empty, 50), 0);
}

Window MakeWindow(double seconds, std::vector<float> latency_us, uint64_t oneway,
                  double payload_bytes, double cpu_s) {
  Window w;
  w.seconds = seconds;
  w.latency_us = std::move(latency_us);
  w.oneway = oneway;
  w.payload_bytes = payload_bytes;
  w.cpu_s = cpu_s;
  return w;
}

TEST(QuietFigures, PoolsTheFastestWindows) {
  EXPECT_EQ(QuietFigures({}, 0.25).pooled, 0u);
  // Operations per second: 4, 10 (3 twoway + 2 oneway in 0.5 s), 2, 8.
  std::vector<Window> windows = {
      MakeWindow(1.0, {5, 6, 7, 8}, 0, 40, 0.4),
      MakeWindow(0.5, {1, 2, 3}, 2, 1024 * 1024, 0.2),
      MakeWindow(1.0, {9, 9}, 0, 20, 0.2),
      MakeWindow(0.5, {4, 3, 2, 1}, 0, 1024 * 1024, 0.3),
  };
  Figures one = QuietFigures(windows, 0.25);
  EXPECT_EQ(one.pooled, 1u);
  EXPECT_EQ(one.samples, 3u);
  EXPECT_EQ(one.p50_us, 2);
  EXPECT_EQ(one.calls_per_s, 6);
  EXPECT_EQ(one.payload_mib_per_s, 2);
  EXPECT_NEAR(one.cpu_us_per_call, 0.2e6 / 5, 1e-6);
  // The two fastest windows, pooled: 7 samples in 1 s.
  Figures two = QuietFigures(windows, 0.5);
  EXPECT_EQ(two.pooled, 2u);
  EXPECT_EQ(two.samples, 7u);
  EXPECT_EQ(two.p50_us, 2);
  EXPECT_EQ(two.p99_us, 4);
  EXPECT_EQ(two.calls_per_s, 7);
  EXPECT_EQ(two.payload_mib_per_s, 2);
  EXPECT_NEAR(two.cpu_us_per_call, 0.5e6 / 9, 1e-6);
  EXPECT_EQ(QuietFigures(windows, 0.01).pooled, 1u);
  EXPECT_EQ(QuietFigures(windows, 1.0).pooled, 4u);
}

TEST(QuietRepeats, FastestRepetitionsOfEachOperation) {
  // Operation 0: fastest quarter {2}; operation 1: {10}; operation 2 never ran.
  std::vector<std::vector<Repeat>> repeats = {
      {{4, 40}, {2, 20}, {8, 80}, {3, 30}},
      {{10, 100}, {30, 300}, {20, 200}, {40, 400}},
      {},
  };
  std::vector<double> payload = {1024 * 1024, 1024 * 1024, 999};
  Figures q = QuietRepeats(repeats, payload, 0.25);
  EXPECT_EQ(q.pooled, 1u);
  EXPECT_EQ(q.samples, 2u);
  EXPECT_EQ(q.p50_us, 2);
  EXPECT_EQ(q.p99_us, 10);
  EXPECT_NEAR(q.calls_per_s, 2 / 12e-6, 1e-3);
  EXPECT_NEAR(q.payload_mib_per_s, 2 / 12e-6, 1e-3);
  EXPECT_EQ(q.cpu_us_per_call, 60);
  // The fastest half: means {2.5, 15}, CPU {25, 150}.
  Figures h = QuietRepeats(repeats, payload, 0.5);
  EXPECT_EQ(h.pooled, 2u);
  EXPECT_EQ(h.p50_us, 2.5);
  EXPECT_EQ(h.p99_us, 15);
  EXPECT_NEAR(h.calls_per_s, 2 / 17.5e-6, 1e-3);
  EXPECT_EQ(h.cpu_us_per_call, 87.5);
  EXPECT_EQ(QuietRepeats({}, {}, 0.5).samples, 0u);
}

RunOptions Quick(const char* workload, BenchEcho::Fault fault) {
  RunOptions o;
  o.workload = workload;
  o.seed = 5;
  o.seconds = 0.2;
  o.fault = fault;
  return o;
}

TEST(Checks, CorrectServantPasses) {
  for (const char* w : {"rpc-small", "rpc-fanin"}) {
    RunResult r = RunRpc(Quick(w, BenchEcho::Fault::kNone));
    EXPECT_TRUE(r.correct) << w;
    EXPECT_GT(r.attempted, 0u) << w;
    EXPECT_EQ(r.failed, 0u) << w;
  }
}

TEST(Checks, WrongSumIsFailed) {
  for (const char* w : {"rpc-small", "rpc-fanin"}) {
    RunResult r = RunRpc(Quick(w, BenchEcho::Fault::kAddOffByOne));
    EXPECT_TRUE(r.correct) << w;
    EXPECT_GT(r.failed, 0u) << w;
    if (std::string(w) == "rpc-small") EXPECT_EQ(r.failed, r.attempted);
  }
}

TEST(Checks, ReorderedPostsAreFailed) {
  RunResult r = RunRpc(Quick("rpc-fanin", BenchEcho::Fault::kReorderPosts));
  EXPECT_TRUE(r.correct);
  // The two swapped posts, in each segment's fresh servant.
  EXPECT_EQ(r.failed, 2u * kSegments);
}

TEST(Servant, PostCheck) {
  BenchEcho echo;
  echo.post(BenchEcho::FormatPost(1, 0, "alpha"));
  echo.post(BenchEcho::FormatPost(1, 1, "beta"));
  echo.post(BenchEcho::FormatPost(2, 0, "gamma"));
  EXPECT_EQ(echo.Tally().delivered, 3u);
  EXPECT_EQ(echo.Tally().Bad(), 0u);
  echo.post(BenchEcho::FormatPost(1, 3, "skipped two"));
  EXPECT_EQ(echo.Tally().out_of_order, 1u);
  std::string tampered = BenchEcho::FormatPost(2, 1, "delta");
  tampered.back() = 'x';
  echo.post(tampered);
  echo.post("no fields");
  EXPECT_EQ(echo.Tally().bad_checksum, 2u);
}

}  // namespace
}  // namespace orbbench
