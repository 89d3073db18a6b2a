// Seeded input generation. Every input of every workload comes from
// here and depends only on the seed; the ORB receives only the generated
// values. Sizes are drawn stratified (one draw per equal-probability
// stratum, then shuffled), so two seeds give different payloads, bytes
// and orders but the same size distribution — a run's medians then
// measure the program, not the luck of the draw.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace orbbench {

// splitmix64: small, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[Below(i)]);
  }

 private:
  uint64_t state_;
};

// A per-purpose generator, so adding a draw to one input leaves the
// others unchanged.
Rng StreamRng(uint64_t seed, uint64_t stream);

// `n` sizes, log-uniform over [lo, hi], one per stratum, shuffled.
std::vector<size_t> StratifiedLogUniform(Rng& rng, size_t n, size_t lo,
                                         size_t hi);

// --- rpc-small --------------------------------------------------------------

struct AddInput {
  int32_t a;
  int32_t b;
};
constexpr size_t kSmallPool = 256;
std::vector<AddInput> MakeAddInputs(uint64_t seed, size_t n);

// --- rpc-bulk ---------------------------------------------------------------

// Payload sizes are log-uniform over [4 KiB, 256 KiB]; exactly one byte
// in kBulkEscapeEvery is one the text protocol must %XX-escape.
constexpr size_t kBulkPool = 128;
constexpr size_t kBulkMinBytes = 4 << 10;
constexpr size_t kBulkMaxBytes = 256 << 10;
constexpr size_t kBulkEscapeEvery = 8;
std::vector<std::string> MakeBulkInputs(uint64_t seed, size_t n);
// The bytes the text protocol escapes (support/strings.cpp NeedsEscape).
bool TextEscapes(char c);

// --- rpc-fanin --------------------------------------------------------------

enum class FanOp : uint8_t { kAdd, kBlob, kPost };

struct FaninInput {
  FanOp op = FanOp::kAdd;
  int32_t a = 0;
  int32_t b = 0;
  std::string data;      // blob payload, or post text
  std::string expected;  // blob: the payload reversed
};

// Per caller and round: kFaninPool operations, exactly half twoway
// `add`, a quarter twoway `blob` (1–16 KiB, log-uniform) and a quarter
// oneway `post` (16–64 byte text), in seeded order.
constexpr int kFaninCallers = 4;
constexpr size_t kFaninPool = 256;
constexpr size_t kBlobMinBytes = 1 << 10;
constexpr size_t kBlobMaxBytes = 16 << 10;
std::vector<std::vector<FaninInput>> MakeFaninInputs(uint64_t seed,
                                                     int callers, size_t n);

// --- idl-compile ------------------------------------------------------------

struct IdlInterface {
  std::string name;
  std::vector<std::string> operations;  // declared here, not inherited
};

struct IdlFile {
  std::string name;    // source name passed to the compiler
  std::string source;  // IDL text
  // Value of the viewInterfaces global for the heidi_cpp view run.
  std::string view_interfaces = "*";
  std::vector<IdlInterface> interfaces;  // facts the output must reflect
};

// kIdlCorpusFiles synthetic files of one fixed shape (modules, structs,
// unions, enums, sequences, exceptions, interfaces with multiple
// inheritance, defaults, incopy, attributes, oneways, raises); names,
// types and parameter lists are seeded.
constexpr int kIdlCorpusFiles = 24;
std::vector<IdlFile> MakeIdlCorpus(uint64_t seed, int files);

// Interfaces and their operations, read from IDL text by a scan of its
// own (not the compiler's parser), for the corpus files read from disk.
std::vector<IdlInterface> ScanIdlInterfaces(std::string_view source);

}  // namespace orbbench
