#include "inputs.h"

#include <algorithm>
#include <cctype>
#include <cmath>

namespace orbbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Rng StreamRng(uint64_t seed, uint64_t stream) {
  Rng mix(seed ^ (stream * 0xD1B54A32D192ED03ull));
  return Rng(mix.Next());
}

std::vector<size_t> StratifiedLogUniform(Rng& rng, size_t n, size_t lo,
                                         size_t hi) {
  std::vector<size_t> sizes(n);
  const double log_lo = std::log(static_cast<double>(lo));
  const double span = std::log(static_cast<double>(hi)) - log_lo;
  for (size_t i = 0; i < n; ++i) {
    double u = (static_cast<double>(i) + rng.Uniform()) / static_cast<double>(n);
    sizes[i] = static_cast<size_t>(std::llround(std::exp(log_lo + u * span)));
    sizes[i] = std::clamp(sizes[i], lo, hi);
  }
  rng.Shuffle(sizes);
  return sizes;
}

std::vector<AddInput> MakeAddInputs(uint64_t seed, size_t n) {
  Rng rng = StreamRng(seed, 1);
  std::vector<AddInput> out(n);
  // |a|, |b| < 2^29, so a + b never overflows the IDL long.
  for (AddInput& in : out) {
    in.a = static_cast<int32_t>(rng.Below(1u << 30)) - (1 << 29);
    in.b = static_cast<int32_t>(rng.Below(1u << 30)) - (1 << 29);
  }
  return out;
}

bool TextEscapes(char c) {
  return c == '\n' || c == '\r' || c == ' ' || c == '%' || c == '\0';
}

namespace {

constexpr char kEscaped[] = {'\n', '\r', ' ', '%', '\0'};

// Printable bytes that travel unescaped.
char PlainByte(Rng& rng) {
  char c;
  do {
    c = static_cast<char>(33 + rng.Below(94));  // '!'..'~'
  } while (TextEscapes(c));
  return c;
}

}  // namespace

std::vector<std::string> MakeBulkInputs(uint64_t seed, size_t n) {
  Rng rng = StreamRng(seed, 2);
  std::vector<size_t> sizes =
      StratifiedLogUniform(rng, n, kBulkMinBytes, kBulkMaxBytes);
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t size : sizes) {
    std::string s(size, '\0');
    for (char& c : s) c = PlainByte(rng);
    // Exactly size / kBulkEscapeEvery escaped bytes, one per block of
    // kBulkEscapeEvery at a seeded offset inside the block.
    for (size_t block = 0; block + kBulkEscapeEvery <= size;
         block += kBulkEscapeEvery) {
      s[block + rng.Below(kBulkEscapeEvery)] =
          kEscaped[rng.Below(sizeof(kEscaped))];
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<std::vector<FaninInput>> MakeFaninInputs(uint64_t seed,
                                                     int callers, size_t n) {
  std::vector<std::vector<FaninInput>> out;
  for (int c = 0; c < callers; ++c) {
    Rng rng = StreamRng(seed, 100 + static_cast<uint64_t>(c));
    std::vector<FaninInput> ops(n);
    const size_t quarter = n / 4;
    std::vector<size_t> blob_sizes =
        StratifiedLogUniform(rng, quarter, kBlobMinBytes, kBlobMaxBytes);
    for (size_t i = 0; i < n; ++i) {
      FaninInput& in = ops[i];
      if (i < quarter) {
        in.op = FanOp::kBlob;
        in.data.resize(blob_sizes[i]);
        for (char& ch : in.data) ch = static_cast<char>(rng.Below(256));
        in.expected.assign(in.data.rbegin(), in.data.rend());
      } else if (i < 2 * quarter) {
        in.op = FanOp::kPost;
        in.data.resize(16 + rng.Below(49));
        for (char& ch : in.data) ch = PlainByte(rng);
      } else {
        in.op = FanOp::kAdd;
        in.a = static_cast<int32_t>(rng.Below(1u << 30)) - (1 << 29);
        in.b = static_cast<int32_t>(rng.Below(1u << 30)) - (1 << 29);
      }
    }
    rng.Shuffle(ops);
    out.push_back(std::move(ops));
  }
  return out;
}

// --- IDL corpus ---------------------------------------------------------------

namespace {

// A lowercase word of fixed length, so every seed yields the same
// source size.
std::string Word(Rng& rng) {
  std::string w(6, 'a');
  for (char& c : w) c = static_cast<char>('a' + rng.Below(26));
  return w;
}

std::string Cap(std::string w) {
  w[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(w[0])));
  return w;
}

template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& v) {
  return v[rng.Below(v.size())];
}

// One module of the synthetic corpus. Shape is fixed; names, the types
// chosen for fields and parameters, and the order of operation forms are
// seeded. Structs, unions and sequences of structs are declared but not
// passed to operations: the heidi_cpp stub and skeleton templates reject
// them as parameters and results.
void EmitModule(Rng& rng, int file, int mod, std::string& os,
                std::vector<IdlInterface>& interfaces) {
  const std::string m = "M" + std::to_string(file) + "x" +
                        std::to_string(mod) + Cap(Word(rng));
  const std::string e0 = "Mode" + Cap(Word(rng));
  const std::string e1 = "Kind" + Cap(Word(rng));
  std::vector<std::string> e0_members;
  os += "module " + m + " {\n";
  os += "  enum " + e0 + " { ";
  for (int i = 0; i < 4; ++i) {
    e0_members.push_back("E" + std::to_string(i) + Cap(Word(rng)));
    os += (i ? ", " : "") + e0_members.back();
  }
  os += " };\n  enum " + e1 + " { ";
  for (int i = 0; i < 3; ++i) {
    os += (i ? ", K" : "K") + std::to_string(i) + Cap(Word(rng));
  }
  os += " };\n";

  const std::vector<std::string> prims = {"long",   "short",  "double",
                                          "string", "boolean", "float",
                                          "octet",  "char"};
  const std::vector<std::string> numbers = {"long", "short", "double",
                                            "float", "boolean"};
  std::vector<std::string> structs;
  for (int s = 0; s < 3; ++s) {
    structs.push_back("Rec" + std::to_string(s) + Cap(Word(rng)));
    os += "  struct " + structs.back() + " {\n";
    for (int f = 0; f < 4; ++f) {
      std::string type = f == 3 ? e0 : Pick(rng, prims);
      if (f == 2 && s > 0) type = structs[0];
      os += "    " + type + " f" + std::to_string(f) + Word(rng) + ";\n";
    }
    os += "  };\n";
  }
  const std::string seq_rec = structs[0] + "Seq";
  const std::string seq_long = "Longs" + Cap(Word(rng));
  os += "  typedef sequence<" + structs[0] + "> " + seq_rec + ";\n";
  os += "  typedef sequence<long> " + seq_long + ";\n";
  const std::string octets = "Bytes" + Cap(Word(rng));
  os += "  typedef sequence<octet> " + octets + ";\n";
  const std::string un = "Choice" + Cap(Word(rng));
  os += "  union " + un + " switch (" + e0 + ") {\n";
  os += "    case " + e0_members[0] + ": long n" + Word(rng) + ";\n";
  os += "    case " + e0_members[1] + ": case " + e0_members[2] + ": string s" +
        Word(rng) + ";\n";
  os += "    default: " + structs[1] + " r" + Word(rng) + ";\n";
  os += "  };\n";
  const std::string exc = "Fault" + Cap(Word(rng));
  os += "  exception " + exc + " {\n    long code;\n    string reason;\n  };\n";

  // Six interfaces: two roots, one inheriting from both, one on top of
  // that, another root, and one inheriting from the last two — each with
  // the same mix of operation forms in a seeded order. Object parameters
  // name only interfaces declared so far.
  std::vector<std::string> names;
  for (int i = 0; i < 6; ++i) {
    names.push_back("Ifc" + std::to_string(mod) + std::to_string(i) +
                    Cap(Word(rng)));
  }
  const std::vector<std::vector<int>> parents = {{}, {}, {0, 1}, {2}, {}, {3, 4}};
  int op_serial = 0;
  for (int i = 0; i < 6; ++i) {
    IdlInterface iface;
    iface.name = names[i];
    os += "  interface " + names[i];
    for (size_t p = 0; p < parents[i].size(); ++p) {
      os += (p ? ", " : " : ") + names[parents[i][p]];
    }
    os += " {\n";
    std::vector<int> forms = {0, 1, 2, 3, 4, 5, 6, 7};
    rng.Shuffle(forms);
    for (int form : forms) {
      std::string op = "op" + std::to_string(op_serial++) + Word(rng);
      iface.operations.push_back(op);
      const std::string& prim = Pick(rng, prims);
      switch (form) {
        case 0:  // defaults
          os += "    long " + op + "(in " + prim + " a, in long n = " +
                std::to_string(rng.Below(1000)) + ", in boolean b = TRUE, in " +
                e0 + " e = " + m + "::" + Pick(rng, e0_members) + ");\n";
          break;
        case 1:  // incopy object parameter
          os += "    void " + op + "(incopy " + names[rng.Below(i + 1)] +
                " peer, in " + prim + " tag);\n";
          break;
        case 2:  // oneway
          os += "    oneway void " + op + "(in string line, in " + prim +
                " v);\n";
          break;
        case 3:  // raises, out parameter
          os += "    " + e0 + " " + op + "(in " + prim + " r, out long n) raises (" +
                exc + ");\n";
          break;
        case 4:  // sequence in, inout number
          os += "    double " + op + "(in " + seq_long + " xs, inout " +
                Pick(rng, numbers) + " acc);\n";
          break;
        case 5:  // octet sequence
          os += "    string " + op + "(in " + e1 + " k, in " + octets +
                " data);\n";
          break;
        case 6:  // object parameter by reference
          os += "    " + prim + " " + op + "(in " + names[rng.Below(i + 1)] +
                " other);\n";
          break;
        default:
          os += "    void " + op + "();\n";
          break;
      }
    }
    os += "    readonly attribute " + e0 + " state" + Word(rng) + ";\n";
    os += "    attribute long level" + Word(rng) + ";\n";
    os += "  };\n";
    interfaces.push_back(std::move(iface));
  }
  os += "};\n\n";
}

}  // namespace

std::vector<IdlFile> MakeIdlCorpus(uint64_t seed, int files) {
  Rng rng = StreamRng(seed, 3);
  std::vector<IdlFile> out;
  for (int f = 0; f < files; ++f) {
    IdlFile file;
    file.name = "corpus/synth" + std::to_string(f) + ".idl";
    file.source = "// synthetic corpus file " + std::to_string(f) + "\n";
    for (int mod = 0; mod < 1; ++mod) {
      EmitModule(rng, f, mod, file.source, file.interfaces);
    }
    out.push_back(std::move(file));
  }
  return out;
}

// --- IDL scan -------------------------------------------------------------------

namespace {

std::vector<std::string> Tokens(std::string_view src) {
  std::vector<std::string> toks;
  size_t i = 0;
  while (i < src.size()) {
    char c = src[i];
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      while (i < src.size() && src[i] != '\n') ++i;
    } else if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      size_t end = src.find("*/", i + 2);
      i = end == std::string_view::npos ? src.size() : end + 2;
    } else if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < src.size() &&
             (std::isalnum(static_cast<unsigned char>(src[j])) || src[j] == '_')) {
        ++j;
      }
      toks.emplace_back(src.substr(i, j - i));
      i = j;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else {
      toks.emplace_back(1, c);
      ++i;
    }
  }
  return toks;
}

}  // namespace

std::vector<IdlInterface> ScanIdlInterfaces(std::string_view source) {
  std::vector<std::string> t = Tokens(source);
  std::vector<IdlInterface> out;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i] != "interface") continue;
    IdlInterface iface;
    iface.name = t[i + 1];
    size_t j = i + 2;
    while (j < t.size() && t[j] != "{" && t[j] != ";") ++j;
    if (j >= t.size() || t[j] == ";") continue;  // forward declaration
    int depth = 0;
    for (; j < t.size(); ++j) {
      if (t[j] == "{") ++depth;
      if (t[j] == "}" && --depth == 0) break;
      // An identifier followed by '(' at the interface's own level is an
      // operation name (nested parentheses hold parameter lists only).
      if (depth == 1 && j + 1 < t.size() && t[j + 1] == "(" &&
          t[j] != "raises" && t[j] != "sequence") {
        iface.operations.push_back(t[j]);
      }
    }
    out.push_back(std::move(iface));
    i = j;
  }
  return out;
}

}  // namespace orbbench
