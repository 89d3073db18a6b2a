// The idl-compile workload: a seeded synthetic corpus plus the
// repository's own IDL files, each compiled in-process through the four
// builtin mappings and heidi_cpp with view interfaces — the only
// workload on which idl, est, tmpl and codegen do the work.
//
// One operation is one file through all five mapping runs. Every output
// is checked: against the names the input declares, against a second
// compile, against a compile from an EST that went through
// est::Serialize and back, and (for demo.idl) against the codegen
// goldens that tests/codegen/check_goldens.sh compares idlc output with.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "codegen/codegen.h"
#include "est/est.h"
#include "idl/idl.h"
#include "inputs.h"
#include "stats.h"
#include "tmpl/tmpl.h"

namespace orbbench {
namespace {

namespace fs = std::filesystem;
using heidi::codegen::Mapping;

// Share of each file's measured compiles, the quiet ones, the end-to-end
// figures rest on (see QuietRepeats).
constexpr double kQuietShare = 0.05;

// Output path within its mapping run -> content, keyed "<run>/<path>".
using Output = std::map<std::string, std::string>;

struct MappingRun {
  const char* label;
  const char* mapping;
  bool view;
  // How an interface and an operation appear in this mapping's output.
  std::string (*interface_form)(const std::string&);
  std::string (*operation_form)(const std::string&);
};

std::string CppClassForm(const std::string& n) { return "class Hd" + n + " "; }
std::string CorbaClassForm(const std::string& n) { return "class " + n + " "; }
std::string JavaForm(const std::string& n) { return "interface " + n + " "; }
std::string TclForm(const std::string& n) { return "class " + n + "Stub "; }
std::string CallForm(const std::string& n) { return " " + n + "("; }
std::string TclMethodForm(const std::string& n) { return "method " + n + " {"; }

const std::vector<MappingRun>& Runs() {
  static const std::vector<MappingRun> runs = {
      {"heidi_cpp", "heidi_cpp", false, CppClassForm, CallForm},
      {"corba_cpp", "corba_cpp", false, CorbaClassForm, CallForm},
      {"java", "java", false, JavaForm, CallForm},
      {"tcl", "tcl", false, TclForm, TclMethodForm},
      {"heidi_cpp_view", "heidi_cpp", true, CppClassForm, CallForm},
  };
  return runs;
}

const Mapping& FindMapping(const char* name) {
  const Mapping* m = heidi::codegen::FindBuiltinMapping(name);
  if (m == nullptr) throw std::runtime_error(std::string("no mapping ") + name);
  return *m;
}

std::map<std::string, std::string> Globals(const MappingRun& run,
                                           const IdlFile& file) {
  std::map<std::string, std::string> globals;
  if (run.view) globals["viewInterfaces"] = file.view_interfaces;
  return globals;
}

Output GenerateAll(const heidi::est::Node& root, const IdlFile& file,
                   const heidi::tmpl::MapRegistry& maps) {
  Output out;
  for (const MappingRun& run : Runs()) {
    auto generated = heidi::codegen::Generate(root, FindMapping(run.mapping),
                                              maps, Globals(run, file));
    for (auto& [path, content] : generated.files) {
      out[std::string(run.label) + "/" + path] = std::move(content);
    }
  }
  return out;
}

Output CompileFile(const IdlFile& file, const heidi::tmpl::MapRegistry& maps) {
  heidi::idl::Specification spec =
      heidi::idl::ParseAndResolve(file.source, file.name);
  std::unique_ptr<heidi::est::Node> root = heidi::est::BuildEst(spec);
  return GenerateAll(*root, file, maps);
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// demo.idl and examples/idl/*.idl, read from the repository.
std::vector<IdlFile> ReadRepoFiles(const fs::path& root) {
  std::vector<fs::path> paths = {root / "src/demo/demo.idl"};
  std::vector<fs::path> examples;
  for (const auto& entry : fs::directory_iterator(root / "examples/idl")) {
    if (entry.path().extension() == ".idl") examples.push_back(entry.path());
  }
  std::sort(examples.begin(), examples.end());
  paths.insert(paths.end(), examples.begin(), examples.end());
  std::vector<IdlFile> files;
  for (const fs::path& p : paths) {
    IdlFile f;
    f.name = fs::relative(p, root).generic_string();
    f.source = ReadFile(p);
    f.interfaces = ScanIdlInterfaces(f.source);
    files.push_back(std::move(f));
  }
  files[0].view_interfaces = "Echo";  // as the view goldens were made
  return files;
}

// Failures are printed; true when every check holds.
bool CheckNames(const IdlFile& file, const Output& out) {
  bool ok = true;
  for (const MappingRun& run : Runs()) {
    std::string all;
    const std::string prefix = std::string(run.label) + "/";
    for (const auto& [path, content] : out) {
      if (path.rfind(prefix, 0) == 0) all += content;
    }
    for (const IdlInterface& iface : file.interfaces) {
      std::vector<std::string> wanted = {run.interface_form(iface.name)};
      for (const std::string& op : iface.operations) {
        wanted.push_back(run.operation_form(op));
      }
      for (const std::string& w : wanted) {
        if (all.find(w) == std::string::npos) {
          std::fprintf(stderr, "orbbench: %s: %s output lacks \"%s\"\n",
                       file.name.c_str(), run.label, w.c_str());
          ok = false;
        }
      }
    }
  }
  return ok;
}

bool CheckGoldens(const fs::path& root, const Output& out) {
  bool ok = true;
  const std::pair<const char*, const char*> sets[] = {
      {"owned", "heidi_cpp/"}, {"view", "heidi_cpp_view/"}};
  for (const auto& [dir, prefix] : sets) {
    std::map<std::string, std::string> golden, made;
    for (const auto& e :
         fs::directory_iterator(root / "tests/codegen/goldens/demo" / dir)) {
      golden[e.path().filename().string()] = ReadFile(e.path());
    }
    for (const auto& [path, content] : out) {
      if (path.rfind(prefix, 0) == 0) made[path.substr(std::strlen(prefix))] = content;
    }
    if (golden.empty() || golden != made) {
      std::fprintf(stderr, "orbbench: demo.idl output differs from goldens/%s\n",
                   dir);
      ok = false;
    }
  }
  return ok;
}

struct Corpus {
  std::vector<IdlFile> files;
  size_t source_bytes = 0;
};

Corpus LoadCorpus(const RunOptions& options) {
  Corpus c;
  c.files = ReadRepoFiles(options.root);
  std::vector<IdlFile> synth = MakeIdlCorpus(options.seed, kIdlCorpusFiles);
  c.files.insert(c.files.end(), std::make_move_iterator(synth.begin()),
                 std::make_move_iterator(synth.end()));
  for (const IdlFile& f : c.files) c.source_bytes += f.source.size();
  return c;
}

// The traced pass: the steps of codegen::Generate timed layer by layer
// (parse+resolve, EST build, template compile, template execute per
// mapping run). The output must equal the untraced reference.
struct LayerTimes {
  double parse_ns = 0, est_ns = 0, compile_ns = 0;
  std::map<std::string, double> exec_ns;  // per mapping run
  size_t output_bytes = 0;
};

Output TracedCompile(const IdlFile& file, const heidi::tmpl::MapRegistry& maps,
                     LayerTimes& t) {
  int64_t t0 = MonoNs();
  heidi::idl::Specification spec =
      heidi::idl::ParseAndResolve(file.source, file.name);
  int64_t t1 = MonoNs();
  std::unique_ptr<heidi::est::Node> root = heidi::est::BuildEst(spec);
  int64_t t2 = MonoNs();
  t.parse_ns += static_cast<double>(t1 - t0);
  t.est_ns += static_cast<double>(t2 - t1);
  Output out;
  for (const MappingRun& run : Runs()) {
    const Mapping& mapping = FindMapping(run.mapping);
    heidi::tmpl::ExecOptions exec;
    exec.globals["sourceBase"] =
        heidi::codegen::SourceBase(root->GetProp("sourceName"));
    exec.globals["sourceName"] = root->GetProp("sourceName");
    exec.globals["mapping"] = mapping.name;
    for (const auto& [k, v] : Globals(run, file)) exec.globals[k] = v;
    Output files;
    for (const auto& tmpl : mapping.templates) {
      int64_t c0 = MonoNs();
      heidi::tmpl::TemplateProgram program = heidi::tmpl::CompileTemplate(
          tmpl.text, mapping.name + "/" + tmpl.name);
      int64_t c1 = MonoNs();
      heidi::tmpl::StringSink sink;
      heidi::tmpl::Execute(program, *root, maps, sink, exec);
      int64_t c2 = MonoNs();
      t.compile_ns += static_cast<double>(c1 - c0);
      t.exec_ns[run.label] += static_cast<double>(c2 - c1);
      for (const std::string& name : sink.FileNames()) files[name] += sink.File(name);
    }
    auto anon = files.find("");
    if (anon != files.end() && anon->second.empty()) files.erase(anon);
    for (auto& [path, content] : files) {
      t.output_bytes += content.size();
      out[std::string(run.label) + "/" + path] = std::move(content);
    }
  }
  return out;
}

}  // namespace

RunResult RunCompile(const RunOptions& options) {
  RunResult result;
  const fs::path root = options.root;

  // Set-up: inputs read, map registry built, demo.idl compiled cold. The
  // run compiles with the first set-up's corpus and registry; later
  // set-ups build their own and drop them once timed.
  std::vector<double> setup_s;
  auto set_up = [&](Corpus& corpus,
                    std::unique_ptr<heidi::tmpl::MapRegistry>& maps) {
    int64_t t0 = MonoNs();
    corpus = LoadCorpus(options);
    maps = std::make_unique<heidi::tmpl::MapRegistry>(
        heidi::tmpl::MapRegistry::Builtins());
    Output first = CompileFile(corpus.files[0], *maps);
    setup_s.push_back(static_cast<double>(MonoNs() - t0) / 1e9);
    if (first.empty()) result.correct = false;
  };
  Corpus corpus;
  std::unique_ptr<heidi::tmpl::MapRegistry> maps;
  set_up(corpus, maps);
  auto set_up_again = [&] {
    Corpus c;
    std::unique_ptr<heidi::tmpl::MapRegistry> m;
    set_up(c, m);
  };

  // References, checked outside any timing.
  std::vector<Output> reference;
  for (const IdlFile& f : corpus.files) {
    heidi::idl::Specification spec = heidi::idl::ParseAndResolve(f.source, f.name);
    std::unique_ptr<heidi::est::Node> est = heidi::est::BuildEst(spec);
    Output out = GenerateAll(*est, f, *maps);
    std::unique_ptr<heidi::est::Node> rebuilt =
        heidi::est::Deserialize(heidi::est::Serialize(*est));
    if (GenerateAll(*rebuilt, f, *maps) != out) {
      std::fprintf(stderr, "orbbench: %s: EST round trip changes the output\n",
                   f.name.c_str());
      result.correct = false;
    }
    if (!CheckNames(f, out)) result.correct = false;
    reference.push_back(std::move(out));
  }
  if (!CheckGoldens(root, reference[0])) result.correct = false;

  // Every measured compile of each file; the end-to-end figures rest on
  // each file's quiet compiles, as rpc-bulk's rest on each call's.
  std::vector<std::vector<Repeat>> repeats(corpus.files.size());
  uint64_t compiled = 0;
  std::vector<double> parse_ms, est_ms, compile_ms, output_kib;
  std::map<std::string, std::vector<double>> exec_ms;

  auto round = [&](bool measured) {
    PinToNextCpu();  // each round on the next CPU
    LayerTimes pass;
    for (size_t i = 0; i < corpus.files.size(); ++i) {
      const IdlFile& f = corpus.files[i];
      ++result.attempted;
      Output out;
      const double cpu0 = SampleProc().cpu_s;
      int64_t t0 = MonoNs();
      int64_t t1 = t0;
      try {
        out = options.trace ? TracedCompile(f, *maps, pass) : CompileFile(f, *maps);
        t1 = MonoNs();
      } catch (const std::exception& e) {
        t1 = MonoNs();
        std::fprintf(stderr, "orbbench: %s: %s\n", f.name.c_str(), e.what());
      }
      if (out != reference[i]) ++result.failed;
      if (measured) {
        repeats[i].push_back({static_cast<float>(t1 - t0) / 1000.0f,
                              static_cast<float>((SampleProc().cpu_s - cpu0) * 1e6)});
      }
    }
    if (!measured) return;
    compiled += corpus.files.size();
    if (!options.trace) return;
    parse_ms.push_back(pass.parse_ns / 1e6);
    est_ms.push_back(pass.est_ns / 1e6);
    compile_ms.push_back(pass.compile_ns / 1e6);
    output_kib.push_back(static_cast<double>(pass.output_bytes) / 1024.0);
    for (const auto& [label, ns] : pass.exec_ns) exec_ms[label].push_back(ns / 1e6);
  };

  round(/*measured=*/false);
  if (options.trace) EnableHeapCounting(true);
  const uint64_t heap0 = HeapAllocs();
  const ProcSample proc0 = SampleProc();
  const int64_t t_start = MonoNs();
  const int64_t deadline = t_start + static_cast<int64_t>(options.seconds * 1e9);
  // An untraced run spreads its other set-ups over the run, on the CPUs
  // the rounds move over: one after the first round to end past each of
  // kSetupReps - 1 marks, evenly spaced.
  auto set_up_due = [&] {
    const int64_t mark = static_cast<int64_t>(setup_s.size()) * (deadline - t_start) /
                         static_cast<int64_t>(kSetupReps);
    return !options.trace && setup_s.size() < static_cast<size_t>(kSetupReps) &&
           MonoNs() - t_start >= mark;
  };
  do {
    round(/*measured=*/true);
    if (set_up_due()) set_up_again();
  } while (MonoNs() < deadline);
  while (set_up_due()) set_up_again();
  const ProcSample proc1 = SampleProc();
  const uint64_t heap1 = HeapAllocs();
  EnableHeapCounting(false);

  const double ops = static_cast<double>(compiled);
  std::vector<double> payload_bytes;
  for (const IdlFile& file : corpus.files) {
    payload_bytes.push_back(static_cast<double>(file.source.size()));
  }
  const Figures f = QuietRepeats(repeats, payload_bytes, kQuietShare);
  std::fprintf(stderr,
               "orbbench: idl-compile seed %llu: %zu files (%zu bytes) per "
               "round, %llu compiles, at least %zu quiet ones of each file\n",
               static_cast<unsigned long long>(options.seed),
               corpus.files.size(), corpus.source_bytes,
               static_cast<unsigned long long>(compiled), f.pooled);
  if (!options.trace) {
    result.Set("setup_s", Median(setup_s));
    result.Set("call_p50_us", f.p50_us);
    result.Set("call_p99_us", f.p99_us);
    result.Set("calls_per_s", f.calls_per_s);
    result.Set("payload_mib_per_s", f.payload_mib_per_s);
    result.Set("cpu_us_per_call", f.cpu_us_per_call);
    result.Set("peak_rss_mib", proc1.peak_rss_mib);
    return result;
  }
  result.Set("traced.call_p50_us", f.p50_us);
  result.Set("idl.parse_resolve_ms", Median(parse_ms));
  result.Set("est.build_ms", Median(est_ms));
  result.Set("tmpl.compile_ms", Median(compile_ms));
  for (const auto& [label, v] : exec_ms) result.Set("tmpl.exec_ms." + label, Median(v));
  result.Set("codegen.output_kib", Median(output_kib));
  result.Set("support.heap_allocs_per_call", static_cast<double>(heap1 - heap0) / ops);
  result.Set("proc.ctx_switches_per_call",
             static_cast<double>(proc1.ctx_switches - proc0.ctx_switches) / ops);
  result.Set("proc.threads", ThreadCount());
  return result;
}

}  // namespace orbbench
