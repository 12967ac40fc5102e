//===- trace.cpp - traced in-process replay of a benchmark stream ---------===//
///
/// Replays one workload's request stream in a single process and records
/// a span around every public call a request makes on its way through the
/// layers, so per-layer self time can be derived from the spans. The calls
/// mirror what the tools do per request:
///
///   detect-cold / detect-warm (grd: runDetectionBatch of one module)
///     readFile, DetectionCache::moduleKey/lookupModule, parseMiniC,
///     generateIR, verifyModule, buildSSAPipeline, verifyModule,
///     analyzeModuleParallel, DetectionCache::storeModule
///   exploit (gropt K.mc -passes=parallelize --run --threads=T)
///     readFile, the frontend calls above, the three parallelize passes,
///     verifyModule, ParallelRunner (ctor, run), ThreadedRunner (ctor, run)
///
/// Exploit requests are followed by a "baseline" span tree outside the
/// request: the untransformed program run sequentially (Interpreter ctor,
/// runMain), the reference for speedup and work inflation.
///
/// Spans stay in memory and are written at exit as Chrome trace-event
/// JSON. Counts are attached as span args where they are measured.
///
///   perfbench_trace --workload W --requests FILE --count N --threads T
///                   --out TRACE.json
///
/// FILE holds one request per line: `p|r <TAB> kernel <TAB> path`. `p`
/// lines prime the cache and are traced under a "prime" root; the first
/// N `r` lines are the measured requests.
///
//===----------------------------------------------------------------------===//

#include "cache/DetectionCache.h"
#include "frontend/CodeGen.h"
#include "frontend/Parser.h"
#include "idioms/IdiomRegistry.h"
#include "idioms/ReductionAnalysis.h"
#include "interp/Interpreter.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "pass/AnalysisManager.h"
#include "pass/ParallelDriver.h"
#include "pass/PassManager.h"
#include "pass/Pipeline.h"
#include "runtime/SimulatedParallel.h"
#include "runtime/ThreadedRunner.h"
#include "support/ThreadPool.h"
#include "transform/ArgMinMaxParallelize.h"
#include "transform/ReductionParallelize.h"
#include "transform/ScanParallelize.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace gr;

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (unsigned char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += static_cast<char>(C);
    } else if (C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += static_cast<char>(C);
    }
  }
  return Out;
}

struct Span {
  const char *Name;
  const char *Cat;
  double StartUs = 0, EndUs = 0;
  int Id = 0, Parent = -1;
  uint64_t Req = 0;
  std::string Args; ///< extra `"key": value` pairs, comma-led
};

/// Single-threaded span recorder: a stack of open spans gives each new
/// span its parent; the RAII guard closes a span and restores the parent.
class Tracer {
public:
  Tracer() : Epoch(std::chrono::steady_clock::now()) {}

  double nowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - Epoch)
        .count();
  }

  class Guard {
  public:
    Guard(Tracer &T, const char *Name, const char *Cat) : T(T) {
      Index = T.Spans.size();
      Span S;
      S.Name = Name;
      S.Cat = Cat;
      S.Id = static_cast<int>(Index);
      S.Parent = T.Open.empty() ? -1 : static_cast<int>(T.Open.back());
      S.Req = T.Req;
      T.Spans.push_back(std::move(S));
      T.Open.push_back(Index);
      T.Spans[Index].StartUs = T.nowUs();
    }
    ~Guard() {
      T.Spans[Index].EndUs = T.nowUs();
      T.Open.pop_back();
    }
    Guard(const Guard &) = delete;
    Guard &operator=(const Guard &) = delete;

    void arg(const char *Key, double V) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.17g", V);
      T.Spans[Index].Args += std::string(", \"") + Key + "\": " + Buf;
    }
    void arg(const char *Key, const std::string &V) {
      T.Spans[Index].Args +=
          std::string(", \"") + Key + "\": \"" + jsonEscape(V) + "\"";
    }

  private:
    Tracer &T;
    std::size_t Index;
  };

  uint64_t Req = 0;

  bool write(const std::string &Path) const {
    std::ofstream OS(Path);
    OS << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"req\": %llu, \"id\": %d, \"parent\": %d",
                    S.Name, S.Cat, S.StartUs, S.EndUs - S.StartUs,
                    static_cast<unsigned long long>(S.Req), S.Id, S.Parent);
      OS << Buf << S.Args << "}}" << (I + 1 < Spans.size() ? ",\n" : "\n");
    }
    OS << "]}\n";
    return static_cast<bool>(OS);
  }

private:
  std::chrono::steady_clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<std::size_t> Open;
};

using G = Tracer::Guard;

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

uint64_t countInstructions(const Module &M) {
  uint64_t N = 0;
  for (const auto &F : M.functions())
    for (BasicBlock *BB : *F)
      N += BB->size();
  return N;
}

/// parseMiniC → generateIR → verify → SSA pipeline → verify: the steps of
/// compileMiniC, one span each. Null (with \p Err) on failure.
std::unique_ptr<Module> compileTraced(Tracer &T, const std::string &Text,
                                      const std::string &Name,
                                      std::string &Err) {
  std::optional<ast::TranslationUnit> TU;
  {
    G S(T, "parseMiniC", "frontend");
    S.arg("lines", static_cast<double>(
                       std::count(Text.begin(), Text.end(), '\n')));
    TU = parseMiniC(Text, &Err);
  }
  if (!TU)
    return nullptr;
  std::unique_ptr<Module> M;
  {
    G S(T, "generateIR", "frontend");
    M = generateIR(*TU, Name, &Err);
  }
  if (!M)
    return nullptr;
  std::vector<std::string> VErrs;
  bool Ok;
  {
    G S(T, "verifyModule", "ir");
    Ok = verifyModule(*M, &VErrs);
  }
  if (!Ok) {
    Err = "pre-SSA verification failed";
    return nullptr;
  }
  {
    G S(T, "buildSSAPipeline", "pass");
    FunctionAnalysisManager FAM;
    ModulePassManager MPM = buildSSAPipeline();
    MPM.run(*M, FAM);
    S.arg("insts", static_cast<double>(countInstructions(*M)));
  }
  {
    G S(T, "verifyModule", "ir");
    Ok = verifyModule(*M, &VErrs);
  }
  if (!Ok) {
    Err = "post-SSA verification failed";
    return nullptr;
  }
  return M;
}

void addCounts(G &Root, const ReductionCounts &C) {
  Root.arg("scalars", C.Scalars);
  Root.arg("histograms", C.Histograms);
  Root.arg("scans", C.Scans);
  Root.arg("argminmax", C.ArgMinMax);
}

/// One grd request: runDetectionBatch's per-module path with the cache on.
void detectRequest(Tracer &T, const char *RootName, const std::string &Path,
                   unsigned Workers) {
  G Root(T, RootName, "request");
  std::string Text;
  {
    G S(T, "readFile", "tools");
    if (!readFile(Path, Text)) {
      Root.arg("error", "cannot read file");
      return;
    }
  }
  const IdiomRegistry &Registry = IdiomRegistry::builtins();
  DetectionCache *Cache = DetectionCache::active();
  ModuleCacheKey MK;
  {
    G S(T, "DetectionCache::moduleKey", "cache");
    MK = Cache->moduleKey(Text, Registry, SolverKind::Default, 'c');
  }
  CachedModuleSummary Hit;
  bool FromCache;
  {
    G S(T, "DetectionCache::lookupModule", "cache");
    FromCache = Cache->lookupModule(MK, Hit);
    S.arg("hit", FromCache ? 1 : 0);
  }
  if (FromCache) {
    addCounts(Root, Hit.Counts);
    return;
  }
  std::string Err;
  std::unique_ptr<Module> M = compileTraced(T, Text, Path, Err);
  if (!M) {
    Root.arg("error", Err);
    return;
  }
  ParallelDetectionResult Detected;
  {
    G S(T, "analyzeModuleParallel", "idioms");
    ParallelDetectionOptions PD;
    PD.Workers = Workers;
    PD.Registry = &Registry;
    Detected = analyzeModuleParallel(*M, PD);
    S.arg("nodes", static_cast<double>(Detected.Stats.totalNodes()));
    S.arg("candidates", static_cast<double>(Detected.Stats.totalCandidates()));
    S.arg("solutions", static_cast<double>(Detected.Stats.totalSolutions()));
  }
  ReductionCounts Counts = countReductions(Detected.Reports);
  {
    G S(T, "DetectionCache::storeModule", "cache");
    Cache->storeModule(MK, {static_cast<unsigned>(Detected.Reports.size()),
                            Counts, Detected.Stats});
  }
  addCounts(Root, Counts);
}

template <typename PassT>
unsigned runTransform(Tracer &T, const char *Name, Module &M,
                      FunctionAnalysisManager &FAM,
                      ReductionParallelizer &RP) {
  G S(T, Name, "transform");
  auto P = std::make_unique<PassT>(RP);
  PassT *Raw = P.get();
  ModulePassManager MPM;
  MPM.addFunctionPass(std::move(P));
  MPM.run(M, FAM);
  S.arg("parallelized", Raw->numParallelized());
  return Raw->numParallelized();
}

/// One gropt request: compile, parallelize, then the simulated and the
/// threaded run, as `-passes=parallelize --run --threads=T` does.
void exploitRequest(Tracer &T, const std::string &Path, unsigned Threads) {
  G Root(T, "request", "request");
  std::string Text;
  {
    G S(T, "readFile", "tools");
    if (!readFile(Path, Text)) {
      Root.arg("error", "cannot read file");
      return;
    }
  }
  std::string Err;
  std::unique_ptr<Module> M = compileTraced(T, Text, Path, Err);
  if (!M) {
    Root.arg("error", Err);
    return;
  }
  FunctionAnalysisManager FAM;
  ReductionParallelizer RP(*M, FAM);
  unsigned Loops =
      runTransform<ParallelizeReductionsPass>(T, "ParallelizeReductionsPass",
                                              *M, FAM, RP) +
      runTransform<ScanParallelizePass>(T, "ScanParallelizePass", *M, FAM,
                                        RP) +
      runTransform<ArgMinMaxParallelizePass>(T, "ArgMinMaxParallelizePass",
                                             *M, FAM, RP);
  Root.arg("loops_parallelized", Loops);
  bool Ok;
  {
    G S(T, "verifyModule", "ir");
    std::vector<std::string> VErrs;
    Ok = verifyModule(*M, &VErrs);
  }
  if (!Ok) {
    Root.arg("error", "module invalid after parallelize");
    return;
  }
  ParallelRunResult R;
  {
    std::unique_ptr<ParallelRunner> Runner;
    {
      G S(T, "ParallelRunner::ParallelRunner", "runtime");
      Runner = std::make_unique<ParallelRunner>(*M, RP, ParallelConfig());
    }
    G S(T, "ParallelRunner::run", "runtime");
    R = Runner->run();
    S.arg("work", static_cast<double>(R.TotalWork));
    S.arg("sections", R.Sections);
  }
  ThreadedRunResult W;
  {
    ThreadedConfig TC;
    TC.NumThreads = Threads;
    std::unique_ptr<ThreadedRunner> Runner;
    {
      G S(T, "ThreadedRunner::ThreadedRunner", "runtime");
      Runner = std::make_unique<ThreadedRunner>(*M, RP, TC);
    }
    G S(T, "ThreadedRunner::run", "runtime");
    W = Runner->run();
    S.arg("work", static_cast<double>(W.TotalWork));
    S.arg("sections", W.Sections);
    S.arg("serial_sections", W.SerialSections);
  }
  if (W.MainResult != R.MainResult || W.Output != R.Output)
    Root.arg("error", "threaded run diverged from the simulated run");
  Root.arg("result", static_cast<double>(W.MainResult));
  Root.arg("output", W.Output);
}

/// The untransformed program run sequentially on the default engine.
void baselineRun(Tracer &T, const std::string &Path) {
  G Root(T, "baseline", "baseline");
  std::string Text, Err;
  if (!readFile(Path, Text)) {
    Root.arg("error", "cannot read file");
    return;
  }
  auto TU = parseMiniC(Text, &Err);
  std::unique_ptr<Module> M = TU ? generateIR(*TU, Path, &Err) : nullptr;
  if (!M) {
    Root.arg("error", Err);
    return;
  }
  FunctionAnalysisManager FAM;
  ModulePassManager MPM = buildSSAPipeline();
  MPM.run(*M, FAM);
  std::unique_ptr<Interpreter> I;
  {
    G S(T, "Interpreter::Interpreter", "interp");
    I = std::make_unique<Interpreter>(*M);
  }
  G S(T, "Interpreter::runMain", "interp");
  int64_t Result = I->runMain();
  S.arg("instructions", static_cast<double>(I->instructionCount()));
  Root.arg("result", static_cast<double>(Result));
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_trace --workload W --requests FILE "
               "--count N --threads T --out TRACE.json\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, Requests, Out;
  unsigned long Count = 0, Threads = 0;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      Workload = Val;
    else if (Key == "--requests")
      Requests = Val;
    else if (Key == "--out")
      Out = Val;
    else if (Key == "--count")
      Count = std::stoul(Val);
    else if (Key == "--threads")
      Threads = std::stoul(Val);
    else
      return usage();
  }
  const bool Exploit = Workload == "exploit";
  if (!(Exploit || Workload == "detect-cold" || Workload == "detect-warm") ||
      Requests.empty() || Out.empty() || Threads == 0)
    return usage();

  std::ifstream In(Requests);
  if (!In) {
    std::fprintf(stderr, "perfbench_trace: cannot read %s\n",
                 Requests.c_str());
    return 1;
  }

  // The same process-lifetime set-up grd does before its first request.
  if (!Exploit)
    DetectionCache::configure({});
  (void)ThreadPool::global();
  (void)IdiomRegistry::builtins().compiledSpecs();

  Tracer T;
  std::string Line;
  unsigned long Served = 0;
  bool Measuring = false;
  while (Served < Count && std::getline(In, Line)) {
    std::size_t Tab1 = Line.find('\t'), Tab2 = Line.rfind('\t');
    if (Tab1 == std::string::npos || Tab2 == Tab1)
      continue;
    const bool Prime = Line[0] == 'p';
    std::string Path = Line.substr(Tab2 + 1);
    T.Req = Prime ? 0 : Served + 1;
    // Cache counters cover the measured requests only, not priming.
    if (!Prime && !Measuring && DetectionCache::active())
      DetectionCache::active()->resetCounters();
    Measuring = !Prime;
    if (Exploit) {
      exploitRequest(T, Path, static_cast<unsigned>(Threads));
      baselineRun(T, Path);
    } else {
      detectRequest(T, Prime ? "prime" : "request", Path,
                    static_cast<unsigned>(Threads));
    }
    if (!Prime)
      ++Served;
  }
  if (DetectionCache *C = DetectionCache::active()) {
    CacheCounters CC = C->counters();
    G S(T, "DetectionCache::counters", "cache");
    S.arg("function_hits", static_cast<double>(CC.FunctionHits));
    S.arg("function_misses", static_cast<double>(CC.FunctionMisses));
    S.arg("module_hits", static_cast<double>(CC.ModuleHits));
    S.arg("module_misses", static_cast<double>(CC.ModuleMisses));
  }
  if (!T.write(Out)) {
    std::fprintf(stderr, "perfbench_trace: cannot write %s\n", Out.c_str());
    return 1;
  }
  return 0;
}
