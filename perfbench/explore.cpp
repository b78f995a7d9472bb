//===- explore.cpp - One measured exploration for the benchmark ----------===//
//
// Part of SymMerge. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Explores one built-in workload program to exhaustion and prints one
/// JSON line on stdout: set-up times, run() wall and CPU time, the run's
/// statistics counters, statement coverage, and the replay check of every
/// generated test. run.py starts one process per exploration, so a crash
/// costs one operation, not the benchmark.
///
/// The program times its own calls into each layer's public entry point:
/// compileWorkload (lang/ir), ProgramInfo + QCEAnalysis (analysis), the
/// SymbolicRunner constructor and run() (core + solver), and
/// replayConcrete (core/Replay). With --trace those intervals are also
/// kept as spans in memory and written with the result at exit.
///
///   perfbench-explore --program=pr --n=3 --len=6 --mode=ssm-qce
///                     --workers=1 --seed=7 --setup-reps=9
///                     [--trace] [--off=LAYER] [--setup-only]
///
/// --setup-only prints the set-up times and skips the exploration: run.py
/// spreads such short processes over a run so the set-up median samples
/// more of the machine's states than the exploration processes alone.
///
//===----------------------------------------------------------------------===//

#include "analysis/ProgramInfo.h"
#include "analysis/QCE.h"
#include "core/Driver.h"
#include "core/Replay.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

using namespace symmerge;

namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string Program;
  unsigned N = 0;
  unsigned L = 0;
  std::string Mode;
  unsigned Workers = 1;
  uint64_t Seed = 0;
  unsigned SetupReps = 1;
  double MaxSeconds = 60;
  bool Trace = false;
  bool SetupOnly = false;
  std::string Off;
};

/// Spans of this exploration, kept in memory until the result is printed.
/// Disabled tracers take the same timestamps and record nothing.
class Tracer {
public:
  struct Span {
    const char *Name;
    int Parent;
    double Start;
    double End;
  };

  explicit Tracer(bool Enabled) : Enabled(Enabled), Origin(Clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - Origin).count();
  }

  /// Records [Start, now()) under \p Parent; returns the span index (-1
  /// when disabled).
  int record(const char *Name, int Parent, double Start) {
    if (!Enabled)
      return -1;
    Spans.push_back({Name, Parent, Start, now()});
    return static_cast<int>(Spans.size()) - 1;
  }

  /// Opens a span whose end is set later by close().
  int open(const char *Name, int Parent) {
    if (!Enabled)
      return -1;
    Spans.push_back({Name, Parent, now(), 0});
    return static_cast<int>(Spans.size()) - 1;
  }

  void close(int Index) {
    if (Index >= 0)
      Spans[Index].End = now();
  }

  const std::vector<Span> &spans() const { return Spans; }

private:
  bool Enabled;
  Clock::time_point Origin;
  std::vector<Span> Spans;
};

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec * 1e-6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return Arg.compare(0, N, Prefix) == 0 ? Arg.c_str() + N : nullptr;
    };
    if (const char *V = Value("--program="))
      A.Program = V;
    else if (const char *V = Value("--n="))
      A.N = std::strtoul(V, nullptr, 10);
    else if (const char *V = Value("--len="))
      A.L = std::strtoul(V, nullptr, 10);
    else if (const char *V = Value("--mode="))
      A.Mode = V;
    else if (const char *V = Value("--workers="))
      A.Workers = std::strtoul(V, nullptr, 10);
    else if (const char *V = Value("--seed="))
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (const char *V = Value("--setup-reps="))
      A.SetupReps = std::strtoul(V, nullptr, 10);
    else if (const char *V = Value("--max-seconds="))
      A.MaxSeconds = std::atof(V);
    else if (const char *V = Value("--off="))
      A.Off = V;
    else if (Arg == "--trace")
      A.Trace = true;
    else if (Arg == "--setup-only")
      A.SetupOnly = true;
    else
      return false;
  }
  return !A.Program.empty() && A.N > 0 && A.L > 0 && A.Workers > 0 &&
         A.SetupReps > 0;
}

/// The benchmark's exploration setups, as symmerge-run's --mode builds
/// them.
bool applyMode(const std::string &Mode, SymbolicRunner::Config &C) {
  if (Mode == "plain")
    return true;
  C.Merge = SymbolicRunner::MergeMode::QCE;
  if (Mode == "ssm-qce") {
    C.Driving = SymbolicRunner::Strategy::Topological;
    return true;
  }
  if (Mode == "dsm-qce") {
    C.UseDSM = true;
    C.Driving = SymbolicRunner::Strategy::Coverage;
    return true;
  }
  return false;
}

/// Turns one solver/engine layer off for the ablation mode.
bool applyOff(const std::string &Layer, SymbolicRunner::Config &C) {
  if (Layer.empty())
    return true;
  if (Layer == "model-cache")
    C.SolverModelCache = false;
  else if (Layer == "core-cache")
    C.SolverCoreCache = false;
  else if (Layer == "verdict-cache")
    C.SolverVerdictCache = false;
  else if (Layer == "group-sessions")
    C.SolverGroupSessions = false;
  else if (Layer == "incremental")
    C.SolverIncremental = false;
  else if (Layer == "signature-filters")
    C.SolverSignatureFilters = false;
  else if (Layer == "async-testgen")
    C.AsyncTestGen = false;
  else
    return false;
  return true;
}

bool sameOutcome(TestKind Recorded, ReplayResult::Kind Replayed) {
  switch (Recorded) {
  case TestKind::Halt:
    return Replayed == ReplayResult::Kind::Halt;
  case TestKind::AssertFailure:
    return Replayed == ReplayResult::Kind::AssertFailure;
  case TestKind::OutOfBounds:
    return Replayed == ReplayResult::Kind::OutOfBounds;
  }
  return false;
}

void printList(const char *Key, const std::vector<double> &V) {
  std::printf("\"%s\":[", Key);
  for (size_t I = 0; I < V.size(); ++I)
    std::printf("%s%.9g", I ? "," : "", V[I]);
  std::printf("]");
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: %s --program=NAME --n=N --len=L --mode=plain|ssm-qce|"
                 "dsm-qce [--workers=W] [--seed=S] [--setup-reps=R] "
                 "[--max-seconds=F] [--trace] [--off=LAYER] "
                 "[--setup-only]\n",
                 Argv[0]);
    return 2;
  }
  const Workload *W = findWorkload(A.Program);
  if (!W) {
    std::fprintf(stderr, "error: unknown workload %s\n", A.Program.c_str());
    return 2;
  }
  SymbolicRunner::Config C;
  if (!applyMode(A.Mode, C) || !applyOff(A.Off, C)) {
    std::fprintf(stderr, "error: bad --mode or --off\n");
    return 2;
  }
  C.Seed = A.Seed;
  C.Engine.Workers = A.Workers;
  C.Engine.MaxSeconds = A.MaxSeconds;
  C.Engine.CollectTests = true;

  Tracer T(A.Trace);
  int Root = T.open("exploration", -1);

  // Set-up is repeated so its median is steady; the last repetition's
  // module and runner are the ones explored.
  std::vector<double> CompileS, QceS, InitS;
  CompileResult CR;
  std::unique_ptr<SymbolicRunner> Runner;
  for (unsigned Rep = 0; Rep < A.SetupReps; ++Rep) {
    Runner.reset();
    double T0 = T.now();
    CR = compileWorkload(*W, A.N, A.L);
    double T1 = T.now();
    T.record("lang.compile", Root, T0);
    if (!CR.ok()) {
      std::fprintf(stderr, "error: %s failed to compile\n",
                   A.Program.c_str());
      return 1;
    }
    {
      ProgramInfo PI(*CR.M);
      QCEAnalysis QCE(PI, C.QCE);
    }
    double T2 = T.now();
    T.record("analysis.qce", Root, T1);
    Runner = std::make_unique<SymbolicRunner>(*CR.M, C);
    double T3 = T.now();
    T.record("core.runner_init", Root, T2);
    CompileS.push_back(T1 - T0);
    QceS.push_back(T2 - T1);
    InitS.push_back(T3 - T2);
  }

  std::printf("{");
  printList("compile_s", CompileS);
  std::printf(",");
  printList("qce_s", QceS);
  std::printf(",");
  printList("runner_init_s", InitS);
  if (A.SetupOnly) {
    std::printf("}\n");
    return 0;
  }

  double CpuBefore = cpuSeconds();
  double RunStart = T.now();
  RunResult R = Runner->run();
  double RunS = T.now() - RunStart;
  double CpuS = cpuSeconds() - CpuBefore;
  int RunSpan = T.record("core.run", Root, RunStart);

  double ReplayStart = T.now();
  uint64_t Mismatches = 0;
  for (const TestCase &TC : R.Tests) {
    ReplayResult RR = replayTest(*CR.M, Runner->context(), TC);
    Mismatches += !sameOutcome(TC.Kind, RR.K);
  }
  double ReplayS = T.now() - ReplayStart;
  T.record("replay", Root, ReplayStart);
  T.close(Root);

  const EngineStats &S = R.Stats;
  const CoverageTracker &Cov = Runner->coverage();
  uint64_t DepthHw = 0;
  for (uint64_t D : S.FrontierDepthHighWater)
    DepthHw = std::max(DepthHw, D);

  std::printf(",\"exhausted\":%s,\"run_s\":%.9g,\"cpu_s\":%.9g,"
              "\"replay_s\":%.9g,\"covered_blocks\":%zu,"
              "\"total_blocks\":%zu,\"statement_coverage\":%.9g,",
              S.Exhausted ? "true" : "false", RunS, CpuS, ReplayS,
              Cov.coveredBlocks(), Cov.totalBlocks(), Cov.statementCoverage());

  // Counters as the run's statistics block reports them. The derived
  // ratios are computed by run.py, which prints each with its base.
  struct Counter {
    const char *Name;
    double Value;
  } Counters[] = {
      {"tests", static_cast<double>(R.Tests.size())},
      {"replay_mismatches", static_cast<double>(Mismatches)},
      {"instructions", static_cast<double>(S.Steps)},
      {"forks", static_cast<double>(S.Forks)},
      {"completed_states", static_cast<double>(S.CompletedStates)},
      {"completed_multiplicity", S.CompletedMultiplicity},
      {"max_worklist", static_cast<double>(S.MaxWorklist)},
      {"merges", static_cast<double>(S.Merges)},
      {"ites", static_cast<double>(S.MergedItes)},
      {"ff_selections", static_cast<double>(S.FastForwardSelections)},
      {"ff_merges", static_cast<double>(S.FastForwardMerges)},
      {"solve_s", S.SolverSeconds},
      {"encode_s", S.SolverEncodeSeconds},
      {"queries", static_cast<double>(S.SolverQueries)},
      {"core_queries", static_cast<double>(S.SolverCoreQueries)},
      {"sessions_built", static_cast<double>(S.SessionsBuilt)},
      {"group_sliced_solves", static_cast<double>(S.SolverGroupSlicedSolves)},
      {"verdict_hits", static_cast<double>(S.SolverVerdictCacheHits)},
      {"verdict_misses", static_cast<double>(S.SolverVerdictCacheMisses)},
      {"model_hits", static_cast<double>(S.SolverModelCacheHits)},
      {"model_misses", static_cast<double>(S.SolverModelCacheMisses)},
      {"core_hits", static_cast<double>(S.SolverCoreCacheHits)},
      {"core_misses", static_cast<double>(S.SolverCoreCacheMisses)},
      {"core_sig_skips", static_cast<double>(S.SolverCoreCacheSigSkips)},
      {"core_shard_skips", static_cast<double>(S.SolverCoreCacheShardSkips)},
      {"model_sig_skips", static_cast<double>(S.SolverModelCacheSigSkips)},
      {"testgen_queued", static_cast<double>(S.TestGenQueued)},
      {"testgen_skipped", static_cast<double>(S.TestGenSkipped)},
      {"frontier_steals", static_cast<double>(S.FrontierSteals)},
      {"frontier_depth_hw_max", static_cast<double>(DepthHw)},
  };
  std::printf("\"stats\":{");
  for (size_t I = 0; I < std::size(Counters); ++I)
    std::printf("%s\"%s\":%.17g", I ? "," : "", Counters[I].Name,
                Counters[I].Value);
  std::printf("}");

  if (A.Trace) {
    // The stats block is attached to the core.run span by index.
    std::printf(",\"stats_span\":%d,\"spans\":[", RunSpan);
    const auto &Spans = T.spans();
    for (size_t I = 0; I < Spans.size(); ++I)
      std::printf("%s{\"name\":\"%s\",\"parent\":%d,\"start\":%.9g,"
                  "\"end\":%.9g}",
                  I ? "," : "", Spans[I].Name, Spans[I].Parent,
                  Spans[I].Start, Spans[I].End);
    std::printf("]");
  }
  std::printf("}\n");
  return 0;
}
