//===- perfbench/main.cpp - Seeded benchmark entry point -----------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Usage: perfbench --workload tree_replay|layout_native
//                  --seed N --seconds S --trace 0|1
//                  [--inject-failure] [--spans-out FILE]
//
// Runs one warm-up iteration (setup + timed phase) that is not recorded,
// then repeats setup + timed phase until S seconds have passed (at least
// MinIterations times) and reports medians. --trace 0 prints the
// end-to-end metrics; --trace 1 alternates untraced and traced
// iterations, prints the per-layer metrics the workload computed from
// the traced ones, and reports the tracing overhead as traced minus
// untraced run_s. The last stdout line is one JSON object: correct,
// attempted, failed, and metrics as name -> value. Units, and the
// per-layer metrics of layers a workload does not run, come from
// BENCHMARK.json through run.py.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/Timer.h"

#include <algorithm>
#include <cstdlib>
#include <malloc.h>

using namespace perfbench;

namespace {

constexpr unsigned MinIterations = 3;
// High enough that a run stops on --seconds, not on the count: a
// layout_native iteration (set-up and timed phase) takes about 1.2 s.
constexpr unsigned MaxIterations = 200;

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "tree_replay|layout_native --seed N --seconds S "
               "--trace 0|1 [--inject-failure] [--spans-out FILE]\n",
               Why);
  std::exit(2);
}

Options parse(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + Arg).c_str());
      return Argv[++I];
    };
    char *End = nullptr;
    if (Arg == "--workload") {
      O.Workload = Value();
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      std::string V = Value();
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        usage("--seed takes a whole number");
    } else if (Arg == "--seconds") {
      std::string V = Value();
      O.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(O.Seconds > 0) || O.Seconds > 120)
        usage("--seconds takes a number in (0, 120]");
    } else if (Arg == "--trace") {
      std::string V = Value();
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      O.Trace = V == "1";
    } else if (Arg == "--inject-failure") {
      O.InjectFailure = true;
    } else if (Arg == "--spans-out") {
      O.SpansOut = Value();
    } else {
      usage(("unknown argument " + Arg).c_str());
    }
  }
  if (!HaveWorkload)
    usage("--workload is required");
  return O;
}

void printMetric(bool &First, const std::string &Name, double Value) {
  std::printf("%s\"%s\": %.17g", First ? "" : ", ", Name.c_str(), Value);
  First = false;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parse(Argc, Argv);
  // A fixed mmap threshold hands every large block (tree arenas, trace
  // buffers, heap slabs) back to the OS when freed. Without it glibc
  // raises the threshold as blocks are freed, so each iteration keeps
  // more of the last one's memory and peak_rss_mb would grow with the
  // number of iterations that fit in --seconds.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  std::unique_ptr<Workload> W;
  if (O.Workload == "tree_replay")
    W = makeTreeReplay(O);
  else if (O.Workload == "layout_native")
    W = makeLayoutNative(O);
  else
    usage(("unknown workload " + O.Workload).c_str());

  printStamp(O, W->threads());
  Tracer T;
  Checks C;
  std::vector<double> Setup, RunUntraced, RunTraced;
  std::vector<LayerMetrics> Layers;
  ccl::Timer Total;
  // Iteration 0 warms caches, the allocator and the page tables and is
  // not recorded: the first timed phase of a process runs slower, and
  // keeping it would bias whichever set it fell in.
  unsigned Min = 1 + (O.Trace ? 2 * MinIterations : MinIterations);
  for (unsigned I = 0; I < MaxIterations; ++I) {
    if (I >= Min && Total.elapsedSec() >= O.Seconds)
      break;
    bool Warmup = I == 0;
    bool Traced = O.Trace && !Warmup && I % 2 == 0;
    T.setEnabled(Traced);
    T.setIteration(I);
    LayerMetrics L;
    ccl::Timer SetupTimer;
    {
      Scope S(T, "setup");
      W->setup(T, L);
    }
    double SetupS = SetupTimer.elapsedSec();
    ccl::Timer RunTimer;
    {
      Scope S(T, "run");
      W->run(T, C, L);
    }
    double RunS = RunTimer.elapsedSec();
    if (Warmup)
      continue;
    Setup.push_back(SetupS);
    (Traced ? RunTraced : RunUntraced).push_back(RunS);
    if (Traced) {
      if (L.count("sim.refs"))
        L["sim_mrefs_per_s"] = L["sim.refs"] / RunS / 1e6;
      Layers.push_back(std::move(L));
    }
  }
  T.setEnabled(O.Trace);
  LayerMetrics Extra;
  W->finish(T, C, Extra, O.Trace);
  if (!O.SpansOut.empty() && O.Trace &&
      !T.writeJsonl(O.SpansOut, O.Workload, O.Seed))
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 O.SpansOut.c_str());

  double ErrorRate =
      double(C.failed()) / double(std::max<uint64_t>(1, C.attempted()));
  std::printf("iterations: 1 warm-up (not recorded), %zu untraced, %zu "
              "traced\nsetup_s per iteration:",
              RunUntraced.size(), RunTraced.size());
  for (double S : Setup)
    std::printf(" %.3f", S);
  std::printf("\nuntraced run_s per iteration:");
  for (double R : RunUntraced)
    std::printf(" %.3f", R);
  std::printf("\ntraced run_s per iteration:");
  for (double R : RunTraced)
    std::printf(" %.3f", R);
  std::printf("\nerror_rate: %.6g (%llu failed of %llu attempted)\n",
              ErrorRate, (unsigned long long)C.failed(),
              (unsigned long long)C.attempted());
  W->printBands();

  bool First = true;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              C.failed() == 0 ? "true" : "false",
              (unsigned long long)C.attempted(),
              (unsigned long long)C.failed());
  if (!O.Trace) {
    printMetric(First, "setup_s", median(Setup));
    printMetric(First, "run_s", median(RunUntraced));
    printMetric(First, "peak_rss_mb", peakRssMb());
  } else {
    // Every figure the traced iterations computed, as its median.
    std::map<std::string, std::vector<double>> Samples;
    for (const LayerMetrics &L : Layers)
      for (const auto &[Name, Value] : L)
        Samples[Name].push_back(Value);
    LayerMetrics Out = Extra;
    for (const auto &[Name, Values] : Samples)
      Out.emplace(Name, median(Values));
    Out["error_rate"] = ErrorRate;
    Out["trace.overhead_s"] = median(RunTraced) - median(RunUntraced);
    for (const auto &[Name, Value] : Out)
      printMetric(First, Name, Value);
  }
  std::printf("}}\n");
  return 0;
}
