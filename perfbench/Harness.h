//===- perfbench/Harness.h - Benchmark harness: spans, checks, host ------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every workload shares: an in-memory span recorder for the
/// traced run, the operation checks behind error_rate, the workload
/// interface main() calls, and host/build stamping.
///
/// Public-call rule: workloads call only library entry points that
/// survive the planned removals of sharded replay, parallel ccmorph, the
/// sharded ccmalloc front-end, the v1 trace encoding and the perf-event
/// counters. Never call MemoryHierarchy::replayParallel,
/// sim::TraceShardIndex, CcMorph::reorganizeParallel, the sharded
/// CcAllocator constructor, TraceEncoding::V1 or obs::PerfCounters here.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Feeds one deliberately wrong input so a check must fail.
  bool InjectFailure = false;
  /// Where the traced run writes its spans (JSONL); empty = nowhere.
  std::string SpansOut;
};

/// Per-layer figures of one iteration, keyed by metric name.
using LayerMetrics = std::map<std::string, double>;

/// Records spans (name, start, end, parent) in memory while enabled.
/// Thread-safe: sweep cells open spans from worker threads.
class Tracer {
public:
  struct Span {
    const char *Name;
    uint64_t StartNs;
    uint64_t EndNs;
    int32_t Parent;
    uint32_t Iteration;
  };

  /// Aggregate of every span of one name since a mark.
  struct Totals {
    double Seconds = 0;     ///< Summed durations.
    double SelfSeconds = 0; ///< Summed durations minus child coverage.
    double MaxSeconds = 0;  ///< Longest single span.
  };

  void setEnabled(bool On) { Enabled = On; }
  bool enabled() const { return Enabled; }
  void setIteration(uint32_t I) { Iteration = I; }

  /// Opens a span under \p Parent (-1 = the calling thread's innermost
  /// open span). Returns its index, or -1 while disabled.
  int32_t open(const char *Name, int32_t Parent);
  void close(int32_t Index);

  /// Position to pass to totals() for "spans opened from here on".
  size_t mark() const;
  Totals totals(const char *Name, size_t From) const;

  /// Writes every span as one JSON line, stamped with workload and seed.
  bool writeJsonl(const std::string &Path, const std::string &Workload,
                  uint64_t Seed) const;

private:
  bool Enabled = false;
  uint32_t Iteration = 0;
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// RAII span. A no-op while the tracer is disabled.
class Scope {
public:
  Scope(Tracer &T, const char *Name, int32_t Parent = -1);
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  int32_t id() const { return Index; }

private:
  Tracer &T;
  int32_t Index;
  int32_t Saved;
};

/// The operation checks behind error_rate: every check is one attempted
/// operation, every violated one a failed operation.
class Checks {
public:
  void expect(bool Ok, const char *What) { expectCount(1, Ok ? 1 : 0, What); }
  /// \p Passed of \p Attempted operations of one kind succeeded.
  void expectCount(uint64_t Attempted, uint64_t Passed, const char *What);
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// One workload: setup() builds an iteration's inputs (setup_s), run()
/// is the timed phase (run_s), finish() runs after the last iteration.
class Workload {
public:
  virtual ~Workload() = default;
  virtual void setup(Tracer &T, LayerMetrics &Layer) = 0;
  virtual void run(Tracer &T, Checks &C, LayerMetrics &Layer) = 0;
  /// Untimed end-of-run checks; with \p Probe (traced runs) also the
  /// layer probes that need an extra pass.
  virtual void finish(Tracer &, Checks &, LayerMetrics &, bool) {}
  /// Prints simulated factors beside the paper's bands (not gated).
  virtual void printBands() const {}
  /// Worker threads the workload uses.
  virtual unsigned threads() const { return 1; }
};

std::unique_ptr<Workload> makeTreeReplay(const Options &O);
std::unique_ptr<Workload> makeLayoutNative(const Options &O);

/// Derives an independent sub-seed for stream \p Stream of \p Seed.
uint64_t subSeed(uint64_t Seed, uint64_t Stream);

/// Peak resident set of this process, in MB.
double peakRssMb();
/// Minor page faults taken by this process so far.
uint64_t minorFaults();
/// min(hardware threads, 4).
unsigned benchThreads();

/// Prints the host/build stamp as one `stamp {...}` line. An asserts-on
/// build is stamped not comparable and warned about.
void printStamp(const Options &O, unsigned Threads);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
