//===- perfbench/Harness.cpp - Benchmark harness --------------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/BuildInfo.h"
#include "support/Random.h"

#include <algorithm>
#include <chrono>
#include <cpuid.h>
#include <cstring>
#include <fstream>
#include <sys/resource.h>
#include <thread>

using namespace perfbench;

namespace {

thread_local int32_t CurrentSpan = -1;

uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// Escapes \p S for a JSON string body.
std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\') {
      Out += '\\';
      Out += Ch;
    } else if (static_cast<unsigned char>(Ch) < 0x20) {
      Out += ' ';
    } else {
      Out += Ch;
    }
  }
  return Out;
}

std::string cpuModel() {
  unsigned Regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004)
    return "unknown";
  for (unsigned I = 0; I < 3; ++I)
    __get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                &Regs[4 * I + 2], &Regs[4 * I + 3]);
  char Brand[49] = {};
  std::memcpy(Brand, Regs, 48);
  std::string Model(Brand);
  size_t First = Model.find_first_not_of(' ');
  return First == std::string::npos ? "unknown" : Model.substr(First);
}

bool underHypervisor() {
  unsigned A = 0, B = 0, C = 0, D = 0;
  if (!__get_cpuid(1, &A, &B, &C, &D))
    return false;
  return (C >> 31) & 1;
}

std::string aslrSetting() {
  std::ifstream In("/proc/sys/kernel/randomize_va_space");
  std::string Value;
  if (!(In >> Value))
    return "unknown";
  return Value;
}

} // namespace

int32_t Tracer::open(const char *Name, int32_t Parent) {
  if (!Enabled)
    return -1;
  if (Parent < 0)
    Parent = CurrentSpan;
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back({Name, nowNs(), 0, Parent, Iteration});
  return int32_t(Spans.size() - 1);
}

void Tracer::close(int32_t Index) {
  if (Index < 0)
    return;
  uint64_t End = nowNs();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[size_t(Index)].EndNs = End;
}

size_t Tracer::mark() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Spans.size();
}

Tracer::Totals Tracer::totals(const char *Name, size_t From) const {
  std::lock_guard<std::mutex> Lock(Mu);
  Totals Out;
  std::vector<std::vector<size_t>> Kids(Spans.size());
  for (size_t I = From; I < Spans.size(); ++I)
    if (Spans[I].Parent >= int32_t(From))
      Kids[size_t(Spans[I].Parent)].push_back(I);
  for (size_t I = From; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (std::strcmp(S.Name, Name) != 0 || S.EndNs < S.StartNs)
      continue;
    // Self time: the span minus the union of its children's intervals
    // (sweep cells overlap, so a plain sum would overcount).
    std::vector<std::pair<uint64_t, uint64_t>> Cover;
    for (size_t K : Kids[I])
      Cover.push_back({std::max(Spans[K].StartNs, S.StartNs),
                       std::min(Spans[K].EndNs, S.EndNs)});
    std::sort(Cover.begin(), Cover.end());
    uint64_t Covered = 0, Reach = S.StartNs;
    for (auto [Begin, End] : Cover) {
      Begin = std::max(Begin, Reach);
      if (End > Begin) {
        Covered += End - Begin;
        Reach = End;
      }
    }
    double Dur = double(S.EndNs - S.StartNs) / 1e9;
    Out.Seconds += Dur;
    Out.SelfSeconds += Dur - double(Covered) / 1e9;
    Out.MaxSeconds = std::max(Out.MaxSeconds, Dur);
  }
  return Out;
}

bool Tracer::writeJsonl(const std::string &Path, const std::string &Workload,
                        uint64_t Seed) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  uint64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%d,\"iteration\":%u,"
                 "\"workload\":\"%s\",\"seed\":%llu}\n",
                 I, S.Name, (unsigned long long)(S.StartNs - Base),
                 (unsigned long long)(S.EndNs - Base), S.Parent, S.Iteration,
                 jsonEscape(Workload).c_str(), (unsigned long long)Seed);
  }
  return std::fclose(F) == 0;
}

Scope::Scope(Tracer &T, const char *Name, int32_t Parent)
    : T(T), Index(T.open(Name, Parent)), Saved(CurrentSpan) {
  if (Index >= 0)
    CurrentSpan = Index;
}

Scope::~Scope() {
  if (Index < 0)
    return;
  T.close(Index);
  CurrentSpan = Saved;
}

void Checks::expectCount(uint64_t N, uint64_t Passed, const char *What) {
  Attempted += N;
  if (Passed >= N)
    return;
  if (Failed < 8)
    std::fprintf(stderr, "check failed: %s (%llu of %llu)\n", What,
                 (unsigned long long)(N - Passed), (unsigned long long)N);
  Failed += N - Passed;
}

uint64_t perfbench::subSeed(uint64_t Seed, uint64_t Stream) {
  ccl::SplitMix64 Mix(Seed * 0x9e3779b97f4a7c15ULL + Stream);
  return Mix.next();
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0;
}

uint64_t perfbench::minorFaults() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return uint64_t(U.ru_minflt);
}

unsigned perfbench::benchThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return std::clamp(N, 1u, 4u);
}

void perfbench::printStamp(const Options &O, unsigned Threads) {
#ifdef NDEBUG
  const bool Comparable = true;
  const char *BuildType = "release-ndebug";
#else
  const bool Comparable = false;
  const char *BuildType = "asserts-on";
#endif
  std::printf("stamp {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
              "\"trace\":%d,\"nproc\":%u,\"cpu\":\"%s\",\"hypervisor\":%s,"
              "\"aslr\":\"%s\",\"build\":\"%s\",\"simd\":\"%s\","
              "\"threads\":%u,\"git\":\"%s\",\"comparable\":%s}\n",
              jsonEscape(O.Workload).c_str(), (unsigned long long)O.Seed,
              O.Seconds, O.Trace ? 1 : 0, std::thread::hardware_concurrency(),
              jsonEscape(cpuModel()).c_str(),
              underHypervisor() ? "true" : "false", aslrSetting().c_str(),
              BuildType, ccl::simdKernel(), Threads, ccl::gitDescribe(),
              Comparable ? "true" : "false");
  if (!Comparable)
    std::printf("WARNING: asserts-on build; these numbers are invalid, "
                "not comparable\n");
}
