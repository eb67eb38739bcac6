//===- perfbench/LayoutNative.cpp - Workload layout_native ---------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Why this workload: the library user's view of the paper on real
// hardware, with no simulator in the timed phase. The timed phase ages
// one heap per ccmalloc strategy and one on the plain path by replaying
// Olden health's own ccmalloc/ccfree traffic, builds the VIS-substitute
// BDD natively on each aged heap, runs the Olden programs natively
// (Base, FA, CA, NA, Cl, Cl+Col), re-runs ccmorph on the C-tree, and
// times native searches over the four tree organizations. heap, core and
// native trees traversal do the work; an optimisation of the sim layer
// should leave it unchanged.
//
// Where the churn comes from: health at its Table 2 size (max level 3,
// 3000 steps, the HealthConfig defaults) with a seeded patient stream is
// run once per process through runHealthProfiled, whose allocation hook
// records the type of every allocation in call order (Village, Patient,
// ListCell). Object sizes are the sizeofs the reflection registry holds
// for those types, and the number of frees is the FreeCalls of that
// same run. The hook reports neither hints nor frees, so the replay
// follows health's rules for them: each allocation is hinted with the
// previous object of its type (Fig. 4: a list cell near the previous
// cell, a patient near the previous patient, a village near the one
// built before it), health's frees are spread evenly over its time
// steps, and each frees the oldest live patient or list cell (patients
// move through the waiting, assess and inside queues in arrival order;
// villages are never freed). mst only allocates, and the BDD's own
// allocations follow the churn on every aged heap.
//
//===----------------------------------------------------------------------===//

#include "TreeSet.h"

#include "bdd/Bdd.h"
#include "bdd/BddWorkloads.h"
#include "core/CcAllocator.h"
#include "olden/Health.h"
#include "olden/Mst.h"
#include "olden/Perimeter.h"
#include "olden/TreeAdd.h"
#include "sim/AccessPolicy.h"
#include "support/Reflect.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstring>
#include <functional>

using namespace perfbench;
using namespace ccl;
using namespace ccl::olden;

namespace {

constexpr uint64_t NumKeys = (1ULL << 20) - 1;
constexpr uint64_t NativeSearches = 100000;

/// Board size and evaluation count of the VIS substitute (Fig. 6). Six
/// queens, one fewer than fig6's default: the 7-queens build (49k unique
/// nodes, hash-table bound) took two thirds of the timed phase and swung
/// 2.4x with the load of a shared host, more than any other part.
constexpr unsigned VisQueens = 6;
constexpr uint64_t VisEvals = 200000;

/// One heap of the churn: the plain path or a ccmalloc strategy.
struct HeapKind {
  bool Near;
  heap::CcStrategy Strategy;
};

/// Plain first, then first-fit, closest and new-block.
constexpr HeapKind HeapKinds[] = {
    {false, heap::CcStrategy::NewBlock},
    {true, heap::CcStrategy::FirstFit},
    {true, heap::CcStrategy::Closest},
    {true, heap::CcStrategy::NewBlock},
};
constexpr size_t NumHeaps = std::size(HeapKinds);

constexpr Variant NativeVariants[] = {
    Variant::Base,           Variant::CcMallocFirstFit,
    Variant::CcMallocClosest, Variant::CcMallocNewBlock,
    Variant::CcMorphCluster, Variant::CcMorphColor,
};

/// health's node types, as its allocation hook names them.
enum HealthType : uint8_t { Village, Patient, ListCell, NumHealthTypes };
constexpr const char *HealthTypeNames[] = {"Village", "Patient", "ListCell"};

/// health's recorded allocation traffic (see the file comment).
struct HealthChurn {
  /// The type of every allocation, in call order.
  std::vector<uint8_t> Allocs;
  uint32_t Sizes[NumHealthTypes] = {};
  uint64_t Frees = 0;
  /// health's own allocation count; must equal Allocs.size().
  uint64_t AllocCalls = 0;
  unsigned Steps = 0;
};

HealthChurn recordHealthChurn(uint64_t Seed) {
  reflectHealthTypes();
  HealthChurn Ch;
  for (unsigned K = 0; K < NumHealthTypes; ++K)
    Ch.Sizes[K] = reflect::TypeRegistry::global().find(HealthTypeNames[K])->Size;
  HealthConfig Config; // Table 2: max level 3, 3000 steps.
  Config.Seed = subSeed(Seed, 12);
  Ch.Steps = Config.Steps;
  HealthProfileHooks Hooks;
  Hooks.OnAlloc = [&](const void *, const char *Type) {
    uint8_t K = 0;
    while (K < NumHealthTypes && std::strcmp(Type, HealthTypeNames[K]) != 0)
      ++K;
    if (K < NumHealthTypes)
      Ch.Allocs.push_back(K);
  };
  BenchResult R = runHealthProfiled(
      Config, sim::HierarchyConfig::rsimTable1(), Hooks);
  Ch.Frees = R.Heap.FreeCalls;
  Ch.AllocCalls = R.Heap.AllocCalls;
  return Ch;
}

/// One Olden program: the per-layer metric its native cells feed, and a
/// native entry point.
struct OldenProgram {
  const char *Metric;
  std::function<BenchResult(Variant)> Run;
};

/// The four programs at the Fig. 7 sizes with inputs drawn from \p Seed
/// (health's patient stream and mst's edge weights; treeadd and
/// perimeter take no seed).
std::vector<OldenProgram> oldenPrograms(uint64_t Seed) {
  TreeAddConfig TreeAdd;
  TreeAdd.Levels = 16;
  TreeAdd.Iterations = 8;
  HealthConfig Health;
  Health.MaxLevel = 3;
  Health.Steps = 500;
  Health.MorphInterval = 100;
  Health.Seed = subSeed(Seed, 10);
  MstConfig Mst;
  Mst.NumVertices = 512;
  Mst.Degree = 32;
  Mst.Seed = subSeed(Seed, 11);
  PerimeterConfig Perimeter;
  Perimeter.Levels = 10;
  Perimeter.Iterations = 3;
  return {
      {"olden.treeadd_native_s",
       [=](Variant V) { return runTreeAdd(TreeAdd, V, nullptr); }},
      {"olden.health_native_s",
       [=](Variant V) { return runHealth(Health, V, nullptr); }},
      {"olden.mst_native_s",
       [=](Variant V) { return runMst(Mst, V, nullptr); }},
      {"olden.perimeter_native_s",
       [=](Variant V) { return runPerimeter(Perimeter, V, nullptr); }},
  };
}

/// Result of one VIS-substitute run.
struct VisResult {
  uint64_t Checksum = 0;
  uint64_t UniqueNodes = 0;
  /// Host seconds spent building the queens and adder BDDs.
  double BuildSeconds = 0;
};

/// The VIS-substitute BDD workload (Fig. 6), natively on \p Alloc.
VisResult runVis(CcAllocator &Alloc, bool UseCcMalloc, uint64_t EvalSeed,
                 Tracer &T) {
  bdd::BddManager Mgr(VisQueens * VisQueens, Alloc, nullptr, UseCcMalloc);
  VisResult R;
  Timer Build;
  bdd::BddNode *Queens;
  {
    Scope S(T, "bdd.build");
    Queens = bdd::buildNQueens(Mgr, VisQueens);
  }
  R.BuildSeconds = Build.elapsedSec();
  double Solutions = Mgr.satCount(Queens);
  uint64_t Hits = bdd::evalRandom(Mgr, Queens, VisEvals, EvalSeed);
  Build.restart();
  bdd::BddNode *Miter;
  {
    Scope S(T, "bdd.build");
    Miter = bdd::buildAdderEquivalence(Mgr, VisQueens * VisQueens / 2);
  }
  R.BuildSeconds += Build.elapsedSec();
  R.Checksum = uint64_t(Solutions) * 1000 + Hits +
               (Miter == Mgr.zero() ? 7 : 0);
  R.UniqueNodes = Mgr.uniqueNodes();
  return R;
}

class LayoutNative final : public Workload {
public:
  explicit LayoutNative(const Options &O)
      : O(O), Params(paramsFor(nullptr)), Programs(oldenPrograms(O.Seed)) {
    Timer Record;
    Churn = recordHealthChurn(O.Seed);
    std::printf("health churn: %zu allocations (%u Village, %u Patient, "
                "%u ListCell bytes), %llu frees, recorded in %.2f s\n",
                Churn.Allocs.size(), Churn.Sizes[Village],
                Churn.Sizes[Patient], Churn.Sizes[ListCell],
                (unsigned long long)Churn.Frees, Record.elapsedSec());
  }

  void setup(Tracer &T, LayerMetrics &L) override {
    Timer Build;
    double Morph = Trees.build(NumKeys, O.Seed, Params, T);
    L["trees.build_s"] = Build.elapsedSec() - Morph;
  }

  void run(Tracer &T, Checks &C, LayerMetrics &L) override {
    size_t Mark = T.mark();
    churn(T, C, L);
    bdd(T, C, L);
    olden(T, C);
    {
      Scope S(T, "core.ccmorph");
      Timer Morph;
      Trees.ctree().remorph();
      L["core.ccmorph_ns_per_node"] =
          double(Morph.elapsedNs()) /
          double(Trees.ctree().morphStats().NodeCount);
    }
    search(T, C, L);
    for (auto &H : Heaps)
      H.reset();
    if (!T.enabled())
      return;
    for (const OldenProgram &Prog : Programs)
      L[Prog.Metric] = T.totals(Prog.Metric, Mark).Seconds;
  }

private:
  /// Replays health's traffic on a fresh heap per kind, one round per
  /// health time step: the step's share of allocations (hinted for the
  /// ccmalloc kinds), then its share of frees.
  void churn(Tracer &T, Checks &C, LayerMetrics &L) {
    Scope S(T, "heap.churn");
    const size_t NumAllocs = Churn.Allocs.size();
    C.expect(NumAllocs == Churn.AllocCalls && NumAllocs != 0,
             "layout_native: health churn records every allocation");
    double AllocNs[2] = {}, FreeNs = 0;
    uint64_t AllocCalls[2] = {};
    for (size_t K = 0; K < NumHeaps; ++K) {
      const HeapKind &Kind = HeapKinds[K];
      Heaps[K] = std::make_unique<CcAllocator>(Params, Kind.Strategy);
      CcAllocator &A = *Heaps[K];
      // Patients and list cells in allocation order; Oldest is the next
      // to free.
      std::vector<void *> Queue;
      Queue.reserve(NumAllocs);
      size_t Oldest = 0;
      uint64_t Villages = 0, NonNull = 0, Freed = 0;
      const void *Last[NumHealthTypes] = {};
      size_t Next = 0;
      for (unsigned Step = 1; Step <= Churn.Steps; ++Step) {
        size_t End = NumAllocs * Step / Churn.Steps;
        Timer Alloc;
        for (; Next < End; ++Next) {
          uint8_t Type = Churn.Allocs[Next];
          uint32_t Size = Churn.Sizes[Type];
          void *P = Kind.Near && Last[Type] ? A.ccmalloc(Size, Last[Type])
                                            : A.ccmalloc(Size);
          NonNull += P != nullptr;
          Last[Type] = P;
          if (Type == Village)
            ++Villages;
          else
            Queue.push_back(P);
        }
        AllocNs[Kind.Near] += double(Alloc.elapsedNs());
        uint64_t Due = std::min<uint64_t>(Churn.Frees * Step / Churn.Steps,
                                          Freed + (Queue.size() - Oldest));
        Timer Free;
        for (; Freed < Due; ++Freed)
          A.ccfree(Queue[Oldest++]);
        FreeNs += double(Free.elapsedNs());
      }
      AllocCalls[Kind.Near] += NumAllocs;
      Live[K] = Villages + (Queue.size() - Oldest);
      C.expectCount(NumAllocs, NonNull, "layout_native: ccmalloc non-null");
      const heap::HeapStats &H = A.stats();
      C.expect(H.AllocCalls - H.FreeCalls == Live[K] &&
                   H.FreeCalls == Churn.Frees,
               "layout_native: heap alloc/free counts balance");
    }
    L["core.ccmalloc_ns_per_call.plain"] = AllocNs[0] / double(AllocCalls[0]);
    L["core.ccmalloc_ns_per_call.near"] = AllocNs[1] / double(AllocCalls[1]);
    L["core.ccfree_ns_per_call"] =
        FreeNs / double(NumHeaps * Churn.Frees);
  }

  /// The VIS-substitute BDD, natively, on every aged heap.
  void bdd(Tracer &T, Checks &C, LayerMetrics &L) {
    double Build = 0;
    VisResult Plain;
    heap::HeapStats Sum;
    double Footprint = 0;
    for (size_t K = 0; K < NumHeaps; ++K) {
      Scope S(T, "bdd.vis");
      CcAllocator &A = *Heaps[K];
      VisResult R = runVis(A, HeapKinds[K].Near, subSeed(O.Seed, 21), T);
      if (K == 0)
        Plain = R;
      Build += R.BuildSeconds;
      C.expect(R.Checksum == Plain.Checksum,
               "layout_native: BDD checksum equals plain");
      const heap::HeapStats &H = A.stats();
      C.expect(H.AllocCalls - H.FreeCalls == Live[K] + R.UniqueNodes,
               "layout_native: heap alloc/free counts balance");
      Sum.NearCalls += H.NearCalls;
      Sum.SameBlock += H.SameBlock;
      Sum.PageSpills += H.PageSpills;
      Sum.FreeListReuses += H.FreeListReuses;
      Sum.BlocksReclaimed += H.BlocksReclaimed;
      Footprint += double(A.footprintBytes());
    }
    L["bdd.build_s"] = Build;
    L["bdd.unique_nodes"] = double(Plain.UniqueNodes);
    L["heap.same_block_rate"] = Sum.sameBlockRate();
    L["heap.footprint_mb"] = Footprint / 1048576.0;
    L["heap.page_spills"] = double(Sum.PageSpills);
    L["heap.free_list_reuses"] = double(Sum.FreeListReuses);
    L["heap.blocks_reclaimed"] = double(Sum.BlocksReclaimed);
  }

  /// The Olden programs natively under the layout variants.
  void olden(Tracer &T, Checks &C) {
    for (const OldenProgram &Prog : Programs) {
      Scope S(T, Prog.Metric);
      uint64_t BaseChecksum = 0;
      for (Variant V : NativeVariants) {
        BenchResult R = Prog.Run(V);
        if (V == Variant::Base)
          BaseChecksum = R.Checksum;
        C.expect(R.Checksum == BaseChecksum,
                 "layout_native: olden checksum equals Base");
      }
    }
  }

  /// Native searches over the four organizations, one key stream each.
  void search(Tracer &T, Checks &C, LayerMetrics &L) {
    static const char *Metrics[] = {
        "trees.native_ns_per_search.random", "trees.native_ns_per_search.dfs",
        "trees.native_ns_per_search.btree", "trees.native_ns_per_search.ctree"};
    sim::NativeAccess A;
    for (unsigned Org = 0; Org < NumOrgs; ++Org) {
      Scope S(T, "trees.search");
      KeyStream Keys(subSeed(O.Seed, 3), NumKeys,
                     O.InjectFailure && Org == OrgRandom);
      uint64_t Found = 0;
      Timer Search;
      for (uint64_t I = 0; I < NativeSearches; ++I)
        Found += Trees.search(Org, Keys.next(), A);
      L[Metrics[Org]] = double(Search.elapsedNs()) / double(NativeSearches);
      C.expectCount(NativeSearches, Found,
                    "layout_native: search finds its key");
    }
  }

  Options O;
  CacheParams Params;
  std::vector<OldenProgram> Programs;
  HealthChurn Churn;
  TreeSet Trees;
  std::unique_ptr<CcAllocator> Heaps[NumHeaps];
  /// Objects the churn left live on each heap.
  uint64_t Live[NumHeaps] = {};
};

} // namespace

std::unique_ptr<Workload> perfbench::makeLayoutNative(const Options &O) {
  return std::make_unique<LayoutNative>(O);
}
