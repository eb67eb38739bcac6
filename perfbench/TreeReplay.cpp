//===- perfbench/TreeReplay.cpp - Workload tree_replay -------------------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
//
// Why this workload: it is the paper's Fig. 5/Fig. 10 question asked
// through the record-once/replay-many engine. The timed phase records
// one seeded search stream per tree organization (TraceBuffer) and
// replays cells through fresh E5000 hierarchies on a SweepRunner pool
// (MemoryHierarchy::replay), so sim replay and support do nearly all the
// work; heap does none and ccmorph runs once, in setup. The tree is 24x
// the 1 MB L2, so every organization misses and layout decides cycles.
//
// Cells per organization: cold-start prefixes of 1% and 10% of the
// stream (Fig. 5) and one cell that warms on the first half and measures
// the second (Fig. 10); that cell's totals are also the cold 100% point.
// Cells run largest first so the pool's tail is short.
//
//===----------------------------------------------------------------------===//

#include "TreeSet.h"

#include "sim/AccessPolicy.h"
#include "support/SweepRunner.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstring>

using namespace perfbench;
using namespace ccl;

namespace {

constexpr uint64_t NumKeys = (1ULL << 20) - 1;
constexpr uint64_t Searches = 200000;

struct Cell {
  unsigned O = 0;
  size_t Records = 0;
  /// Records of the warm-up phase; 0 for a cold-start prefix cell.
  size_t WarmRecords = 0;
  sim::SimStats Stats;
  uint64_t Cycles = 0;
  uint64_t WindowCycles = 0;
};

class TreeReplay final : public Workload {
public:
  explicit TreeReplay(const Options &O)
      : O(O), Config(sim::HierarchyConfig::ultraSparcE5000()),
        Params(CacheParams::fromHierarchy(Config)), Threads(benchThreads()) {}

  unsigned threads() const override { return Threads; }

  void setup(Tracer &T, LayerMetrics &L) override {
    // Fresh buffers: every iteration pays the trace-buffer growth a
    // first recording pays (sim.record_minor_faults shows it).
    for (sim::TraceBuffer &B : Traces)
      B = sim::TraceBuffer();
    Cells.clear();
    Timer Build;
    double Morph = Trees.build(NumKeys, O.Seed, Params, T);
    L["trees.build_s"] = Build.elapsedSec() - Morph;
    L["core.ccmorph_ns_per_node"] =
        1e9 * Morph / double(Trees.ctree().morphStats().NodeCount);
  }

  void run(Tracer &T, Checks &C, LayerMetrics &L) override {
    size_t Mark = T.mark();
    uint64_t KeySeed = subSeed(O.Seed, 3);
    const uint64_t MarkAt[] = {Searches / 100, Searches / 10, Searches / 2};
    size_t Marks[NumOrgs][3] = {};
    uint64_t Faults = minorFaults();
    {
      Scope S(T, "sim.record");
      for (unsigned Org = 0; Org < NumOrgs; ++Org) {
        sim::RecordAccess A(Traces[Org]);
        KeyStream Keys(KeySeed, NumKeys, O.InjectFailure && Org == OrgRandom);
        uint64_t Found = 0;
        for (uint64_t I = 0, M = 0; I < Searches; ++I) {
          Found += Trees.search(Org, Keys.next(), A);
          if (M < 3 && I + 1 == MarkAt[M])
            Marks[Org][M++] = Traces[Org].records();
        }
        Traces[Org].seal();
        C.expectCount(Searches, Found, "tree_replay: search finds its key");
      }
    }
    L["sim.record_minor_faults"] = double(minorFaults() - Faults);

    for (unsigned Org = 0; Org < NumOrgs; ++Org) {
      Cells.push_back({Org, Marks[Org][0], 0, {}, 0, 0});
      Cells.push_back({Org, Marks[Org][1], 0, {}, 0, 0});
      Cells.push_back({Org, Traces[Org].records(), Marks[Org][2], {}, 0, 0});
    }
    std::stable_sort(Cells.begin(), Cells.end(),
                     [](const Cell &A, const Cell &B) {
                       return A.Records > B.Records;
                     });
    SweepRunner Pool(Threads);
    {
      Scope Sweep(T, "support.sweep");
      int32_t Parent = Sweep.id();
      Pool.run(Cells.size(), [&](size_t I) {
        Scope S(T, "sim.replay", Parent);
        replayCell(Cells[I]);
      });
    }

    sim::SimStats Sum;
    uint64_t Records = 0, Bytes = 0, Replayed = 0;
    for (const Cell &Cl : Cells) {
      C.expect(Cl.Stats.isConsistent(), "tree_replay: SimStats consistent");
      Sum += Cl.Stats;
      Replayed += Cl.Records;
      if (Cl.WarmRecords != 0)
        WindowCycles[Cl.O] = Cl.WindowCycles;
    }
    for (const sim::TraceBuffer &B : Traces) {
      Records += B.records();
      Bytes += B.bytes();
    }
    Speedup = double(WindowCycles[OrgRandom]) / double(WindowCycles[OrgCTree]);
    L["sim_speedup"] = Speedup;
    double Refs = double(Sum.memoryReferences());
    L["sim.refs"] = Refs;
    L["sim.l1_miss_rate"] = Sum.l1MissRate();
    L["sim.l2_miss_rate"] = Sum.l2MissRate();
    L["sim.tlb_miss_rate"] = double(Sum.TlbMisses) / Refs;
    L["sim.stall_share"] = double(Sum.L1StallCycles + Sum.L2StallCycles +
                                  Sum.TlbStallCycles) /
                           double(Sum.totalCycles());
    L["sim.records"] = double(Records);
    L["sim.trace_bytes_per_rec"] = double(Bytes) / double(Records);
    if (!T.enabled())
      return;
    Tracer::Totals Rec = T.totals("sim.record", Mark);
    Tracer::Totals Replay = T.totals("sim.replay", Mark);
    Tracer::Totals Sweep = T.totals("support.sweep", Mark);
    L["sim.record_ns_per_rec"] = 1e9 * Rec.Seconds / double(Records);
    L["sim.replay_ns_per_rec"] = 1e9 * Replay.SelfSeconds / double(Replayed);
    L["support.sweep_busy_share"] =
        Replay.Seconds / (double(Threads) * Sweep.Seconds);
    L["support.sweep_critical_share"] = Replay.MaxSeconds / Sweep.Seconds;
  }

  void finish(Tracer &T, Checks &C, LayerMetrics &L, bool Probe) override {
    // One cell driven live through SimAccess must match its replay: the
    // C-tree's 10% cold prefix. Its native twin over the same keys gives
    // what live simulation costs per reference.
    auto It = std::max_element(
        Cells.begin(), Cells.end(), [](const Cell &A, const Cell &B) {
          auto Key = [](const Cell &Cl) {
            return Cl.O == OrgCTree && Cl.WarmRecords == 0 ? Cl.Records : 0;
          };
          return Key(A) < Key(B);
        });
    {
      Scope S(T, "sim.live_check");
      sim::MemoryHierarchy M(Config);
      sim::SimAccess A(M);
      KeyStream Keys(subSeed(O.Seed, 3), NumKeys);
      Timer Live;
      for (uint64_t I = 0; I < Searches / 10; ++I)
        Trees.search(OrgCTree, Keys.next(), A);
      double LiveNs = double(Live.elapsedNs());
      C.expect(std::memcmp(&M.stats(), &It->Stats, sizeof(sim::SimStats)) ==
                       0 &&
                   M.now() == It->Cycles,
               "tree_replay: live SimAccess stats equal replay stats");
      sim::NativeAccess N;
      KeyStream Twin(subSeed(O.Seed, 3), NumKeys);
      uint64_t Found = 0;
      Timer Native;
      for (uint64_t I = 0; I < Searches / 10; ++I)
        Found += Trees.search(OrgCTree, Twin.next(), N);
      L["sim.live_ns_per_ref"] =
          (LiveNs - double(Native.elapsedNs())) /
          double(M.stats().memoryReferences());
      C.expectCount(Searches / 10, Found, "tree_replay: search finds its key");
    }
    if (!Probe)
      return;
    // Decode-only pass: the floor replay could reach from decoding.
    Scope S(T, "sim.decode");
    Timer Decode;
    uint64_t Records = 0, Sink = 0;
    sim::TraceRecord Batch[sim::TraceBlockCap];
    for (const sim::TraceBuffer &B : Traces) {
      sim::TraceCursor Cur(B.view());
      while (size_t N = Cur.nextBatch(Batch, sim::TraceBlockCap)) {
        Sink += Batch[N - 1].Addr;
        Records += N;
      }
    }
    L["sim.decode_ns_per_rec"] = double(Decode.elapsedNs()) / double(Records);
    static volatile uint64_t Keep;
    Keep = Sink;
    (void)Keep;
  }

  void printBands() const override {
    std::printf("sim_speedup tree_replay: random BST / C-tree, warm window "
                "= %.3fx (paper Fig. 5: C-tree ~4-5x over random; not "
                "gated)\n",
                Speedup);
    std::printf("  window cycles: random %llu, dfs %llu, btree %llu, ctree "
                "%llu\n",
                (unsigned long long)WindowCycles[OrgRandom],
                (unsigned long long)WindowCycles[OrgDfs],
                (unsigned long long)WindowCycles[OrgBTree],
                (unsigned long long)WindowCycles[OrgCTree]);
    std::printf("  note: random and depth-first BST cycles move ~0.3%% "
                "across processes under ASLR (4 KiB-aligned arena slabs); "
                "C-tree and B-tree cycles are bit-exact per seed\n");
  }

private:
  void replayCell(Cell &Cl) const {
    sim::MemoryHierarchy M(Config);
    if (Cl.WarmRecords == 0) {
      M.replay(Traces[Cl.O].prefix(Cl.Records));
    } else {
      sim::TraceCursor Cur(Traces[Cl.O].view());
      M.replay(Cur, Cl.WarmRecords);
      uint64_t Start = M.now();
      M.replay(Cur, Cl.Records - Cl.WarmRecords);
      Cl.WindowCycles = M.now() - Start;
    }
    Cl.Stats = M.stats();
    Cl.Cycles = M.now();
  }

  Options O;
  sim::HierarchyConfig Config;
  CacheParams Params;
  unsigned Threads;
  TreeSet Trees;
  sim::TraceBuffer Traces[NumOrgs];
  std::vector<Cell> Cells;
  uint64_t WindowCycles[NumOrgs] = {};
  double Speedup = 0;
};

} // namespace

std::unique_ptr<Workload> perfbench::makeTreeReplay(const Options &O) {
  return std::make_unique<TreeReplay>(O);
}
