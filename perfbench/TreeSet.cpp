//===- perfbench/TreeSet.cpp - The four Fig. 5 tree organizations --------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//

#include "TreeSet.h"

#include "support/Timer.h"

#include <vector>

using namespace perfbench;
using namespace ccl::trees;

double TreeSet::build(uint64_t Keys, uint64_t Seed, const ccl::CacheParams &P,
                      Tracer &T) {
  clear();
  NumKeys = Keys;
  std::optional<BinarySearchTree> Source;
  {
    Scope S(T, "trees.build");
    RandomBst.emplace(BinarySearchTree::build(NumKeys, ccl::LayoutScheme::Random,
                                              subSeed(Seed, 1)));
    DfsBst.emplace(
        BinarySearchTree::build(NumKeys, ccl::LayoutScheme::DepthFirst));
    std::vector<uint32_t> Sorted(NumKeys);
    for (uint64_t I = 0; I < NumKeys; ++I)
      Sorted[I] = BinarySearchTree::keyAt(I);
    Bt.emplace(BTree::buildFromSorted(Sorted, P));
    Source.emplace(BinarySearchTree::build(
        NumKeys, ccl::LayoutScheme::Random, subSeed(Seed, 2)));
  }
  Ct = std::make_unique<CTree>(P);
  Scope S(T, "core.ccmorph");
  ccl::Timer Morph;
  Ct->adopt(Source->root());
  return Morph.elapsedSec();
}

void TreeSet::clear() {
  RandomBst.reset();
  DfsBst.reset();
  Bt.reset();
  Ct.reset();
}
