//===- perfbench/TreeSet.h - The four Fig. 5 tree organizations ----------===//
//
// Part of the cache-conscious structure layout library (PLDI'99 repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One key set in the paper's four organizations — random BST,
/// depth-first BST, B-tree and ccmorph's C-tree — built through the
/// public trees API and searched through any access policy. Shared by
/// tree_replay (recorded and replayed) and layout_native (timed
/// natively).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TREESET_H
#define PERFBENCH_TREESET_H

#include "Harness.h"

#include "support/Random.h"
#include "trees/BTree.h"
#include "trees/BinaryTree.h"
#include "trees/CTree.h"

#include <memory>
#include <optional>

namespace perfbench {

enum Org : unsigned { OrgRandom, OrgDfs, OrgBTree, OrgCTree, NumOrgs };

inline const char *orgName(unsigned O) {
  static const char *Names[] = {"random", "dfs", "btree", "ctree"};
  return Names[O];
}

class TreeSet {
public:
  /// Builds all four organizations over \p NumKeys keys. Records the
  /// build and the ccmorph pass as "trees.build" and "core.ccmorph"
  /// spans; returns the ccmorph seconds.
  double build(uint64_t NumKeys, uint64_t Seed, const ccl::CacheParams &P,
               Tracer &T);
  void clear();

  template <typename Access>
  bool search(unsigned O, uint32_t Key, Access &A) const {
    switch (O) {
    case OrgRandom:
      return RandomBst->search(Key, A) != nullptr;
    case OrgDfs:
      return DfsBst->search(Key, A) != nullptr;
    case OrgBTree:
      return Bt->contains(Key, A);
    default:
      return Ct->search(Key, A) != nullptr;
    }
  }

  uint64_t numKeys() const { return NumKeys; }
  ccl::trees::CTree &ctree() { return *Ct; }

private:
  uint64_t NumKeys = 0;
  std::optional<ccl::trees::BinarySearchTree> RandomBst;
  std::optional<ccl::trees::BinarySearchTree> DfsBst;
  std::optional<ccl::trees::BTree> Bt;
  std::unique_ptr<ccl::trees::CTree> Ct;
};

/// The seeded search-key stream: uniform over the tree's keys. With
/// \p Inject the first key is one the tree does not hold.
class KeyStream {
public:
  KeyStream(uint64_t Seed, uint64_t NumKeys, bool Inject = false)
      : Rng(Seed), NumKeys(NumKeys), Inject(Inject) {}
  uint32_t next() {
    uint32_t Key =
        ccl::trees::BinarySearchTree::keyAt(Rng.nextBounded(NumKeys));
    if (Inject) {
      Inject = false;
      return Key + 1; // Keys are odd; an even key is never present.
    }
    return Key;
  }

private:
  ccl::Xoshiro256 Rng;
  uint64_t NumKeys;
  bool Inject;
};

} // namespace perfbench

#endif // PERFBENCH_TREESET_H
