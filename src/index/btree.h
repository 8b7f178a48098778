// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Concurrent ordered index mapping binary keys to OIDs. This is the
// reproduction's Masstree substitute (see DESIGN.md): a B+-tree with
// optimistic lock coupling (Leis et al.). Readers validate per-node version
// counters and never latch; writers lock only the nodes they modify, with
// proactive splits during descent. Every structural change to a leaf bumps
// its version, which is exactly the hook the CC layer's node sets use for
// phantom protection (paper §3.6.2, inherited from Silo).
//
// Nodes use Masstree's key layout (btree.cpp): a dense array of 8-byte
// big-endian key slices plus lengths, with the bytes past the first 8 kept
// in a side array that only nodes holding long keys allocate.
//
// Notes scoped to this reproduction:
//  * Keys are at most kMaxKeySize-1 bytes (scans need one byte of headroom
//    for successor cursors).
//  * The key Slice a scan callback receives is valid only during that call.
//  * Remove() deletes leaf entries in place without merging underfull nodes;
//    no node is freed until the tree is destroyed, so readers need no hazard
//    pointers. Nodes live in per-tree 2 MiB huge-page regions that the
//    destructor unmaps.
#ifndef ERMIA_INDEX_BTREE_H_
#define ERMIA_INDEX_BTREE_H_

#include <atomic>
#include <functional>
#include <vector>

#include "common/macros.h"
#include "common/slice.h"
#include "common/spin_latch.h"
#include "common/status.h"
#include "common/varstr.h"
#include "log/log_record.h"

namespace ermia {

// Opaque reference to an index node plus the version observed when the node
// was read. CC node sets store these and re-validate at pre-commit.
struct NodeHandle {
  const void* node = nullptr;
  uint64_t version = 0;
};

class BTree {
 public:
  static constexpr int kFanout = 32;  // max keys per node

  BTree();
  ~BTree();
  ERMIA_NO_COPY(BTree);

  // Inserts key -> oid. Returns KeyExists (with *existing set) if the key is
  // already present. On success *handle holds the modified leaf with its
  // post-insert version so the caller can refresh its own node set.
  Status Insert(const Slice& key, Oid oid, NodeHandle* handle, Oid* existing);

  // Most keys one LookupBatch call takes.
  static constexpr size_t kLookupGroup = 16;

  // Point lookup. Whether the key is found or not, *handle receives the leaf
  // consulted (a miss is an anti-dependency that phantom checks must cover).
  bool Lookup(const Slice& key, Oid* oid, NodeHandle* handle) const;

  // Batched point lookup with the result of Lookup on each of the n <=
  // kLookupGroup keys: found[i], oids[i] (set only when found) and
  // handles[i]. The keys walk down the tree in lockstep, one level at a
  // time: every key's child is picked and prefetched before any of them is
  // read, so the cache misses of independent keys overlap. Each key keeps
  // its own version validation; a key that fails it finishes alone through
  // Lookup.
  void LookupBatch(const Slice* keys, size_t n, Oid* oids, bool* found,
                   NodeHandle* handles) const;

  // In-order scan over [lo, hi] (inclusive bounds; pass empty hi for
  // open-ended). The callback returns false to stop early. Every leaf
  // consulted is appended to *handles. Returns number of entries delivered.
  size_t Scan(const Slice& lo, const Slice& hi,
              const std::function<bool(const Slice& key, Oid oid)>& cb,
              std::vector<NodeHandle>* handles) const;

  // Reverse scan over [lo, hi], delivering entries in descending order.
  size_t ScanReverse(const Slice& lo, const Slice& hi,
                     const std::function<bool(const Slice& key, Oid oid)>& cb,
                     std::vector<NodeHandle>* handles) const;

  // Removes the key; returns NotFound if absent. Bumps the leaf version.
  Status Remove(const Slice& key);

  // Re-reads a node's current stable version (spins across in-flight locks).
  static uint64_t StableVersion(const void* node);

  // Number of keys currently stored (O(n); for tests and diagnostics).
  size_t Size() const;

  // Monotone structural-activity counters (relaxed; sampled into the engine
  // metrics snapshot as gauges).
  uint64_t splits() const { return splits_.load(std::memory_order_relaxed); }
  uint64_t read_retries() const {
    return read_retries_.load(std::memory_order_relaxed);
  }

 private:
  struct Node;
  struct InnerNode;
  struct LeafNode;
  struct Suffixes;   // per-node bytes of keys longer than 8
  struct SearchKey;  // a probe key with its slices precomputed
  // An optimistic reader's place in a descent: `node` as read at its stable
  // version `v`, and the child picked in it but not yet entered.
  struct Descent {
    Node* node;
    uint64_t v;
    Node* child;
  };

  static bool Validate(const Node* node, uint64_t v);
  static bool TryLock(Node* node, uint64_t v);
  static void Unlock(Node* node);

  // The per-level steps every optimistic reader descent is made of. A
  // descent starts at the root (false: the root moved meanwhile); at each
  // inner node it picks the key's child and starts fetching it, then enters
  // it (false: the node changed under the reader, who must restart).
  bool EnterRoot(Descent* d) const;
  static void PickChild(Descent* d, const SearchKey& key);
  static bool EnterChild(Descent* d);
  // Searches the leaf a descent reached. False if the leaf changed since it
  // was entered; otherwise sets *found, and *oid when found.
  static bool ReadLeaf(const Descent& d, const SearchKey& key, Oid* oid,
                       bool* found);
  LeafNode* DescendToLeaf(const SearchKey& key, uint64_t* leaf_version) const;
  void SplitChild(InnerNode* parent, int child_idx, Node* child, int mid);
  void SplitRoot();
  Node* AllocInner();
  Node* AllocLeaf();
  // Bump-carves `bytes` (rounded up to a cache line) from the tree's
  // regions; zero-filled and cache-line aligned.
  void* Carve(size_t bytes);

  // Split count (all splits funnel through SplitChild) and optimistic-read
  // restarts (version validation failed; reader re-descended).
  mutable std::atomic<uint64_t> splits_{0};
  mutable std::atomic<uint64_t> read_retries_{0};

  std::atomic<Node*> root_;
  // Guards root replacement; splits elsewhere use per-node locks only.
  mutable SpinLatch root_latch_;
  // Guards carving. regions_ holds every region mapped, for the destructor;
  // [carve_pos_, carve_end_) is the current region's uncarved rest.
  SpinLatch nodes_latch_;
  std::vector<void*> regions_;
  char* carve_pos_ = nullptr;
  char* carve_end_ = nullptr;
};

}  // namespace ermia

#endif  // ERMIA_INDEX_BTREE_H_
