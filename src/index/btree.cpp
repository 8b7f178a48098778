#include "index/btree.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>

#include "common/huge_pages.h"

namespace ermia {

// ---------------------------------------------------------------------------
// Node layout (Masstree's, Mao et al. EuroSys '12 §4) and ordering rule.
//
// A key is kept as its slice -- the first 8 bytes, zero-padded and read
// big-endian, so integer order is byte order -- plus its length. Keys order
// by (slice, min(len, 9)); only when both keys are longer than 8 bytes do
// the bytes past the slice (the suffix) decide. That is exactly bytewise
// lexicographic order: equal padded slices make the shorter key a prefix of
// the longer one unless both run past 8 bytes. Suffixes live in a per-node
// side array, slot-aligned with slices[], allocated on the node's first long
// key. The suffix's own first 8 bytes are stored as a second dense slice
// array ordered by the same rule, so keys that tie on their first 8 bytes
// (TPC-C's (warehouse, district) prefixes) mostly resolve there too. Every
// node is cache-line aligned:
//
//   line 0      version | suffixes | count | is_leaf | lens[32]
//   lines 1-4   slices[32]
//   then        leaf: values[32], next        inner: children[33]
//
// so a binary search over 32 keys touches the header and the slice lines
// only. A leaf is 512 B, an inner node 640 B. Nodes and suffix arrays are
// bump-carved from the tree's 2 MiB huge-page regions (BTree::Carve).
//
// version word: even = unlocked, odd = locked. Writers CAS v -> v+1 to lock
// and store v+2 to unlock, so any modification advances the stable version by
// 2 and invalidates concurrent optimistic readers.
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kSliceBytes = 8;
// Bytes of a key past its first two slices. Stored keys are shorter than
// kMaxKeySize (see btree.h).
constexpr size_t kRestBytes = kMaxKeySize - 1 - 2 * kSliceBytes;

// Under ASan every carve is followed by a poisoned cache line, so a write
// past a node's end trips ASan.
#if defined(__SANITIZE_ADDRESS__)
constexpr size_t kRedzoneBytes = kCacheLineSize;
#else
constexpr size_t kRedzoneBytes = 0;
#endif

// Orders two keys at one slice position by the slices, then by the length
// classes min(len, 9). 0 means both keys end here at the same length
// (equal) or both continue past this slice (undecided).
inline int CompareSlice(uint64_t a, size_t alen, uint64_t b, size_t blen) {
  if (a != b) return a < b ? -1 : 1;
  const size_t acls = std::min(alen, kSliceBytes + 1);
  const size_t bcls = std::min(blen, kSliceBytes + 1);
  return (acls > bcls) - (acls < bcls);
}

inline uint64_t SliceOf(const char* data, size_t len) {
  uint64_t s = 0;
  if (len >= kSliceBytes) {
    std::memcpy(&s, data, kSliceBytes);
  } else if (len > 0) {
    std::memcpy(&s, data, len);
  }
  if constexpr (std::endian::native == std::endian::little) {
    s = __builtin_bswap64(s);
  }
  return s;
}

// Writes the slice's 8 bytes (the key's first bytes, zero-padded) to out.
inline void StoreSlice(uint64_t s, char* out) {
  if constexpr (std::endian::native == std::endian::little) {
    s = __builtin_bswap64(s);
  }
  std::memcpy(out, &s, sizeof s);
}

}  // namespace

// Key bytes past the first 8, for the slots whose keys are longer: bytes
// 8-15 as a slice (zero-padded, big-endian) and the rest verbatim.
struct BTree::Suffixes {
  uint64_t slices[kFanout];
  char rest[kFanout][kRestBytes];
};

struct BTree::SearchKey {
  SearchKey() = default;
  explicit SearchKey(const Slice& k)
      : data(k.data()),
        len(k.size()),
        slice(SliceOf(k.data(), k.size())),
        slice2(len > kSliceBytes
                   ? SliceOf(k.data() + kSliceBytes, len - kSliceBytes)
                   : 0) {}
  const char* data;
  size_t len;
  uint64_t slice;
  uint64_t slice2;  // bytes 8-15
};

struct alignas(kCacheLineSize) BTree::Node {
  std::atomic<uint64_t> version{2};
  // Suffix bytes of the keys longer than 8 bytes. Carved by the node's
  // first long key and published (release) before any lens[i] > 8 is
  // stored; never replaced, and freed only with the tree.
  std::atomic<Suffixes*> suffixes{nullptr};
  uint8_t count = 0;
  bool is_leaf = false;
  uint8_t lens[kFanout] = {};
  alignas(kCacheLineSize) uint64_t slices[kFanout] = {};

  // <0, 0, >0 as key i is below, equal to, or above k. `sfx` is this
  // node's suffix array as loaded by the caller (null only in a torn read,
  // which the caller's version validation discards).
  int Compare(int i, const SearchKey& k, const Suffixes* sfx) const {
    const size_t len = lens[i];
    int c = CompareSlice(slices[i], len, k.slice, k.len);
    if (c != 0 || len <= kSliceBytes) return c;
    if (ERMIA_UNLIKELY(sfx == nullptr)) return 0;
    c = CompareSlice(sfx->slices[i], len - kSliceBytes, k.slice2,
                     k.len - kSliceBytes);
    if (c != 0 || len <= 2 * kSliceBytes) return c;
    c = std::memcmp(sfx->rest[i], k.data + 2 * kSliceBytes,
                    std::min(len, k.len) - 2 * kSliceBytes);
    if (c != 0) return c;
    return (len > k.len) - (len < k.len);
  }

  // First slot whose key is >= k (LowerBound) or > k (UpperBound).
  int LowerBound(const SearchKey& k, const Suffixes* sfx) const {
    int lo = 0, hi = count;
    while (lo < hi) {
      const int mid = (lo + hi) / 2;
      if (Compare(mid, k, sfx) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }
  int UpperBound(const SearchKey& k, const Suffixes* sfx) const {
    int lo = 0, hi = count;
    while (lo < hi) {
      const int mid = (lo + hi) / 2;
      if (Compare(mid, k, sfx) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // The writer-side helpers below run with the node locked (or not yet
  // published). `tree` owns the node and carves its suffix array.
  Suffixes* EnsureSuffixes(BTree* tree) {
    Suffixes* sfx = suffixes.load(std::memory_order_relaxed);
    if (sfx == nullptr) {
      sfx = new (tree->Carve(sizeof(Suffixes))) Suffixes;
      suffixes.store(sfx, std::memory_order_release);
    }
    return sfx;
  }

  void SetKey(int i, const Slice& key, BTree* tree) {
    const size_t len = key.size();
    slices[i] = SliceOf(key.data(), len);
    if (len > kSliceBytes) {
      Suffixes* sfx = EnsureSuffixes(tree);
      sfx->slices[i] = SliceOf(key.data() + kSliceBytes, len - kSliceBytes);
      if (len > 2 * kSliceBytes) {
        std::memcpy(sfx->rest[i], key.data() + 2 * kSliceBytes,
                    len - 2 * kSliceBytes);
      }
    }
    lens[i] = static_cast<uint8_t>(len);
  }

  // Copies key i into slot j of dst.
  void CopyKeyTo(int i, Node* dst, int j, BTree* tree) const {
    const size_t len = lens[i];
    dst->slices[j] = slices[i];
    if (len > kSliceBytes) {
      const Suffixes* sfx = suffixes.load(std::memory_order_relaxed);
      Suffixes* dsfx = dst->EnsureSuffixes(tree);
      dsfx->slices[j] = sfx->slices[i];
      if (len > 2 * kSliceBytes) {
        std::memcpy(dsfx->rest[j], sfx->rest[i], len - 2 * kSliceBytes);
      }
    }
    dst->lens[j] = lens[i];
  }

  // Moves the n keys starting at slot src to slot dst (ranges may overlap).
  void MoveKeys(int dst, int src, int n) {
    if (n <= 0) return;
    std::memmove(&slices[dst], &slices[src], n * sizeof slices[0]);
    std::memmove(&lens[dst], &lens[src], n);
    if (Suffixes* sfx = suffixes.load(std::memory_order_relaxed)) {
      std::memmove(&sfx->slices[dst], &sfx->slices[src],
                   n * sizeof sfx->slices[0]);
      std::memmove(sfx->rest[dst], sfx->rest[src], n * kRestBytes);
    }
  }
};

struct BTree::InnerNode : BTree::Node {
  std::atomic<Node*> children[kFanout + 1] = {};
};

struct BTree::LeafNode : BTree::Node {
  std::atomic<Oid> values[kFanout] = {};
  std::atomic<LeafNode*> next{nullptr};

  // Starts fetching the first sizeof(LeafNode) bytes of a node -- all of a
  // leaf, and an inner node's keys and first children -- so the misses of
  // the search that follows overlap instead of serializing. Harmless on a
  // pointer read from a torn node: prefetches never fault.
  static void Prefetch(const void* node) {
    const char* p = static_cast<const char*>(node);
    for (size_t off = 0; off < sizeof(LeafNode); off += kCacheLineSize) {
      __builtin_prefetch(p + off);
    }
  }
};

namespace {

uint64_t AwaitStable(const std::atomic<uint64_t>& version) {
  Backoff backoff;
  uint64_t v = version.load(std::memory_order_acquire);
  while (v & 1) {
    backoff.Pause();
    v = version.load(std::memory_order_acquire);
  }
  return v;
}

}  // namespace

uint64_t BTree::StableVersion(const void* node) {
  return AwaitStable(static_cast<const Node*>(node)->version);
}

bool BTree::Validate(const Node* node, uint64_t v) {
  return node->version.load(std::memory_order_acquire) == v;
}

bool BTree::TryLock(Node* node, uint64_t v) {
  ERMIA_DCHECK((v & 1) == 0);
  return node->version.compare_exchange_strong(v, v + 1,
                                               std::memory_order_acq_rel);
}

void BTree::Unlock(Node* node) {
  const uint64_t v = node->version.load(std::memory_order_relaxed);
  ERMIA_DCHECK(v & 1);
  node->version.store(v + 1, std::memory_order_release);
}

BTree::BTree() {
  static_assert(offsetof(Node, slices) == kCacheLineSize,
                "the node header must fit one cache line");
  Node* leaf = AllocLeaf();
  root_.store(leaf, std::memory_order_release);
}

// Nodes and suffix arrays are trivially destructible; unmapping the regions
// frees them all.
BTree::~BTree() {
  static_assert(std::is_trivially_destructible_v<InnerNode> &&
                std::is_trivially_destructible_v<LeafNode> &&
                std::is_trivially_destructible_v<Suffixes>);
  for (void* region : regions_) UnmapHugeRegion(region, kHugePageSize);
}

void* BTree::Carve(size_t bytes) {
  bytes = (bytes + kCacheLineSize - 1) & ~(kCacheLineSize - 1);
  SpinLatchGuard g(nodes_latch_);
  if (static_cast<size_t>(carve_end_ - carve_pos_) < bytes + kRedzoneBytes) {
    // The old region's remainder is abandoned (and stays poisoned).
    carve_pos_ = static_cast<char*>(MapHugeRegion(kHugePageSize));
    carve_end_ = carve_pos_ + kHugePageSize;
    ASAN_POISON_MEMORY_REGION(carve_pos_, kHugePageSize);
    regions_.push_back(carve_pos_);
  }
  void* p = carve_pos_;
  carve_pos_ += bytes + kRedzoneBytes;
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
  return p;
}

BTree::Node* BTree::AllocInner() {
  auto* n = new (Carve(sizeof(InnerNode))) InnerNode();
  n->is_leaf = false;
  return n;
}

BTree::Node* BTree::AllocLeaf() {
  auto* n = new (Carve(sizeof(LeafNode))) LeafNode();
  n->is_leaf = true;
  return n;
}

// Splits `child` (locked, full) under `parent` (locked, not full); the new
// sibling takes the keys from slot `mid` up.
void BTree::SplitChild(InnerNode* parent, int child_idx, Node* child,
                       int mid) {
  ERMIA_DCHECK(child->count == kFanout);
  ERMIA_DCHECK(parent->count < kFanout);
  ERMIA_DCHECK(mid > 0 && mid < kFanout);
  // Make room for the separator first: it is copied straight from the child.
  parent->MoveKeys(child_idx + 1, child_idx, parent->count - child_idx);
  for (int i = parent->count; i > child_idx; --i) {
    parent->children[i + 1].store(
        parent->children[i].load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  Node* sibling;
  if (child->is_leaf) {
    auto* leaf = static_cast<LeafNode*>(child);
    auto* sib = static_cast<LeafNode*>(AllocLeaf());
    for (int i = mid; i < kFanout; ++i) {
      leaf->CopyKeyTo(i, sib, i - mid, this);
      sib->values[i - mid].store(leaf->values[i].load(std::memory_order_relaxed),
                                 std::memory_order_relaxed);
    }
    sib->count = kFanout - mid;
    leaf->count = mid;
    sib->next.store(leaf->next.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    leaf->next.store(sib, std::memory_order_release);
    sib->CopyKeyTo(0, parent, child_idx, this);  // separator: sibling's first key
    sibling = sib;
  } else {
    auto* inner = static_cast<InnerNode*>(child);
    auto* sib = static_cast<InnerNode*>(AllocInner());
    // Middle key moves up; upper keys/children move to the sibling.
    inner->CopyKeyTo(mid, parent, child_idx, this);
    for (int i = mid + 1; i < kFanout; ++i) {
      inner->CopyKeyTo(i, sib, i - mid - 1, this);
    }
    for (int i = mid + 1; i <= kFanout; ++i) {
      sib->children[i - mid - 1].store(
          inner->children[i].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    sib->count = kFanout - mid - 1;
    inner->count = mid;
    sibling = sib;
  }
  parent->children[child_idx + 1].store(sibling, std::memory_order_release);
  parent->count++;
  splits_.fetch_add(1, std::memory_order_relaxed);
}

void BTree::SplitRoot() {
  SpinLatchGuard g(root_latch_);
  Node* old_root = root_.load(std::memory_order_acquire);
  const uint64_t v = AwaitStable(old_root->version);
  if (old_root->count != kFanout) return;  // someone already split it
  if (!TryLock(old_root, v)) return;       // racing writer; caller restarts
  auto* new_root = static_cast<InnerNode*>(AllocInner());
  const uint64_t nv = AwaitStable(new_root->version);
  ERMIA_CHECK(TryLock(new_root, nv));
  new_root->children[0].store(old_root, std::memory_order_relaxed);
  SplitChild(new_root, 0, old_root, kFanout / 2);
  root_.store(new_root, std::memory_order_release);
  Unlock(new_root);
  Unlock(old_root);
}

Status BTree::Insert(const Slice& key, Oid oid, NodeHandle* handle,
                     Oid* existing) {
  ERMIA_CHECK(key.size() < kMaxKeySize);  // scans need successor headroom
  const SearchKey k(key);
  Backoff backoff;
  for (;;) {
    Node* node = root_.load(std::memory_order_acquire);
    uint64_t v = AwaitStable(node->version);
    if (root_.load(std::memory_order_acquire) != node) continue;
    if (node->count == kFanout) {
      SplitRoot();
      backoff.Pause();
      continue;
    }
    bool restart = false;
    bool rightmost = true;  // on the tree's rightmost root-to-leaf path
    while (!node->is_leaf) {
      auto* inner = static_cast<InnerNode*>(node);
      const int idx =
          inner->UpperBound(k, inner->suffixes.load(std::memory_order_acquire));
      rightmost = rightmost && idx == inner->count;
      Node* child = inner->children[idx].load(std::memory_order_acquire);
      LeafNode::Prefetch(child);
      if (!Validate(node, v)) {
        restart = true;
        break;
      }
      uint64_t cv = AwaitStable(child->version);
      if (!Validate(node, v)) {
        restart = true;
        break;
      }
      if (child->count == kFanout) {
        // Proactive split so the parent always has room for the separator.
        if (!TryLock(node, v)) {
          restart = true;
          break;
        }
        if (!TryLock(child, cv)) {
          Unlock(node);
          restart = true;
          break;
        }
        // Appending past the tree's largest key (a sequential load) splits
        // off only the last slot, so the nodes it leaves behind stay full
        // rather than half empty (Masstree's sequential-insert split).
        const bool append =
            rightmost &&
            child->Compare(kFanout - 1, k,
                           child->suffixes.load(std::memory_order_relaxed)) < 0;
        SplitChild(inner, idx, child,
                   append ? kFanout - (child->is_leaf ? 1 : 2) : kFanout / 2);
        Unlock(child);
        Unlock(node);
        restart = true;  // re-descend: the key may belong in the sibling
        break;
      }
      node = child;
      v = cv;
    }
    if (restart) {
      backoff.Pause();
      continue;
    }
    auto* leaf = static_cast<LeafNode*>(node);
    const Suffixes* sfx = leaf->suffixes.load(std::memory_order_acquire);
    const int pos = leaf->LowerBound(k, sfx);
    if (pos < leaf->count && leaf->Compare(pos, k, sfx) == 0) {
      const Oid ex = leaf->values[pos].load(std::memory_order_relaxed);
      if (!Validate(node, v)) {
        backoff.Pause();
        continue;
      }
      if (existing != nullptr) *existing = ex;
      if (handle != nullptr) *handle = {leaf, v};
      return Status::KeyExists();
    }
    if (!TryLock(node, v)) {
      backoff.Pause();
      continue;
    }
    // Lock acquired at version v: contents are exactly as read above.
    leaf->MoveKeys(pos + 1, pos, leaf->count - pos);
    for (int i = leaf->count; i > pos; --i) {
      leaf->values[i].store(leaf->values[i - 1].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    leaf->SetKey(pos, key, this);
    leaf->values[pos].store(oid, std::memory_order_relaxed);
    leaf->count++;
    Unlock(node);
    if (handle != nullptr) *handle = {leaf, v + 2};
    return Status::OK();
  }
}

bool BTree::EnterRoot(Descent* d) const {
  d->node = root_.load(std::memory_order_acquire);
  d->v = AwaitStable(d->node->version);
  return root_.load(std::memory_order_acquire) == d->node;
}

void BTree::PickChild(Descent* d, const SearchKey& key) {
  auto* inner = static_cast<const InnerNode*>(d->node);
  const int idx =
      inner->UpperBound(key, inner->suffixes.load(std::memory_order_acquire));
  d->child = inner->children[idx].load(std::memory_order_acquire);
  LeafNode::Prefetch(d->child);
}

// The first validation keeps a child pointer read from a torn node from
// being dereferenced; the second proves the child was the key's child when
// its stable version was read.
bool BTree::EnterChild(Descent* d) {
  if (!Validate(d->node, d->v)) return false;
  const uint64_t cv = AwaitStable(d->child->version);
  if (!Validate(d->node, d->v)) return false;
  d->node = d->child;
  d->v = cv;
  return true;
}

bool BTree::ReadLeaf(const Descent& d, const SearchKey& key, Oid* oid,
                     bool* found) {
  auto* leaf = static_cast<const LeafNode*>(d.node);
  const Suffixes* sfx = leaf->suffixes.load(std::memory_order_acquire);
  const int pos = leaf->LowerBound(key, sfx);
  const bool hit = pos < leaf->count && leaf->Compare(pos, key, sfx) == 0;
  const Oid value = hit ? leaf->values[pos].load(std::memory_order_relaxed) : 0;
  if (!Validate(leaf, d.v)) return false;
  *found = hit;
  if (hit) *oid = value;
  return true;
}

BTree::LeafNode* BTree::DescendToLeaf(const SearchKey& key,
                                      uint64_t* leaf_version) const {
  Backoff backoff;
  for (;;) {
    Descent d;
    if (!EnterRoot(&d)) continue;
    bool entered = true;
    while (entered && !d.node->is_leaf) {
      PickChild(&d, key);
      entered = EnterChild(&d);
    }
    if (entered) {
      *leaf_version = d.v;
      return static_cast<LeafNode*>(d.node);
    }
    read_retries_.fetch_add(1, std::memory_order_relaxed);
    backoff.Pause();
  }
}

bool BTree::Lookup(const Slice& key, Oid* oid, NodeHandle* handle) const {
  const SearchKey k(key);
  Backoff backoff;
  for (;;) {
    Descent d;
    d.node = DescendToLeaf(k, &d.v);
    Oid value = 0;
    bool found;
    if (ReadLeaf(d, k, &value, &found)) {
      if (handle != nullptr) *handle = {d.node, d.v};
      if (found && oid != nullptr) *oid = value;
      return found;
    }
    read_retries_.fetch_add(1, std::memory_order_relaxed);
    backoff.Pause();
  }
}

// All keys start from one root snapshot, so they reach the leaves in the
// same number of levels; the is_leaf checks only guard against a key whose
// validation failed on the way.
void BTree::LookupBatch(const Slice* keys, size_t n, Oid* oids, bool* found,
                        NodeHandle* handles) const {
  ERMIA_CHECK(n <= kLookupGroup);
  SearchKey k[kLookupGroup];
  Descent d[kLookupGroup];
  bool live[kLookupGroup];  // still on the lockstep path
  Descent root;
  while (!EnterRoot(&root)) {
  }
  for (size_t i = 0; i < n; ++i) {
    k[i] = SearchKey(keys[i]);
    d[i] = root;
    live[i] = true;
  }
  for (bool descending = !root.node->is_leaf; descending;) {
    for (size_t i = 0; i < n; ++i) {
      if (live[i] && !d[i].node->is_leaf) PickChild(&d[i], k[i]);
    }
    descending = false;
    for (size_t i = 0; i < n; ++i) {
      if (!live[i] || d[i].node->is_leaf) continue;
      live[i] = EnterChild(&d[i]);
      descending |= live[i] && !d[i].node->is_leaf;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (live[i] && ReadLeaf(d[i], k[i], &oids[i], &found[i])) {
      handles[i] = {d[i].node, d[i].v};
      continue;
    }
    read_retries_.fetch_add(1, std::memory_order_relaxed);
    found[i] = Lookup(keys[i], &oids[i], &handles[i]);
  }
}

// The key Slice handed to the callback is valid only during the call: key
// bytes are rebuilt from the snapshot into the cursor buffer at delivery.
size_t BTree::Scan(const Slice& lo, const Slice& hi,
                   const std::function<bool(const Slice&, Oid)>& cb,
                   std::vector<NodeHandle>* handles) const {
  // The cursor is the least key not yet delivered: lo, then the successor
  // (key + '\0') of the last key delivered, so a restart resumes after it.
  char cursor_buf[kMaxKeySize + 1];
  size_t cursor_len = std::min(lo.size(), sizeof cursor_buf);
  std::memcpy(cursor_buf, lo.data(), cursor_len);
  const SearchKey hi_key(hi);

  struct Entry {
    uint64_t slice;
    uint64_t slice2;
    Oid oid;
    uint8_t len;
  };
  Entry snapshot[kFanout];
  char rest[kFanout][kRestBytes];

  size_t delivered = 0;
  Backoff backoff;

restart:
  for (;;) {
    uint64_t v;
    LeafNode* leaf =
        DescendToLeaf(SearchKey(Slice(cursor_buf, cursor_len)), &v);
    for (;;) {
      // Snapshot [cursor, hi] of the leaf, validate, then deliver from the
      // snapshot. Keys ascend along the leaf chain, so hi can only end the
      // scan in a leaf whose last key is past it.
      const Suffixes* sfx = leaf->suffixes.load(std::memory_order_acquire);
      const int count = leaf->count;
      int end = count;
      bool exhausted = false;
      if (!hi.empty() && count > 0 && leaf->Compare(count - 1, hi_key, sfx) > 0) {
        end = leaf->UpperBound(hi_key, sfx);
        exhausted = true;
      }
      int n = 0;
      for (int i = leaf->LowerBound(SearchKey(Slice(cursor_buf, cursor_len)),
                                    sfx);
           i < end; ++i, ++n) {
        const uint8_t len = leaf->lens[i];
        snapshot[n] = {leaf->slices[i], 0,
                       leaf->values[i].load(std::memory_order_relaxed), len};
        if (len > kSliceBytes && sfx != nullptr) {
          snapshot[n].slice2 = sfx->slices[i];
          if (len > 2 * kSliceBytes) {
            std::memcpy(rest[n], sfx->rest[i], len - 2 * kSliceBytes);
          }
        }
      }
      LeafNode* next = leaf->next.load(std::memory_order_acquire);
      if (next != nullptr && !exhausted) LeafNode::Prefetch(next);
      if (!Validate(leaf, v)) {
        read_retries_.fetch_add(1, std::memory_order_relaxed);
        backoff.Pause();
        goto restart;
      }
      if (handles != nullptr) handles->push_back({leaf, v});
      for (int i = 0; i < n; ++i) {
        // Advance the cursor past this key before delivering so a restart
        // resumes correctly even if the callback has side effects.
        const size_t len = snapshot[i].len;
        StoreSlice(snapshot[i].slice, cursor_buf);
        if (len > kSliceBytes) {
          StoreSlice(snapshot[i].slice2, cursor_buf + kSliceBytes);
          if (len > 2 * kSliceBytes) {
            std::memcpy(cursor_buf + 2 * kSliceBytes, rest[i],
                        len - 2 * kSliceBytes);
          }
        }
        cursor_buf[len] = '\0';
        cursor_len = len + 1;
        ++delivered;
        if (!cb(Slice(cursor_buf, len), snapshot[i].oid)) return delivered;
      }
      if (exhausted || next == nullptr) return delivered;
      const uint64_t nv = AwaitStable(next->version);
      leaf = next;
      v = nv;
    }
  }
}

size_t BTree::ScanReverse(const Slice& lo, const Slice& hi,
                          const std::function<bool(const Slice&, Oid)>& cb,
                          std::vector<NodeHandle>* handles) const {
  // Collect ascending, deliver descending. Adequate for the bounded ranges
  // the workloads use (e.g., latest-order-of-customer with a small history).
  struct Entry {
    Varstr key;
    Oid oid;
  };
  std::vector<Entry> entries;
  Scan(
      lo, hi,
      [&](const Slice& k, Oid o) {
        entries.push_back({Varstr(k), o});
        return true;
      },
      handles);
  size_t delivered = 0;
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    ++delivered;
    if (!cb(it->key.slice(), it->oid)) break;
  }
  return delivered;
}

Status BTree::Remove(const Slice& key) {
  const SearchKey k(key);
  Backoff backoff;
  for (;;) {
    uint64_t v;
    LeafNode* leaf = DescendToLeaf(k, &v);
    const Suffixes* sfx = leaf->suffixes.load(std::memory_order_acquire);
    const int pos = leaf->LowerBound(k, sfx);
    const bool found = pos < leaf->count && leaf->Compare(pos, k, sfx) == 0;
    if (!found) {
      if (!Validate(leaf, v)) {
        backoff.Pause();
        continue;
      }
      return Status::NotFound();
    }
    if (!TryLock(leaf, v)) {
      backoff.Pause();
      continue;
    }
    leaf->MoveKeys(pos, pos + 1, leaf->count - pos - 1);
    for (int i = pos; i < leaf->count - 1; ++i) {
      leaf->values[i].store(leaf->values[i + 1].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    leaf->count--;
    Unlock(leaf);
    return Status::OK();
  }
}

size_t BTree::Size() const {
  size_t n = 0;
  Scan(
      Slice(), Slice(),
      [&](const Slice&, Oid) {
        ++n;
        return true;
      },
      nullptr);
  return n;
}

}  // namespace ermia
