// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Transactions (paper §3.1, Fig. 3). A Transaction joins the epoch-based
// resource managers, claims a TID-table context and a begin timestamp, stages
// its log records privately during forward processing, and commits with a
// single fetch_add on the global log offset followed by the CC scheme's
// pre-commit protocol and an asynchronous post-commit that replaces TID
// stamps with the commit LSN.
//
// Three CC schemes share this object (§3.6 and the evaluation's baseline):
//   kSi    — snapshot isolation, first-updater-wins.
//   kSiSsn — SI + the Serial Safety Net certifier (serializable).
//   kOcc   — Silo-style lightweight OCC: writes are buffered as intents,
//            installed at commit (the CAS acts as the write lock), and the
//            read set is validated after the commit stamp is taken. Read-only
//            transactions run against a periodically refreshed snapshot.
#ifndef ERMIA_TXN_TRANSACTION_H_
#define ERMIA_TXN_TRANSACTION_H_

#include <functional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "index/btree.h"
#include "log/lsn.h"
#include "metrics/metrics.h"
#include "storage/table.h"
#include "txn/tid_manager.h"
#include "txn/txn_resources.h"

namespace ermia {

class Database;

enum class CcScheme {
  kSi = 0,
  kSiSsn = 1,
  kOcc = 2,
  // Extension (not in the paper's evaluation): classic two-phase locking on
  // the same physical layer — the pessimistic baseline §2 discusses via
  // Agrawal/Carey/Livny. Bounded-wait no-wait deadlock handling.
  k2pl = 3,
};

const char* CcSchemeName(CcScheme scheme);

class Transaction {
 public:
  // Starts a transaction immediately. `read_only` is a declaration: such
  // transactions may not write; under OCC they read from the read-only
  // snapshot (Silo's snapshot mechanism) and never abort.
  Transaction(Database* db, CcScheme scheme, bool read_only = false);
  ~Transaction();
  ERMIA_NO_COPY(Transaction);

  // ---- data operations -----------------------------------------------------

  // Reads the record's visible version; *value aliases version memory that
  // stays valid until the transaction finishes (epoch-pinned).
  Status Read(Table* table, Oid oid, Slice* value);

  // Installs a new version (SI/SSN) or buffers a write intent (OCC).
  Status Update(Table* table, Oid oid, const Slice& value);

  // Creates a record and its primary index entry. If the key maps to a
  // visibly deleted record, the OID is reused (tombstone overwrite).
  Status Insert(Table* table, Index* primary, const Slice& key,
                const Slice& value, Oid* oid);

  // Marks the record deleted (tombstone version; index entries remain and
  // readers observe NotFound).
  Status Delete(Table* table, Oid oid);

  // Adds a secondary index entry for an OID this transaction inserted.
  Status InsertIndexEntry(Index* index, const Slice& key, Oid oid);

  // ---- index operations ----------------------------------------------------

  // Key lookup; registers the consulted leaf in the node set (phantom
  // protection) under OCC/SSN. NotFound covers both absent keys and records
  // invisible to this snapshot.
  Status GetOid(Index* index, const Slice& key, Oid* oid);

  // Lookup + Read convenience: MultiGet of one key.
  Status Get(Index* index, const Slice& key, Slice* value);

  // Batched Get. statuses[i] and values[i] are what Get would return for
  // keys[i], called on each key in order. The batch stops at the first
  // status that is neither OK nor NotFound and returns it; the keys after
  // that one are not read and their statuses are not set. Returns OK when
  // every key was read. The index walk and the indirection and version
  // loads of all keys overlap their cache misses before the per-key reads
  // run (docs/INTERNALS.md, "The life of a transaction").
  Status MultiGet(Index* index, const Slice* keys, size_t n, Slice* values,
                  Status* statuses);

  // Ordered scan over [lo, hi] (inclusive; empty hi = open-ended) delivering
  // only versions visible to this transaction. The callback returns false to
  // stop. `limit` < 0 means unlimited. Set `reverse` for descending order.
  Status Scan(Index* index, const Slice& lo, const Slice& hi, int64_t limit,
              const std::function<bool(const Slice& key, const Slice& value)>& cb,
              bool reverse = false);

  // Like Scan but delivers OIDs of visible records (callers needing to
  // update records they scan).
  Status ScanOids(Index* index, const Slice& lo, const Slice& hi, int64_t limit,
                  const std::function<bool(const Slice& key, Oid oid)>& cb,
                  bool reverse = false);

  // ---- lifecycle -----------------------------------------------------------

  // Runs the CC scheme's pre-commit, publishes the log block, post-commits.
  // On a non-OK return the transaction has already been aborted.
  Status Commit();

  // Rolls back: unlinks installed versions, removes inserted index entries,
  // converts any log reservation into a skip block.
  void Abort();

  uint64_t tid() const { return tid_; }
  uint64_t begin_offset() const { return begin_; }
  bool read_only() const { return read_only_; }
  // Whether this transaction runs against the safe snapshot (declared
  // read-only SiSsn with EngineConfig::ssn_safe_snapshot): zero read
  // tracking, trivial commit, can never abort (cc/safe_snapshot.h).
  bool ssn_safe_snapshot() const { return ssn_safesnap_; }
  // Whether the flight recorder sampled this transaction (trace/trace.h).
  bool traced() const { return traced_; }
  CcScheme scheme() const { return scheme_; }
  bool finished() const { return finished_; }
  // Why this transaction aborted (meaningful once finished unsuccessfully).
  metrics::AbortReason abort_reason() const { return abort_reason_; }

 private:
  // Attributes the abort to its root cause. First mark wins: CC failure
  // sites call this before unwinding, so the cleanup path's generic Abort()
  // doesn't overwrite the specific reason. Finish(false) counts it exactly
  // once, which keeps per-reason counters summing to total aborts.
  void MarkAbort(metrics::AbortReason reason) {
    if (!abort_marked_) {
      abort_reason_ = reason;
      abort_marked_ = true;
    }
  }
  // Entry types live at namespace scope (txn/txn_resources.h) so the pooled
  // TxnResources can own the containers; the aliases keep the historical
  // Transaction::WriteSetEntry spelling working.
  using ReadSetEntry = ::ermia::ReadSetEntry;
  using WriteSetEntry = ::ermia::WriteSetEntry;
  using IndexInsertEntry = ::ermia::IndexInsertEntry;

  // ---- shared helpers (transaction.cpp) ----
  Status StageRecord(LogRecordType type, Fid fid, Oid oid, const Slice& key,
                     const Slice& value, uint32_t* payload_off);
  Status FlushStagingAsBlock();  // per-operation logging mode (Fig. 10)
  uint32_t BlockSizeForStaging() const;
  // Writes the staged records as one checksummed block into space reserved
  // at `lsn` (shared by commit and per-operation logging).
  void InstallStagedBlock(Lsn lsn);
  // Single fetch_add: claims the commit stamp and the log space (§3.3).
  Lsn ReserveCommitBlock();
  // SI/OCC/2PL pre-commit: publishes kCommitting with the pending sentinel,
  // then reserves the commit block and publishes its stamp (SsnCommit
  // follows the same order inline).
  Lsn ClaimCommitStamp();
  // Serializes staged records into the reserved space and fixes durable
  // addresses (log_ptr) on the new versions.
  void InstallCommitBlock(Lsn lsn);
  void PostCommit(Lsn clsn);
  void Finish(bool committed);
  // Synchronous-commit group-commit wait, bracketed with the trace's
  // kLogFlushWaitBegin/End span when this transaction is traced. Returns
  // LogUnavailable if the log degraded before the commit block became
  // durable: the commit is already visible (versions carry the commit LSN)
  // but was never acknowledged as durable, and the caller must not treat it
  // as surviving a crash.
  Status WaitCommitDurable(uint64_t target_offset);
  // Admission check for write operations: a stalled or poisoned log rejects
  // them with LogUnavailable before any version is installed.
  Status CheckWriteAdmission();
  void RegisterNode(const NodeHandle& handle);
  bool NeedsNodeSet() const {
    return scheme_ != CcScheme::kSi && !read_only_;
  }
  Status NodeSetValidate() const;  // cc/node_set.cpp
  WriteSetEntry* FindOwnWrite(Table* table, Oid oid);

  // Shared body of Scan and ScanOids: walks the index, reads each OID and
  // hands (key, oid, value) of visible records to `cb`.
  template <typename Cb>
  Status ScanVisible(Index* index, const Slice& lo, const Slice& hi,
                     int64_t limit, const Cb& cb, bool reverse);

  // ---- SI (cc/si.cpp) ----
  // Returns the version of `oid` visible at `begin_`, waiting out committing
  // owners with earlier commit stamps. nullptr if none.
  Version* SiVisibleVersion(Table* table, Oid oid);
  Status SiRead(Table* table, Oid oid, Slice* value);
  Status SiUpdate(Table* table, Oid oid, const Slice& value, bool tombstone);
  Status SiCommit();

  // ---- SSN (cc/ssn.cpp) ----
  void SsnOnRead(Version* version);
  // Read-opt exemption (cc/safe_snapshot.h): `version` committed below the
  // safe-snapshot LSN, so its overwriter's stamps are final or will be
  // resolved at commit — fold what is already final into the local stamps
  // and skip the reader-bitmap advertisement entirely. Versions whose
  // overwriter is still in flight go to read_opt_set_ for commit-time
  // resolution.
  void SsnOnReadExempt(Version* version);
  Status SsnOnUpdate(Version* prev);
  Status SsnCommit();
  bool SsnExclusionViolated() const;
  // Parallel-commit pieces (Algorithm 1, latch-free; see docs/INTERNALS.md):
  // π(T): own cstamp and the final sstamps of committed overwriters of
  // everything T read, waiting out conflicting in-flight overwriters that
  // are ordered before T.
  uint64_t SsnFinalizeSstamp(uint64_t cstamp);
  // η(T): committed readers of everything T overwrote, resolved through the
  // per-version readers bitmap + reader registry + TID table.
  uint64_t SsnFinalizePstamp(uint64_t cstamp);
  // Publishes η(V) to read versions and π(T) to overwritten versions; must
  // precede the kCommitted state store so waiters observe final stamps.
  void SsnPublishStamps(uint64_t cstamp, uint64_t pstamp, uint64_t sstamp);
  // Claims/returns the SSN reader slot; bits are set in SsnOnRead and cleared
  // (with the slot) in Finish via SsnReleaseReads.
  void SsnEnsureReaderSlot();
  void SsnReleaseReads();
  // Abort path: rolls in-flight overwrite advertisements (TID-valued commit
  // words on overwritten versions) back to kInfinityStamp.
  void SsnResetOverwriteMarks();

  // ---- 2PL (cc/tpl.cpp) ----
  Status TplAcquire(Table* table, Oid oid, bool exclusive);
  Status TplRead(Table* table, Oid oid, Slice* value);
  Status TplUpdate(Table* table, Oid oid, const Slice& value, bool tombstone);
  Status TplCommit();
  void TplReleaseAll();

  // ---- OCC (cc/occ.cpp) ----
  Version* OccLatestCommitted(Version* head);
  Status OccRead(Table* table, Oid oid, Slice* value);
  Status OccUpdate(Table* table, Oid oid, const Slice& value, bool tombstone);
  Status OccCommit();
  Status OccReadOnlyCommit();
  // Commit-time check of the whole read set (both commit paths).
  bool OccReadSetValid() const;

  Database* db_;
  CcScheme scheme_;
  bool read_only_;
  bool finished_ = false;
  bool in_epoch_ = false;
  // Overload governor (engine/governor.h): true while this transaction holds
  // an admitted-writer slot that Finish must return.
  bool gov_slot_ = false;

  TxnContext* ctx_ = nullptr;
  uint64_t tid_ = 0;
  uint64_t begin_ = 0;  // begin timestamp (log offset)
  metrics::AbortReason abort_reason_ = metrics::AbortReason::kExplicit;
  bool abort_marked_ = false;
  // Safe-snapshot mode (see ssn_safe_snapshot() above).
  bool ssn_safesnap_ = false;
  // Flight recorder: sampling decision made once at begin; every per-op
  // emit hides behind this bool, so untraced transactions pay one
  // predictable branch per operation.
  bool traced_ = false;
  uint64_t trace_begin_tsc_ = 0;
  // SSN reader-registry slot (kNoSlot until the first tracked read).
  uint32_t ssn_reader_slot_ = UINT32_MAX;

  // Pooled container bundle (txn/txn_resources.h): acquired at begin,
  // returned (cleared, capacity retained) by Finish. The reference members
  // below bind into it so the CC code reads exactly as before; they dangle
  // once Finish releases res_, but by then the transaction is finished and
  // nothing touches them. Declared before the references (initialization
  // order).
  bool res_pool_hit_ = false;
  TxnResources* res_;

  std::vector<ReadSetEntry>& read_set_;
  std::vector<WriteSetEntry>& write_set_;
  std::vector<NodeHandle>& node_set_;
  std::vector<IndexInsertEntry>& index_inserts_;

  // 2PL: locks held, sorted by (fid << 32 | oid) for binary search
  // (cc/tpl.cpp).
  std::vector<TplLockEntry>& held_locks_;

  // SSN read-opt: exempt reads whose overwriter was still in flight at read
  // time (no bitmap bit, no ReadSetEntry; resolved again at commit).
  std::vector<Version*>& read_opt_set_;

  // Private log staging buffer: record headers + keys + payloads,
  // concatenated in operation order (paper: "accumulate descriptors in the
  // private log buffer to avoid log buffer contention").
  std::vector<char>& staging_;
  uint32_t staged_records_ = 0;
};

}  // namespace ermia

#endif  // ERMIA_TXN_TRANSACTION_H_
