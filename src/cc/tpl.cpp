// Two-phase locking baseline (extension; see cc/lock_manager.h). Readers
// take shared record locks and read the newest committed version; writers
// take exclusive locks and install versions eagerly (the multi-version
// storage is used single-version-style: everyone reads the head). Strict
// 2PL: all locks are held to commit/abort. Deadlocks are avoided by bounded
// waiting — a lock that cannot be acquired aborts the transaction.
#include <algorithm>

#include "common/profiling.h"
#include "engine/database.h"
#include "trace/trace.h"
#include "txn/transaction.h"

namespace ermia {

namespace {
uint64_t LockKey(Fid fid, Oid oid) {
  return static_cast<uint64_t>(fid) << 32 | oid;
}
}  // namespace

Status Transaction::TplAcquire(Table* table, Oid oid, bool exclusive) {
  const uint64_t key = LockKey(table->fid(), oid);
  // held_locks_ is a flat vector kept sorted by key: transactions hold few
  // locks, so binary search + positional insert beats a hash map (no per-txn
  // rehash/node allocations, and the pooled storage recycles wholesale).
  auto it = std::lower_bound(
      held_locks_.begin(), held_locks_.end(), key,
      [](const TplLockEntry& e, uint64_t k) { return e.key < k; });
  RecordLockTable& locks = db_->lock_table();
  if (it != held_locks_.end() && it->key == key) {
    if (!exclusive || it->exclusive) return Status::OK();  // already sufficient
    if (!locks.TryUpgrade(table->fid(), oid)) {
      MarkAbort(metrics::AbortReason::kTplNoWait);
      return Status::Conflict("2pl upgrade timeout");
    }
    it->exclusive = true;
    return Status::OK();
  }
  const auto mode = exclusive ? RecordLockTable::Mode::kExclusive
                              : RecordLockTable::Mode::kShared;
  if (!locks.TryAcquire(table->fid(), oid, mode)) {
    MarkAbort(metrics::AbortReason::kTplNoWait);
    return Status::Conflict("2pl lock timeout");
  }
  held_locks_.insert(it, TplLockEntry{key, exclusive});
  return Status::OK();
}

void Transaction::TplReleaseAll() {
  RecordLockTable& locks = db_->lock_table();
  for (const TplLockEntry& e : held_locks_) {
    locks.Release(static_cast<Fid>(e.key >> 32), static_cast<Oid>(e.key),
                  e.exclusive ? RecordLockTable::Mode::kExclusive
                              : RecordLockTable::Mode::kShared);
  }
  held_locks_.clear();
}

Status Transaction::TplRead(Table* table, Oid oid, Slice* value) {
  ERMIA_RETURN_NOT_OK(TplAcquire(table, oid, /*exclusive=*/false));
  Version* v;
  {
    ERMIA_PROF_INDIRECTION();
    v = OccLatestCommitted(table->array().Head(oid));
  }
  if (v == nullptr || v->tombstone) return Status::NotFound();
  *value = v->value();
  return Status::OK();
}

Status Transaction::TplUpdate(Table* table, Oid oid, const Slice& value,
                              bool tombstone) {
  ERMIA_RETURN_NOT_OK(TplAcquire(table, oid, /*exclusive=*/true));
  std::atomic<Version*>* slot = table->array().Slot(oid);
  Version* head = slot->load(std::memory_order_acquire);
  // With the exclusive lock held no other 2PL transaction can touch this
  // record; a TID-stamped head can only be our own prior write.
  Version* prev = OccLatestCommitted(head);
  Version* nv = Version::Alloc(value, tombstone);
  nv->clsn.store(MakeTidStamp(tid_), std::memory_order_relaxed);
  nv->next.store(head, std::memory_order_relaxed);
  {
    ERMIA_PROF_INDIRECTION();
    if (!table->array().CasHead(oid, head, nv)) {
      // Racing non-2PL transaction (mixed-scheme use); treat as conflict.
      Version::Free(nv);
      MarkAbort(metrics::AbortReason::kTplNoWait);
      return Status::Conflict("2pl install race");
    }
  }
  uint32_t payload_off = 0;
  const LogRecordType type =
      tombstone ? LogRecordType::kDelete : LogRecordType::kUpdate;
  ERMIA_RETURN_NOT_OK(
      StageRecord(type, table->fid(), oid, Slice(), value, &payload_off));
  write_set_.push_back({table, oid, nv, prev, slot, /*is_insert=*/false,
                        /*installed=*/true, payload_off});
  return Status::OK();
}

Status Transaction::TplCertify() {
  // Phantom protection via node-set validation, as in OCC/SSN (key-range
  // locking would be the classic alternative; the paper names both, §3.6.2).
  // Under strict 2PL this validation is the whole certification phase, for
  // writers and writer-free transactions alike: record locks cannot stop an
  // insert into a range the transaction found empty.
  if (ERMIA_UNLIKELY(traced_)) {
    trace::Emit(trace::Event::kCertifyBegin, tid_, 0, 0);
  }
  Status ns = NodeSetValidate();
  if (ERMIA_UNLIKELY(traced_)) {
    trace::Emit(trace::Event::kCertifyEnd, tid_, ns.ok() ? 1 : 0, 0);
  }
  if (!ns.ok()) {
    MarkAbort(metrics::AbortReason::kPhantom);
    Abort();
  }
  return ns;
}

Status Transaction::TplCommit() {
  ERMIA_RETURN_NOT_OK(TplCertify());
  const Lsn clsn = ClaimCommitStamp();
  InstallCommitBlock(clsn);
  ctx_->StoreState(TxnState::kCommitted);
  PostCommit(clsn);
  Status ds = Status::OK();
  if (db_->config().synchronous_commit) {
    ds = WaitCommitDurable(clsn.offset() + BlockSizeForStaging());
  }
  TplReleaseAll();
  Finish(true);
  return ds;
}

}  // namespace ermia
