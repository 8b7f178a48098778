// Silo-style lightweight OCC baseline (paper §4 comparator), re-implemented
// on ERMIA's physical layer so the CC scheme is the only variable:
//  * reads take no locks and record the observed version;
//  * writes are buffered privately and installed at commit, where the
//    install CAS doubles as a no-wait write lock;
//  * the read set is validated after the commit stamp is taken — a committed
//    overwrite or a concurrent locker aborts the reader (writer-wins);
//  * declared read-only transactions read a periodically refreshed snapshot
//    and never abort (Silo's read-only snapshots).
#include "common/profiling.h"
#include "engine/database.h"
#include "trace/trace.h"
#include "txn/transaction.h"

namespace ermia {

// Latest committed version in the chain (skipping in-flight TID-stamped heads
// of other transactions, and treating our own installed versions as visible).
Version* Transaction::OccLatestCommitted(Version* head) {
  Version* v = head;
  while (v != nullptr) {
    const uint64_t s = v->clsn.load(std::memory_order_acquire);
    if (!IsTidStamp(s)) return v;
    if (TidFromStamp(s) == tid_) return v;  // own insert/installed write
    v = v->next.load(std::memory_order_acquire);
  }
  return nullptr;
}

Status Transaction::OccRead(Table* table, Oid oid, Slice* value) {
  // Own buffered intent wins (Silo reads its own write set).
  if (WriteSetEntry* own = FindOwnWrite(table, oid)) {
    if (own->version->tombstone) return Status::NotFound();
    *value = own->version->value();
    return Status::OK();
  }
  std::atomic<Version*>* slot;
  Version* v;
  {
    ERMIA_PROF_INDIRECTION();
    slot = table->array().Slot(oid);
    v = OccLatestCommitted(slot->load(std::memory_order_acquire));
  }
  if (v == nullptr) {
    // Absence is validated too (OccReadSetValid), so an Insert() that found
    // a racer's in-flight entry cannot overwrite the record the racer
    // commits meanwhile and commit a second insert of the same key.
    read_set_.push_back({nullptr, slot});
    return Status::NotFound();
  }
  read_set_.push_back({v, slot});
  if (v->tombstone) return Status::NotFound();
  *value = v->value();
  return Status::OK();
}

Status Transaction::OccUpdate(Table* table, Oid oid, const Slice& value,
                              bool tombstone) {
  std::atomic<Version*>* slot;
  {
    ERMIA_PROF_INDIRECTION();
    slot = table->array().Slot(oid);
  }
  // Re-update of something we already wrote: replace the intent in place
  // (or chain on top of our installed insert).
  if (WriteSetEntry* own = FindOwnWrite(table, oid)) {
    Version* nv = Version::Alloc(value, tombstone);
    nv->clsn.store(MakeTidStamp(tid_), std::memory_order_relaxed);
    uint32_t payload_off = 0;
    const LogRecordType type =
        tombstone ? LogRecordType::kDelete : LogRecordType::kUpdate;
    ERMIA_RETURN_NOT_OK(
        StageRecord(type, table->fid(), oid, Slice(), value, &payload_off));
    if (own->installed) {
      // Chain on top of our installed version (insert or prior install).
      nv->next.store(own->version, std::memory_order_relaxed);
      ERMIA_CHECK(table->array().CasHead(oid, own->version, nv));
      write_set_.push_back({table, oid, nv, own->version, slot,
                            /*is_insert=*/false, /*installed=*/true,
                            payload_off});
    } else {
      Version::Free(own->version);
      own->version = nv;
      own->staging_payload_off = payload_off;
      nv->next.store(own->prev, std::memory_order_relaxed);
    }
    return Status::OK();
  }
  // Fresh intent against the latest committed version. Deferred install:
  // conflicts surface at commit (the lazy coordination the paper critiques).
  Version* prev = OccLatestCommitted(slot->load(std::memory_order_acquire));
  Version* nv = Version::Alloc(value, tombstone);
  nv->clsn.store(MakeTidStamp(tid_), std::memory_order_relaxed);
  nv->next.store(prev, std::memory_order_relaxed);
  uint32_t payload_off = 0;
  const LogRecordType type =
      tombstone ? LogRecordType::kDelete : LogRecordType::kUpdate;
  ERMIA_RETURN_NOT_OK(
      StageRecord(type, table->fid(), oid, Slice(), value, &payload_off));
  write_set_.push_back({table, oid, nv, prev, slot, /*is_insert=*/false,
                        /*installed=*/false, payload_off});
  return Status::OK();
}

// A read is valid if its slot still leads to the observed version through
// nothing but our own installs; a foreign in-flight intent on top counts as
// a conflict (writer-wins). An absent read (no committed version observed)
// may also pass foreign versions whose owners are still active or aborted:
// an owner we see active claims its commit stamp after ours
// (ClaimCommitStamp orders kCommitting before the claim), so it serializes
// after us. Any committed or committing version invalidates it.
bool Transaction::OccReadSetValid() const {
  for (const auto& r : read_set_) {
    Version* v = r.slot->load(std::memory_order_acquire);
    while (v != nullptr && v != r.version) {
      const uint64_t s = v->clsn.load(std::memory_order_acquire);
      if (!IsTidStamp(s)) break;
      const uint64_t owner = TidFromStamp(s);
      if (owner != tid_) {
        if (r.version != nullptr) break;
        uint64_t cstamp = 0;
        const auto outcome = db_->tids().Inquire(owner, &cstamp);
        if (outcome == TidManager::Outcome::kStale) continue;  // re-read
        if (outcome == TidManager::Outcome::kCommitted ||
            (outcome == TidManager::Outcome::kInFlight && cstamp != 0)) {
          break;
        }
      }
      v = v->next.load(std::memory_order_acquire);
    }
    if (v != r.version) return false;
  }
  return true;
}

// Commit path for an OCC transaction that read but staged no writes. Silo's
// serializability argument hinges on commit-time read validation: each read
// observed "latest committed" at its own instant, and validation proves the
// whole set still holds at one instant (the serialization point). The
// generic reader-only fast path in Transaction::Commit() must therefore not
// apply here — a descheduled reader could otherwise commit a multi-time
// (inconsistent) view it assembled across many foreign commits. No commit
// stamp or log block is needed: the transaction publishes nothing.
Status Transaction::OccReadOnlyCommit() {
  ctx_->StoreState(TxnState::kCommitting);
  if (ERMIA_UNLIKELY(traced_)) {
    trace::Emit(trace::Event::kCertifyBegin, tid_, 0, 0);
  }
  // Same validation as OccCommit phase 2. With an empty write set there are
  // no own installs to skip, so this degenerates to "the observed version is
  // still the head".
  Status failure;
  if (!OccReadSetValid()) {
    MarkAbort(metrics::AbortReason::kOccReadValidation);
    failure = Status::Aborted("occ read validation");
  } else {
    Status ns = NodeSetValidate();
    if (!ns.ok()) {
      MarkAbort(metrics::AbortReason::kPhantom);
      failure = ns;
    }
  }
  if (ERMIA_UNLIKELY(traced_)) {
    trace::Emit(trace::Event::kCertifyEnd, tid_, failure.ok() ? 1 : 0, 0);
  }
  if (!failure.ok()) {
    Abort();
    return failure;
  }
  ctx_->StoreState(TxnState::kCommitted);
  Finish(true);
  return Status::OK();
}

Status Transaction::OccCommit() {
  // Phase 1: install write intents. The CAS succeeds only if the head is
  // still the version the intent was built against — it is simultaneously
  // the write lock and the write-write validation. On failure, Abort()
  // unlinks whatever was installed (it distinguishes installed versions from
  // never-published intents by inspecting the slots).
  for (auto& w : write_set_) {
    if (w.installed) continue;  // inserts and own-chained updates
    if (!w.table->array().CasHead(w.oid, w.prev, w.version)) {
      MarkAbort(metrics::AbortReason::kOccWriteWrite);
      Abort();
      return Status::Conflict("occ write-write (install)");
    }
    w.installed = true;
  }

  // Commit stamp: one fetch_add, as in ERMIA proper. (Silo uses epoch-based
  // TIDs; a totally ordered stamp only strengthens the baseline.)
  const Lsn clsn = ClaimCommitStamp();
  if (ERMIA_UNLIKELY(traced_)) {
    trace::Emit(trace::Event::kCertifyBegin, tid_, 0, 0);
  }

  // Phase 2: validate the read set.
  Status failure;
  if (!OccReadSetValid()) {
    MarkAbort(metrics::AbortReason::kOccReadValidation);
    failure = Status::Aborted("occ read validation");
  } else {
    Status ns = NodeSetValidate();
    if (!ns.ok()) {
      MarkAbort(metrics::AbortReason::kPhantom);
      failure = ns;
    }
  }
  if (ERMIA_UNLIKELY(traced_)) {
    trace::Emit(trace::Event::kCertifyEnd, tid_, failure.ok() ? 1 : 0, 0);
  }
  if (!failure.ok()) {
    db_->log().InstallSkip(clsn, BlockSizeForStaging());
    Abort();
    return failure;
  }

  InstallCommitBlock(clsn);
  ctx_->StoreState(TxnState::kCommitted);
  PostCommit(clsn);
  Status ds = Status::OK();
  if (db_->config().synchronous_commit) {
    ds = WaitCommitDurable(clsn.offset() + BlockSizeForStaging());
  }
  Finish(true);
  return ds;
}

}  // namespace ermia
