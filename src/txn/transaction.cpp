#include "txn/transaction.h"

#include <algorithm>
#include <cstring>

#include "common/profiling.h"
#include "engine/database.h"
#include "engine/governor.h"
#include "trace/trace.h"

namespace ermia {

const char* CcSchemeName(CcScheme scheme) {
  switch (scheme) {
    case CcScheme::kSi:
      return "ERMIA-SI";
    case CcScheme::kSiSsn:
      return "ERMIA-SSN";
    case CcScheme::kOcc:
      return "Silo-OCC";
    case CcScheme::k2pl:
      return "ERMIA-2PL";
  }
  return "?";
}

Transaction::Transaction(Database* db, CcScheme scheme, bool read_only)
    : db_(db),
      scheme_(scheme),
      read_only_(read_only),
      res_(TxnResourcePool::Acquire(&res_pool_hit_)),
      read_set_(res_->read_set),
      write_set_(res_->write_set),
      node_set_(res_->node_set),
      index_inserts_(res_->index_inserts),
      held_locks_(res_->held_locks),
      read_opt_set_(res_->read_opt_set),
      staging_(res_->staging) {
  db_->metrics().Inc(res_pool_hit_ ? metrics::Ctr::kTxnResPoolHits
                                   : metrics::Ctr::kTxnResPoolMisses);
  // Overload governor: writers take an admission slot BEFORE entering the
  // gc epoch, so a transaction parked at the gate cannot hold up version
  // reclamation. The gate fails open after bounded rounds (no livelock).
  if (ERMIA_UNLIKELY(db_->governor() != nullptr) && !read_only) {
    db_->governor()->AdmitWriter();
    gov_slot_ = true;
  }
  {
    ERMIA_PROF_EPOCH();
    db_->gc_epoch().Enter();
    in_epoch_ = true;
  }
  // OCC read-only transactions run against the read-only snapshot (Silo's
  // copy-on-write snapshots, modeled as a lagging snapshot LSN); declared
  // read-only SSN transactions under ssn_safe_snapshot begin at the safe
  // LSN (every stamp below it is final and no backward rw edge crosses it,
  // so they serialize there with zero tracking — cc/safe_snapshot.h);
  // everyone else snapshots the current log tail.
  if (scheme == CcScheme::kOcc && read_only) {
    begin_ = db_->occ_snapshot_offset();
  } else if (scheme == CcScheme::kSiSsn && read_only &&
             db_->config().ssn_safe_snapshot) {
    ssn_safesnap_ = true;
    begin_ = db_->safe_snapshot_offset();
    db_->metrics().Inc(metrics::Ctr::kSsnSafesnapTxns);
  } else {
    begin_ = db_->log().CurrentOffset();
  }
  ctx_ = db_->tids().Begin(begin_, &tid_);
  if (scheme == CcScheme::kOcc && read_only) {
    // The snapshot may be older than a bound the GC has already trimmed
    // below. Registration, then a seq_cst fence, then the bound: a GC pass
    // whose TID-table scan missed this transaction published its bound
    // first, so it is seen here. The snapshot moves up to it.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const uint64_t trimmed = db_->gc_trim_bound();
    if (trimmed > begin_) {
      begin_ = trimmed;
      ctx_->begin.store(begin_, std::memory_order_release);
    }
  }
  if (ERMIA_UNLIKELY(trace::SampleTxn())) {
    traced_ = true;
    trace_begin_tsc_ = prof::Cycles();
    trace::Emit(trace::Event::kTxnBegin, tid_,
                static_cast<uint64_t>(scheme_), read_only_ ? 1 : 0);
  }
}

Transaction::~Transaction() {
  if (!finished_) Abort();
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

Status Transaction::Read(Table* table, Oid oid, Slice* value) {
  ERMIA_DCHECK(!finished_);
  Status s;
  if (scheme_ == CcScheme::kOcc && !read_only_) {
    s = OccRead(table, oid, value);
  } else if (scheme_ == CcScheme::k2pl) {
    s = TplRead(table, oid, value);
  } else {
    s = SiRead(table, oid, value);
  }
  if (s.ok()) {
    db_->metrics().Inc(metrics::Ctr::kTxnReads);
    if (ERMIA_UNLIKELY(traced_)) {
      trace::Emit(trace::Event::kTxnRead, tid_, table->fid(), oid);
    }
  }
  return s;
}

// First write of a degraded-log transaction fails here, before any version
// is installed or log space reserved, so the caller can abort cleanly (or
// park and retry via txn/retry_policy.h). Reads never consult this gate.
Status Transaction::CheckWriteAdmission() {
  if (ERMIA_LIKELY(db_->log().WritesAllowed())) return Status::OK();
  db_->metrics().Inc(metrics::Ctr::kLogWriterRejects);
  return Status::LogUnavailable(
      std::string("log ") + LogHealthName(db_->log().health()) +
      ": write operations are rejected until the log recovers");
}

Status Transaction::Update(Table* table, Oid oid, const Slice& value) {
  ERMIA_DCHECK(!finished_);
  if (read_only_) return Status::InvalidArgument("read-only transaction");
  ERMIA_RETURN_NOT_OK(CheckWriteAdmission());
  Status s;
  if (scheme_ == CcScheme::kOcc) {
    s = OccUpdate(table, oid, value, false);
  } else if (scheme_ == CcScheme::k2pl) {
    s = TplUpdate(table, oid, value, false);
  } else {
    s = SiUpdate(table, oid, value, false);
  }
  if (s.ok()) {
    db_->metrics().Inc(metrics::Ctr::kTxnUpdates);
    if (ERMIA_UNLIKELY(traced_)) {
      trace::Emit(trace::Event::kTxnUpdate, tid_, table->fid(), oid);
    }
  }
  return s;
}

Status Transaction::Delete(Table* table, Oid oid) {
  ERMIA_DCHECK(!finished_);
  if (read_only_) return Status::InvalidArgument("read-only transaction");
  ERMIA_RETURN_NOT_OK(CheckWriteAdmission());
  Status s;
  if (scheme_ == CcScheme::kOcc) {
    s = OccUpdate(table, oid, Slice(), true);
  } else if (scheme_ == CcScheme::k2pl) {
    s = TplUpdate(table, oid, Slice(), true);
  } else {
    s = SiUpdate(table, oid, Slice(), true);
  }
  if (s.ok()) {
    db_->metrics().Inc(metrics::Ctr::kTxnDeletes);
    if (ERMIA_UNLIKELY(traced_)) {
      trace::Emit(trace::Event::kTxnDelete, tid_, table->fid(), oid);
    }
  }
  return s;
}

Status Transaction::Insert(Table* table, Index* primary, const Slice& key,
                           const Slice& value, Oid* oid) {
  ERMIA_DCHECK(!finished_);
  if (read_only_) return Status::InvalidArgument("read-only transaction");
  ERMIA_RETURN_NOT_OK(CheckWriteAdmission());

  // Probe first: the key may exist live (KeyExists), deleted (reuse the OID
  // by overwriting the tombstone), or not at all (fresh insert).
  Oid existing = 0;
  NodeHandle handle;
  bool found;
  Backoff probe_backoff;
probe:
  {
    ERMIA_PROF_INDEX();
    found = primary->tree().Lookup(key, &existing, &handle);
  }
  if (found) {
    if (table->array().Head(existing) == nullptr) {
      // Entry present but the chain is empty: the inserter is mid-abort
      // (entry removal comes first, so this window is between its unlink and
      // the removal we already missed). Adopting the OID now would race its
      // free; wait out the rollback and re-probe.
      probe_backoff.Pause();
      goto probe;
    }
    RegisterNode(handle);
    Slice unused;
    Status s = Read(table, existing, &unused);
    if (s.ok()) return Status::KeyExists();
    if (!s.IsNotFound()) return s;  // conflict/abort from the read path
    // Invisible or deleted: overwrite through the normal update path, which
    // enforces first-updater-wins (or locking) against racing writers.
    Status us;
    switch (scheme_) {
      case CcScheme::kOcc:
        us = OccUpdate(table, existing, value, false);
        break;
      case CcScheme::k2pl:
        us = TplUpdate(table, existing, value, false);
        break;
      default:
        us = SiUpdate(table, existing, value, false);
        break;
    }
    if (!us.ok()) return us;
    if (oid != nullptr) *oid = existing;
    return Status::OK();
  }

  // Fresh insert: allocating the OID and installing the first version is
  // contention-free (paper §3.2); the index insert arbitrates key races.
  Oid new_oid;
  Version* v;
  {
    ERMIA_PROF_INDIRECTION();
    new_oid = table->array().Allocate();
  }
  if (scheme_ == CcScheme::k2pl) {
    // Fresh OID: the exclusive lock always succeeds; taking it keeps strict
    // 2PL symmetric (released with everything else at commit/abort).
    ERMIA_RETURN_NOT_OK(TplAcquire(table, new_oid, /*exclusive=*/true));
  }
  {
    ERMIA_PROF_INDIRECTION();
    v = Version::Alloc(value);
    v->clsn.store(MakeTidStamp(tid_), std::memory_order_release);
    table->array().PutHead(new_oid, v);
  }
  uint32_t payload_off = 0;
  Status st = StageRecord(LogRecordType::kInsert, table->fid(), new_oid,
                          Slice(), value, &payload_off);
  if (!st.ok()) return st;
  write_set_.push_back({table, new_oid, v, nullptr, table->array().Slot(new_oid),
                        /*is_insert=*/true, /*installed=*/true, payload_off});
  Status is = InsertIndexEntry(primary, key, new_oid);
  if (!is.ok()) return is;  // racing insert won the key: caller aborts
  if (oid != nullptr) *oid = new_oid;
  db_->metrics().Inc(metrics::Ctr::kTxnInserts);
  if (ERMIA_UNLIKELY(traced_)) {
    trace::Emit(trace::Event::kTxnInsert, tid_, table->fid(), new_oid);
  }
  return Status::OK();
}

Status Transaction::InsertIndexEntry(Index* index, const Slice& key, Oid oid) {
  ERMIA_DCHECK(!finished_);
  NodeHandle handle;
  Oid existing = 0;
  Status s;
  {
    ERMIA_PROF_INDEX();
    s = index->tree().Insert(key, oid, &handle, &existing);
  }
  if (s.IsKeyExists()) {
    RegisterNode(handle);
    return s;
  }
  ERMIA_CHECK(s.ok());
  // If this transaction had already registered the (pre-insert) version of
  // this leaf, refresh it so our own insert does not fail phantom validation.
  // Only safe when no foreign change intervened, i.e. the recorded version is
  // exactly the pre-insert one.
  if (NeedsNodeSet()) {
    for (auto& e : node_set_) {
      if (e.node == handle.node && e.version == handle.version - 2) {
        e.version = handle.version;
      }
    }
  }
  uint32_t unused;
  ERMIA_RETURN_NOT_OK(StageRecord(LogRecordType::kIndexInsert, index->fid(),
                                  oid, key, Slice(), &unused));
  index_inserts_.push_back({index, Varstr(key), oid});
  return Status::OK();
}

Status Transaction::GetOid(Index* index, const Slice& key, Oid* oid) {
  ERMIA_DCHECK(!finished_);
  NodeHandle handle;
  Oid found_oid = 0;
  bool found;
  {
    ERMIA_PROF_INDEX();
    found = index->tree().Lookup(key, &found_oid, &handle);
  }
  RegisterNode(handle);
  if (!found) return Status::NotFound();
  // Visibility check (tracked as a read: the control-flow dependency is a
  // real anti-dependency for OCC/SSN).
  Slice unused;
  Status s = Read(index->table(), found_oid, &unused);
  if (!s.ok()) return s;
  *oid = found_oid;
  return Status::OK();
}

Status Transaction::Get(Index* index, const Slice& key, Slice* value) {
  Status s;
  MultiGet(index, &key, 1, value, &s);
  return s;
}

// Three phases per group of keys: the lockstep index walk; prefetching every
// found OID's slot, then each head's version; and the ordinary per-key
// RegisterNode and Read, in key order. The index bracket closes before any
// Read runs, so no profiling bracket nests another.
Status Transaction::MultiGet(Index* index, const Slice* keys, size_t n,
                             Slice* values, Status* statuses) {
  ERMIA_DCHECK(!finished_);
  constexpr size_t kGroup = BTree::kLookupGroup;
  Table* table = index->table();
  const IndirectionArray& array = table->array();
  Oid oids[kGroup];
  bool found[kGroup];
  NodeHandle handles[kGroup];
  for (size_t base = 0; base < n; base += kGroup) {
    const size_t m = std::min(n - base, kGroup);
    {
      ERMIA_PROF_INDEX();
      index->tree().LookupBatch(keys + base, m, oids, found, handles);
    }
    {
      ERMIA_PROF_INDIRECTION();
      for (size_t i = 0; i < m; ++i) {
        if (found[i]) array.PrefetchSlot(oids[i]);
      }
      for (size_t i = 0; i < m; ++i) {
        if (found[i]) Version::Prefetch(array.Head(oids[i]));
      }
    }
    for (size_t i = 0; i < m; ++i) {
      RegisterNode(handles[i]);
      Status& s = statuses[base + i];
      s = found[i] ? Read(table, oids[i], &values[base + i])
                   : Status::NotFound();
      if (!s.ok() && !s.IsNotFound()) return s;
    }
  }
  return Status::OK();
}

template <typename Cb>
Status Transaction::ScanVisible(Index* index, const Slice& lo,
                                const Slice& hi, int64_t limit, const Cb& cb,
                                bool reverse) {
  ERMIA_DCHECK(!finished_);
  Table* table = index->table();
  Status inner = Status::OK();
  int64_t delivered = 0;
  auto wrap = [&](const Slice& key, Oid oid) -> bool {
    Slice value;
    Status s = Read(table, oid, &value);
    if (s.IsNotFound()) return true;  // invisible or deleted: skip
    if (!s.ok()) {
      inner = s;
      return false;
    }
    ++delivered;
    if (!cb(key, oid, value)) return false;
    return limit < 0 || delivered < limit;
  };
  std::vector<NodeHandle>* nodes = NeedsNodeSet() ? &node_set_ : nullptr;
  {
    ERMIA_PROF_INDEX();
    if (reverse) {
      index->tree().ScanReverse(lo, hi, wrap, nodes);
    } else {
      index->tree().Scan(lo, hi, wrap, nodes);
    }
  }
  if (ERMIA_UNLIKELY(traced_) && inner.ok()) {
    trace::Emit(trace::Event::kTxnScan, tid_, index->fid(),
                static_cast<uint64_t>(delivered));
  }
  return inner;
}

Status Transaction::ScanOids(
    Index* index, const Slice& lo, const Slice& hi, int64_t limit,
    const std::function<bool(const Slice&, Oid)>& cb, bool reverse) {
  return ScanVisible(
      index, lo, hi, limit,
      [&cb](const Slice& key, Oid oid, const Slice&) { return cb(key, oid); },
      reverse);
}

Status Transaction::Scan(
    Index* index, const Slice& lo, const Slice& hi, int64_t limit,
    const std::function<bool(const Slice&, const Slice&)>& cb, bool reverse) {
  return ScanVisible(
      index, lo, hi, limit,
      [&cb](const Slice& key, Oid, const Slice& value) {
        return cb(key, value);
      },
      reverse);
}

// ---------------------------------------------------------------------------
// Log staging
// ---------------------------------------------------------------------------

Status Transaction::StageRecord(LogRecordType type, Fid fid, Oid oid,
                                const Slice& key, const Slice& value,
                                uint32_t* payload_off) {
  LogRecordHeader rh{};
  rh.type = type;
  rh.fid = fid;
  rh.oid = oid;
  rh.key_size = static_cast<uint16_t>(key.size());
  rh.payload_size = static_cast<uint32_t>(value.size());
  const size_t base = staging_.size();
  staging_.resize(base + sizeof rh + key.size() + value.size());
  std::memcpy(staging_.data() + base, &rh, sizeof rh);
  std::memcpy(staging_.data() + base + sizeof rh, key.data(), key.size());
  *payload_off = static_cast<uint32_t>(base + sizeof rh + key.size());
  std::memcpy(staging_.data() + *payload_off, value.data(), value.size());
  ++staged_records_;
  if (ERMIA_UNLIKELY(db_->config().log_per_operation)) {
    return FlushStagingAsBlock();
  }
  return Status::OK();
}

uint32_t Transaction::BlockSizeForStaging() const {
  return static_cast<uint32_t>(sizeof(LogBlockHeader) + staging_.size());
}

// Serializes the staged records as one block at `lsn` (header, checksum,
// records) into a per-thread buffer, reused so the commit path does not
// allocate, and installs it into the reserved log space.
void Transaction::InstallStagedBlock(Lsn lsn) {
  const uint32_t size = BlockSizeForStaging();
  thread_local std::vector<char> block;
  block.resize(size);
  LogBlockHeader hdr{};
  hdr.magic = kLogBlockMagic;
  hdr.type = LogBlockType::kTxn;
  hdr.offset = lsn.offset();
  hdr.total_size = (size + 31u) & ~31u;
  hdr.num_records = staged_records_;
  hdr.payload_bytes = static_cast<uint32_t>(staging_.size());
  hdr.checksum = LogChecksum(staging_.data(), staging_.size());
  std::memcpy(block.data(), &hdr, sizeof hdr);
  std::memcpy(block.data() + sizeof hdr, staging_.data(), staging_.size());
  db_->log().InstallBlock(lsn, block.data(), size);
}

// Emulates WAL-style per-operation logging (Fig. 10): every operation makes
// its own round trip to the centralized log buffer. Benchmark-only mode: it
// publishes records of transactions that may later abort, so recovery is not
// supported with it.
Status Transaction::FlushStagingAsBlock() {
  ERMIA_PROF_LOG();
  InstallStagedBlock(db_->log().ReserveBlock(BlockSizeForStaging()));
  staging_.clear();
  staged_records_ = 0;
  return Status::OK();
}

Lsn Transaction::ReserveCommitBlock() {
  ERMIA_PROF_LOG();
  // Single global fetch_add: commit stamp + log space in one step (§3.3).
  return db_->log().ReserveBlock(BlockSizeForStaging());
}

// kCommitting and the pending sentinel must be visible before the stamp is
// claimed. A reader whose snapshot begins past our reserved LSN then finds
// us committing with a pending or earlier stamp and waits for the outcome
// (SiVisibleVersion); were we still kActive with no stamp, it would skip our
// version and read a torn snapshot of a transaction that commits inside it.
Lsn Transaction::ClaimCommitStamp() {
  ctx_->cstamp.store(kCstampPending, std::memory_order_release);
  ctx_->StoreState(TxnState::kCommitting);
  const Lsn clsn = ReserveCommitBlock();
  ctx_->cstamp.store(clsn.value(), std::memory_order_release);
  return clsn;
}

void Transaction::InstallCommitBlock(Lsn lsn) {
  ERMIA_PROF_LOG();
  // Durable addresses: each new version's payload lives right after its
  // record header inside this block.
  if (!db_->config().log_per_operation) {
    for (auto& w : write_set_) {
      w.version->log_ptr =
          lsn.offset() + sizeof(LogBlockHeader) + w.staging_payload_off;
    }
  }
  InstallStagedBlock(lsn);
}

void Transaction::PostCommit(Lsn clsn) {
  // Replace TID stamps with the commit LSN so readers stop chasing this
  // transaction's context (§3.1 post-commit), then hand updated records to
  // the garbage collector.
  const uint64_t cval = clsn.value();
  for (auto& w : write_set_) {
    if (scheme_ == CcScheme::kSiSsn) {
      w.version->pstamp.store(cval, std::memory_order_relaxed);
    }
    w.version->clsn.store(cval, std::memory_order_release);
  }
  if (db_->config().enable_gc) {
    for (auto& w : write_set_) {
      if (w.prev != nullptr) db_->gc().NotifyUpdate(w.table, w.oid);
    }
  }
}

Status Transaction::WaitCommitDurable(uint64_t target_offset) {
  if (ERMIA_UNLIKELY(traced_)) {
    trace::Emit(trace::Event::kLogFlushWaitBegin, tid_, target_offset, 0);
  }
  Status s = db_->log().WaitForDurable(target_offset);
  if (ERMIA_UNLIKELY(traced_)) {
    trace::Emit(trace::Event::kLogFlushWaitEnd, tid_, target_offset,
                s.ok() ? 0 : 1);
  }
  return s;
}

void Transaction::Finish(bool committed) {
  ERMIA_DCHECK(!finished_);
  if (ERMIA_UNLIKELY(traced_)) {
    if (committed) {
      trace::Emit(trace::Event::kTxnCommit, tid_, 0, 0);
      // Capture after the commit event so the JSON breakdown includes it;
      // the threshold check inside is one relaxed load.
      trace::MaybeCaptureSlowTxn(tid_, trace_begin_tsc_, prof::Cycles(),
                                 CcSchemeName(scheme_));
    } else {
      trace::Emit(trace::Event::kTxnAbort, tid_,
                  static_cast<uint64_t>(abort_reason_), 0);
    }
  }
  if (committed) {
    db_->metrics().Inc(metrics::Ctr::kTxnCommits);
  } else {
    // Exactly one per-reason increment per abort; unmarked aborts fall under
    // kExplicit (the constructor default) — e.g. NewOrder's 1% rollback.
    db_->metrics().Inc(metrics::AbortCtr(abort_reason_));
  }
  // SSN: drop the reader advertisements (stamps, if any, were published
  // before the state flip) and return the registry slot before the TID slot
  // becomes reusable.
  SsnReleaseReads();
  if (ERMIA_UNLIKELY(gov_slot_)) {
    db_->governor()->ReleaseWriter();
    gov_slot_ = false;
  }
  db_->tids().Release(ctx_);
  if (in_epoch_) {
    ERMIA_PROF_EPOCH();
    db_->gc_epoch().Exit();
    in_epoch_ = false;
  }
  prof::Bump(prof::MyCounters().transactions, 1);
  finished_ = true;
  // Last touch of the containers: the reference members dangle once the
  // bundle returns to the pool (another transaction on this thread may
  // acquire it immediately).
  TxnResourcePool::Release(res_);
  res_ = nullptr;
}

void Transaction::RegisterNode(const NodeHandle& handle) {
  if (!NeedsNodeSet()) return;
  node_set_.push_back(handle);
}

Transaction::WriteSetEntry* Transaction::FindOwnWrite(Table* table, Oid oid) {
  for (auto it = write_set_.rbegin(); it != write_set_.rend(); ++it) {
    if (it->table == table && it->oid == oid) return &*it;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Commit / abort
// ---------------------------------------------------------------------------

Status Transaction::Commit() {
  ERMIA_DCHECK(!finished_);
  const bool has_writes = !write_set_.empty() || staged_records_ > 0;
  // A poisoned log can never make this transaction durable, and its versions
  // are not visible yet (no commit stamp) — abort now rather than installing
  // a commit block that will be discarded. A merely *stalled* log proceeds:
  // the transaction's bytes enter the ring and the synchronous-commit wait
  // blocks until the flusher's retry lands them (or the log degrades
  // further, failing the wait).
  if (ERMIA_UNLIKELY(has_writes &&
                     db_->log().health() == LogHealth::kPoisoned)) {
    MarkAbort(metrics::AbortReason::kLogUnavailable);
    db_->metrics().Inc(metrics::Ctr::kLogWriterRejects);
    Abort();
    return Status::LogUnavailable(
        "log poisoned: write transaction aborted at commit");
  }
  if (!has_writes) {
    // Reader-only commit. Under SSN the reads still participate (committed
    // readers must publish their pstamps so writers see them). An OCC
    // transaction that was NOT declared read-only read "latest committed"
    // at each access — instants that may span many foreign commits — so its
    // read set must still pass Silo's commit-time validation, and a 2PL
    // transaction's node set must pass the same certification a 2PL writer
    // runs, before its locks go; only declared read-only transactions (one
    // consistent snapshot) and SI snapshot readers commit trivially.
    if (scheme_ == CcScheme::kSiSsn &&
        (!read_set_.empty() || !read_opt_set_.empty())) {
      return SsnCommit();
    }
    if (scheme_ == CcScheme::kOcc && !read_only_ && !read_set_.empty()) {
      return OccReadOnlyCommit();
    }
    if (scheme_ == CcScheme::k2pl) {
      ERMIA_RETURN_NOT_OK(TplCertify());
      TplReleaseAll();
    }
    ctx_->StoreState(TxnState::kCommitted);
    Finish(true);
    return Status::OK();
  }
  switch (scheme_) {
    case CcScheme::kSi:
      return SiCommit();
    case CcScheme::kSiSsn:
      return SsnCommit();
    case CcScheme::kOcc:
      return OccCommit();
    case CcScheme::k2pl:
      return TplCommit();
  }
  return Status::InvalidArgument("unknown scheme");
}

void Transaction::Abort() {
  if (finished_) return;
  // SSN: roll the overwrite advertisements back to infinity *before*
  // unlinking — the next overwriter may CAS the head the instant the unlink
  // lands, and it expects a clean commit word.
  if (scheme_ == CcScheme::kSiSsn) SsnResetOverwriteMarks();
  // Remove index entries added by this transaction FIRST (bumps leaf
  // versions, so concurrent validators relying on those leaves will abort —
  // conservative but safe). Ordering matters: while the entry exists our
  // TID-stamped head rejects every writer (first-updater-wins), but once the
  // chain below is unlinked to empty, a racing Insert could adopt the OID
  // through the entry — and we are about to free that OID.
  for (auto it = index_inserts_.rbegin(); it != index_inserts_.rend(); ++it) {
    ERMIA_PROF_INDEX();
    it->index->tree().Remove(it->key.slice());
  }
  // Unlink installed versions, newest first: our uncommitted head cannot be
  // displaced by anyone else (their CAS expects a committed head), so the
  // unlink CAS must succeed.
  for (auto it = write_set_.rbegin(); it != write_set_.rend(); ++it) {
    auto& w = *it;
    if (w.slot->load(std::memory_order_acquire) != w.version) {
      // OCC intent that was never installed.
      Version::Free(w.version);
      continue;
    }
    Version* next = w.version->next.load(std::memory_order_relaxed);
    bool ok = w.table->array().CasHead(w.oid, w.version, next);
    ERMIA_CHECK(ok);
    Version::FreeDeferred(&db_->gc_epoch(), w.version);
  }
  // Release freshly allocated OIDs — but only while their chains are still
  // empty. A racer that slipped through the reuse window gets to keep the
  // OID (it leaks from the allocator's perspective, which is harmless; a
  // double grant would corrupt two records).
  for (auto& w : write_set_) {
    if (w.is_insert &&
        w.slot->load(std::memory_order_acquire) == nullptr) {
      w.table->array().Free(w.oid);
    }
  }
  if (scheme_ == CcScheme::k2pl) TplReleaseAll();
  ctx_->StoreState(TxnState::kAborted);
  Finish(false);
}

}  // namespace ermia
