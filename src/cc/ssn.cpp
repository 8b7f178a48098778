// The Serial Safety Net (paper §3.6.2, Algorithm 1): a certifier overlaid on
// SI. Each transaction T maintains η(T) (pstamp: latest committed state T
// depends on) and π(T) (sstamp: earliest successor that must serialize after
// T). Committing with π(T) <= η(T) could close a dependency cycle, so such
// transactions abort. Versions carry η(V)/π(V) so the stamps survive their
// creators' contexts.
//
// Commit certification is the paper's latch-free *parallel* protocol: there
// is no global critical section anywhere on this path. Concurrently
// committing readers and overwriters observe each other through the versions
// themselves — the overwriter's TID sits in the overwritten version's commit
// word (sstamp) from install time, readers advertise themselves in the
// version's readers bitmap — and each committer waits out only the
// *conflicting* peers ordered before it by cstamp. Three facts make that
// sound (details in docs/INTERNALS.md "Parallel SSN commit"):
//
//   1. cstamp order == the modification order of the log-offset RMWs, and
//      every committer stores kCommitting (with a pending-cstamp sentinel)
//      *before* its RMW. So when T's finalization finds a peer still kActive,
//      that peer's RMW — hence its cstamp — must come after T's: not T's
//      responsibility (the peer, ordered after T, will observe T instead).
//   2. Overwriters advertise at version-install time (before their RMW) and
//      readers advertise at read time (before theirs), so the advertisement
//      of any peer ordered before T is visible to T's finalization.
//   3. Waits only ever target peers with strictly smaller cstamps, so the
//      waits-for relation is acyclic and the protocol is deadlock-free.
#include "engine/database.h"
#include "trace/trace.h"
#include "txn/transaction.h"

namespace ermia {

namespace {

void AtomicMax(std::atomic<uint64_t>& target, uint64_t value) {
  uint64_t cur = target.load(std::memory_order_relaxed);
  while (cur < value && !target.compare_exchange_weak(
                            cur, value, std::memory_order_acq_rel)) {
  }
}

void AtomicMin(std::atomic<uint64_t>& target, uint64_t value) {
  uint64_t cur = target.load(std::memory_order_relaxed);
  while (cur > value && !target.compare_exchange_weak(
                            cur, value, std::memory_order_acq_rel)) {
  }
}

}  // namespace

bool Transaction::SsnExclusionViolated() const {
  const uint64_t pstamp = ctx_->pstamp.load(std::memory_order_relaxed);
  const uint64_t sstamp = ctx_->sstamp.load(std::memory_order_relaxed);
  return sstamp <= pstamp;
}

void Transaction::SsnEnsureReaderSlot() {
  if (ssn_reader_slot_ != SsnReaderRegistry::kNoSlot) return;
  ssn_reader_slot_ = db_->ssn_readers().Acquire(tid_);
}

void Transaction::SsnReleaseReads() {
  if (ssn_reader_slot_ == SsnReaderRegistry::kNoSlot) return;
  const uint64_t bit = 1ull << ssn_reader_slot_;
  for (const auto& r : read_set_) {
    r.version->readers.fetch_and(~bit, std::memory_order_seq_cst);
  }
  db_->ssn_readers().Release(ssn_reader_slot_);
  ssn_reader_slot_ = SsnReaderRegistry::kNoSlot;
}

void Transaction::SsnResetOverwriteMarks() {
  const uint64_t mark = MakeTidStamp(tid_);
  for (auto& w : write_set_) {
    if (w.prev == nullptr) continue;
    uint64_t expected = mark;
    w.prev->sstamp.compare_exchange_strong(expected, kInfinityStamp,
                                           std::memory_order_seq_cst);
  }
}

// Read of committed version v: v's creator is a predecessor of T, and if v is
// already overwritten, the overwriter is a successor of T. The reader bit
// must go up before the commit word is sampled: an overwriter that our
// sample misses will then find the bit during its bitmap scan (or is ordered
// after us and need not).
void Transaction::SsnOnRead(Version* v) {
  SsnEnsureReaderSlot();
  v->readers.fetch_or(1ull << ssn_reader_slot_, std::memory_order_seq_cst);
  db_->metrics().Inc(metrics::Ctr::kSsnBitmapAdvertises);
  const uint64_t s = v->clsn.load(std::memory_order_acquire);
  if (!IsTidStamp(s)) {
    AtomicMax(ctx_->pstamp, s);
  } else {
    // Visible TID-stamped version: creator committed inside our snapshot but
    // has not post-committed; its cstamp is in its context.
    uint64_t cstamp = 0;
    if (db_->tids().Inquire(TidFromStamp(s), &cstamp) ==
            TidManager::Outcome::kCommitted &&
        cstamp != 0) {
      AtomicMax(ctx_->pstamp, cstamp);
    }
  }
  // In-flight π maintenance is a best-effort early-abort heuristic; the
  // commit-time finalization repeats it with full overwriter resolution.
  const uint64_t vs = v->sstamp.load(std::memory_order_acquire);
  if (vs == kInfinityStamp) return;
  if (!IsTidStamp(vs)) {
    AtomicMin(ctx_->sstamp, vs);
    return;
  }
  const uint64_t utid = TidFromStamp(vs);
  uint64_t ucstamp = 0;
  if (utid != tid_ && db_->tids().Inquire(utid, &ucstamp) ==
                          TidManager::Outcome::kCommitted) {
    // The overwriter published its final sstamp before flipping to
    // kCommitted; re-read to pick it up.
    const uint64_t fin = v->sstamp.load(std::memory_order_acquire);
    if (fin != kInfinityStamp && !IsTidStamp(fin)) {
      AtomicMin(ctx_->sstamp, fin);
    }
  }
}

// Read-opt exemption (cc/safe_snapshot.h): v committed below the safe LSN.
// Every transaction that began below that offset has finished, so v's
// overwriter — if any — either committed already (its sstamp is final and
// immutable) or will claim a commit stamp through the same log-offset RMW
// chain our commit-time resolution synchronizes with. Either way the reader
// bitmap is not needed to make the rw edge visible:
//   - overwriter already final: fold its sstamp here and drop the version
//     entirely (no one will ever consult v.pstamp again — only v's single
//     overwriter reads it, and that overwriter's η is final);
//   - overwriter absent or in flight: defer to read_opt_set_; commit re-runs
//     the sstamp resolution and publishes our pstamp, and overwriters of
//     old versions compensate with a committer scan (SsnFinalizePstamp).
void Transaction::SsnOnReadExempt(Version* v) {
  db_->metrics().Inc(metrics::Ctr::kSsnReadOptReads);
  AtomicMax(ctx_->pstamp, v->clsn.load(std::memory_order_acquire));
  const uint64_t vs = v->sstamp.load(std::memory_order_seq_cst);
  if (vs != kInfinityStamp && !IsTidStamp(vs)) {
    AtomicMin(ctx_->sstamp, vs);
    return;  // fully resolved: zero tracking
  }
  read_opt_set_.push_back(v);
}

// Overwrite of committed version prev: prev's creator and prev's committed
// readers are predecessors of T. (The TID advertisement in prev's commit
// word is installed by SiUpdate right after the head CAS succeeds.)
Status Transaction::SsnOnUpdate(Version* prev) {
  const uint64_t s = prev->clsn.load(std::memory_order_acquire);
  if (!IsTidStamp(s)) AtomicMax(ctx_->pstamp, s);
  AtomicMax(ctx_->pstamp, prev->pstamp.load(std::memory_order_acquire));
  if (SsnExclusionViolated()) {
    MarkAbort(metrics::AbortReason::kSsnExclusionUpdate);
    return Status::Aborted("ssn exclusion window (update)");
  }
  return Status::OK();
}

// π(T): own cstamp, plus the final sstamps of the committed overwriters —
// with smaller cstamps — of everything T read. An in-flight overwriter whose
// cstamp is (or may end up) smaller than ours is a conflicting peer ordered
// before us: wait for it to resolve. Overwriters ordered after us are their
// problem (they will find our reader bit).
uint64_t Transaction::SsnFinalizeSstamp(uint64_t cstamp) {
  uint64_t sstamp =
      std::min(ctx_->sstamp.load(std::memory_order_relaxed), cstamp);
  // Tracked reads and read-opt-exempt reads resolve identically; exempt
  // reads simply never advertised a bitmap bit (their overwriters, if any,
  // are found right here — or compensate for us, see SsnFinalizePstamp).
  const auto resolve = [&](Version* v) {
    Backoff backoff;
    for (;;) {
      const uint64_t vs = v->sstamp.load(std::memory_order_seq_cst);
      if (vs == kInfinityStamp) break;  // not overwritten
      if (!IsTidStamp(vs)) {           // committed overwriter, final π(U)
        sstamp = std::min(sstamp, vs);
        break;
      }
      const uint64_t utid = TidFromStamp(vs);
      if (utid == tid_) break;  // we overwrote our own read: no edge
      uint64_t ucstamp = 0;
      switch (db_->tids().Inquire(utid, &ucstamp)) {
        case TidManager::Outcome::kInFlight:
          // Still kActive: its commit-order RMW — hence its cstamp — must
          // come after ours (fact 1 in the header comment), so the edge is
          // its responsibility, not ours.
          if (ucstamp == 0) break;
          if (ucstamp != kCstampPending && ucstamp > cstamp) break;
          backoff.Pause();  // conflicting committer ordered before us
          continue;
        case TidManager::Outcome::kCommitted:
          if (ucstamp > cstamp) break;  // ordered after us: not our edge
          // Final sstamp was published before the state flip; re-read.
          continue;
        case TidManager::Outcome::kAborted:
          // The overwrite is being rolled back; any replacement overwriter
          // reserves after us and is ordered after us.
          break;
        case TidManager::Outcome::kStale:
          // Slot recycled: the overwriter finished and rewrote the commit
          // word (final stamp or infinity) before releasing it; re-read.
          continue;
      }
      break;
    }
  };
  for (const auto& r : read_set_) resolve(r.version);
  for (Version* v : read_opt_set_) resolve(v);
  return sstamp;
}

// η(T): the latest committed reader — with smaller cstamp — of anything T
// overwrote. Committed readers publish into v.pstamp before flipping state;
// in-flight committing readers are found through the readers bitmap and the
// reader registry, and waited out when ordered before us.
uint64_t Transaction::SsnFinalizePstamp(uint64_t cstamp) {
  uint64_t pstamp = ctx_->pstamp.load(std::memory_order_relaxed);
  // Read-opt compensation: exempt readers of old versions advertise no
  // bitmap bit, so before resolving per-version readers we wait out every
  // committer ordered before us, then pick their published pstamps up from
  // the versions below. The safe-LSN load here (after our commit-order RMW)
  // is >= any exempt reader's load before its RMW — so if a reader ordered
  // before us exempted one of our overwritten versions, our predicate sees
  // that version as old too and the scan covers it. Readers ordered after
  // us resolve the edge themselves in SsnFinalizeSstamp. Rare path: only
  // taken when overwriting a version that predates the safe LSN.
  if (db_->config().ssn_read_opt && !write_set_.empty()) {
    const uint64_t safe = db_->safe_snapshot_offset();
    for (const auto& w : write_set_) {
      if (w.prev == nullptr) continue;
      const uint64_t s = w.prev->clsn.load(std::memory_order_acquire);
      if (!IsTidStamp(s) && Lsn(s).offset() < safe) {
        db_->metrics().Inc(metrics::Ctr::kSsnReadOptWriterWaits);
        db_->tids().WaitCommittersBelow(cstamp);
        break;
      }
    }
  }
  for (const auto& w : write_set_) {
    Version* prev = w.prev;
    if (prev == nullptr) continue;
    uint64_t bitmap = prev->readers.load(std::memory_order_seq_cst);
    while (bitmap != 0) {
      const uint32_t slot =
          static_cast<uint32_t>(__builtin_ctzll(bitmap));
      bitmap &= bitmap - 1;
      const uint64_t rtid = db_->ssn_readers().TidOf(slot);
      // 0 = the reader finished (its stamp, if committed, is in prev->pstamp
      // below); our own TID = our own read of prev, no self edge. A recycled
      // slot can name a transaction that never read prev — resolving it
      // anyway only inflates η (conservative), never misses an edge.
      if (rtid == 0 || rtid == tid_) continue;
      Backoff backoff;
      for (;;) {
        uint64_t rcstamp = 0;
        const auto outcome = db_->tids().Inquire(rtid, &rcstamp);
        if (outcome == TidManager::Outcome::kInFlight) {
          if (rcstamp == 0) break;  // kActive: ordered after us (fact 1)
          if (rcstamp != kCstampPending && rcstamp > cstamp) break;
          backoff.Pause();  // committing reader ordered before us
          continue;
        }
        if (outcome == TidManager::Outcome::kCommitted &&
            rcstamp < cstamp) {
          pstamp = std::max(pstamp, rcstamp);
        }
        break;  // committed-after-us / aborted / stale: no edge to record
      }
    }
    // After the bitmap is resolved: every committed reader ordered before us
    // has either been folded in above or published here.
    pstamp = std::max(pstamp, prev->pstamp.load(std::memory_order_seq_cst));
  }
  return pstamp;
}

// Publish η(V) for reads and π(T) for overwritten versions. Must precede the
// kCommitted state store: a peer that waited us out samples these afterwards.
void Transaction::SsnPublishStamps(uint64_t cstamp, uint64_t pstamp,
                                   uint64_t sstamp) {
  ctx_->pstamp.store(pstamp, std::memory_order_relaxed);
  ctx_->sstamp.store(sstamp, std::memory_order_relaxed);
  for (const auto& r : read_set_) {
    AtomicMax(r.version->pstamp, cstamp);
  }
  // Exempt reads: "only the pstamp update survives" — no bitmap bit to
  // clear, but overwriters ordered after us must still see we read these.
  for (Version* v : read_opt_set_) {
    AtomicMax(v->pstamp, cstamp);
  }
  for (const auto& w : write_set_) {
    if (w.prev != nullptr) {
      w.prev->sstamp.store(sstamp, std::memory_order_seq_cst);
    }
  }
}

// Commit protocol per Algorithm 1. Pre-commit reserves the stamp, the
// stamp-finalization loops wait only on conflicting in-flight transactions
// (via the lock-free TID inquiry), then the exclusion-window test decides and
// post-commit publishes — all without a global critical section.
Status Transaction::SsnCommit() {
  Status ns = NodeSetValidate();
  if (!ns.ok()) {
    MarkAbort(metrics::AbortReason::kPhantom);
    Abort();
    return ns;
  }
  const bool has_writes = !write_set_.empty() || staged_records_ > 0;

  // Advertise intent before claiming the stamp: a peer that observes
  // kCommitting with the pending sentinel re-inquires for the real stamp
  // instead of inferring an order that does not exist yet. The per-thread
  // committer announcement must also precede the stamp claim so the read-opt
  // compensation scan of any later-stamped peer finds us.
  db_->tids().BeginCommitting(ctx_);
  ctx_->cstamp.store(kCstampPending, std::memory_order_release);
  ctx_->StoreState(TxnState::kCommitting);

  Lsn clsn;
  uint64_t cstamp;
  if (has_writes) {
    clsn = ReserveCommitBlock();  // seq_cst fetch_add: the commit order point
    cstamp = clsn.value();
  } else {
    // Reader-only commits need a stamp but no log space. Stamp them just
    // *before* the current log tail: every version they read committed below
    // the tail, and every future writer reserves at or above it — so the
    // reader's stamp can never tie with a writer's and trip the exclusion
    // test spuriously. A seq_cst load suffices for the ordering facts the
    // protocol needs (see SeqCstTailBound in log_manager.h); the previous
    // fetch_add(0) RMW bounced the shared offset line off every concurrent
    // writer for no additional guarantee.
    //
    // Exception: with read-opt-exempt reads we advertised no bitmap bits, so
    // an overwriter ordered after us discovers us only through its committer
    // scan (SsnFinalizePstamp) — and that scan is guaranteed to see our
    // kCommitting/pending stores only if our stamp claim participates in the
    // log offset's RMW modification order. Claim through the fetch_add in
    // that case; the RMW costs once what the skipped per-read bitmap RMWs
    // saved many times over.
    cstamp = read_opt_set_.empty()
                 ? Lsn::Make(db_->log().SeqCstTailBound(), 0).value() - 1
                 : Lsn::Make(db_->log().OrderedTail(), 0).value() - 1;
  }
  ctx_->cstamp.store(cstamp, std::memory_order_release);

  bool pass;
  uint64_t final_sstamp = cstamp;
  if (ERMIA_UNLIKELY(traced_)) {
    trace::Emit(trace::Event::kCertifyBegin, tid_, 0, 0);
  }
  {
    // Certification (stamp finalization + exclusion test + publication) is
    // the CC component of the Fig. 11 cycle breakdown.
    ERMIA_PROF_CC();
    const uint64_t sstamp = SsnFinalizeSstamp(cstamp);
    const uint64_t pstamp = SsnFinalizePstamp(cstamp);
    pass = sstamp > pstamp;  // exclusion window: π(T) <= η(T) forbidden
    if (pass) SsnPublishStamps(cstamp, pstamp, sstamp);
    final_sstamp = sstamp;
  }
  if (ERMIA_UNLIKELY(traced_)) {
    trace::Emit(trace::Event::kCertifyEnd, tid_, pass ? 1 : 0, 0);
  }
  if (pass) {
    // Safe-snapshot maintenance: a commit whose final π lands below its
    // cstamp is a committed backward rw-dependency — no safe point may land
    // inside (π, cstamp] (cc/safe_snapshot.h). Recorded before Finish exits
    // the gc epoch, which is what the snapshot daemon's drain waits on.
    const uint64_t s_off = Lsn(final_sstamp).offset();
    const uint64_t c_off = Lsn(cstamp).offset();
    if (s_off < c_off) db_->safesnap().RecordBackwardEdge(s_off, c_off);
  }

  if (!pass) {
    MarkAbort(metrics::AbortReason::kSsnExclusionCommit);
    if (has_writes) {
      db_->log().InstallSkip(clsn, BlockSizeForStaging());
      // Reuse the abort path for unlinking; the reservation is now a skip.
    }
    Abort();
    db_->tids().EndCommitting();
    return Status::Aborted("ssn exclusion window (commit)");
  }
  if (has_writes) InstallCommitBlock(clsn);
  ctx_->StoreState(TxnState::kCommitted);
  db_->tids().EndCommitting();
  Status ds = Status::OK();
  if (has_writes) {
    PostCommit(clsn);
    if (db_->config().synchronous_commit) {
      ds = WaitCommitDurable(clsn.offset() + BlockSizeForStaging());
    }
  }
  Finish(true);
  return ds;
}

}  // namespace ermia
