#include "engine/database.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "common/profiling.h"
#include "engine/governor.h"
#include "engine/watchdog.h"
#include "storage/version_alloc.h"
#include "trace/trace.h"

namespace ermia {

namespace {
// ERMIA_VERSION_ALLOCATOR=slab|malloc overrides the config (sanitizer runs
// and ablation sweeps flip the backend without touching call sites).
VersionAllocMode ResolveVersionAllocMode(VersionAllocMode configured) {
  const char* env = std::getenv("ERMIA_VERSION_ALLOCATOR");
  if (env == nullptr) return configured;
  if (std::strcmp(env, "malloc") == 0) return VersionAllocMode::kMalloc;
  if (std::strcmp(env, "slab") == 0) return VersionAllocMode::kSlab;
  return configured;
}

// ERMIA_TRACE=off|sampled[:N]|all overrides trace_mode/trace_sample_every
// (same pattern as the allocator override: CI and ad-hoc runs enable the
// flight recorder without touching call sites).
void ResolveTraceMode(EngineConfig* config) {
  const char* env = std::getenv("ERMIA_TRACE");
  if (env == nullptr) return;
  if (std::strcmp(env, "off") == 0) {
    config->trace_mode = TraceMode::kOff;
  } else if (std::strcmp(env, "all") == 0) {
    config->trace_mode = TraceMode::kAll;
  } else if (std::strncmp(env, "sampled", 7) == 0) {
    config->trace_mode = TraceMode::kSampled;
    if (env[7] == ':') {
      const long n = std::atol(env + 8);
      if (n > 0) config->trace_sample_every = static_cast<uint32_t>(n);
    }
  }
}

// ERMIA_SSN_READOPT=off|on|both|safesnap|readopt overrides the SSN
// read-mostly flags (cc/safe_snapshot.h) — same pattern as the allocator and
// trace overrides, so stress scripts and CI flip the features per run.
void ResolveSsnReadOpt(EngineConfig* config) {
  const char* env = std::getenv("ERMIA_SSN_READOPT");
  if (env == nullptr) return;
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0) {
    config->ssn_safe_snapshot = false;
    config->ssn_read_opt = false;
  } else if (std::strcmp(env, "on") == 0 || std::strcmp(env, "1") == 0 ||
             std::strcmp(env, "both") == 0) {
    config->ssn_safe_snapshot = true;
    config->ssn_read_opt = true;
  } else if (std::strcmp(env, "safesnap") == 0) {
    config->ssn_safe_snapshot = true;
  } else if (std::strcmp(env, "readopt") == 0) {
    config->ssn_read_opt = true;
  }
}
}  // namespace

Database::Database(EngineConfig config)
    : config_(std::move(config)), log_(config_, &metrics_) {
  config_.version_allocator = ResolveVersionAllocMode(config_.version_allocator);
  ResolveTraceMode(&config_);
  ResolveSsnReadOpt(&config_);
  if (config_.governor_enabled) {
    governor_ = std::make_unique<OverloadGovernor>(config_, &metrics_);
  }
  VersionAllocator::Instance().SetMode(config_.version_allocator);
  // Register the GC epoch manager so deferred version frees can reference it
  // by (slot, generation); detached in ~Database before members die.
  VersionAllocator::Instance().AttachEpoch(&gc_epoch_);
  gc_epoch_.set_metrics(&metrics_);
  gc_ = std::make_unique<GarbageCollector>(
      &gc_epoch_,
      [this] {
        // Publish the bound before the scan (an RMW even when the bound does
        // not move, then a seq_cst fence): a transaction registering
        // concurrently is either seen by the scan or sees the bound
        // (Transaction's constructor pairs with this).
        const uint64_t tail = log_.CurrentOffset();
        uint64_t bound = gc_trim_bound_.load(std::memory_order_relaxed);
        while (!gc_trim_bound_.compare_exchange_weak(bound,
                                                     std::max(bound, tail))) {
        }
        std::atomic_thread_fence(std::memory_order_seq_cst);
        uint64_t oldest = tids_.OldestActiveBegin(tail);
        if (config_.ssn_safe_snapshot) {
          // Safe-snapshot readers adopt the published offset as their begin;
          // pin the trim horizon to the previous tick's value so a reader
          // between its published() load and its TID-table registration
          // (nanoseconds) can never see its snapshot trimmed (the horizon
          // follows a full snapshot tick behind).
          oldest = std::min(oldest, safesnap_.gc_horizon());
        }
        return oldest;
      },
      &metrics_);
}

Database::~Database() {
  Close();
  // After detach, any limbo entry still naming gc_epoch_ observes a
  // generation mismatch and reclaims immediately — no harvest can
  // dereference the manager once members start destructing below.
  VersionAllocator::Instance().DetachEpoch(&gc_epoch_);
}

Status Database::Open() {
  ERMIA_CHECK(!open_);
  // Force the rdtsc→ns calibration now (it busy-waits ~2 ms): the trace
  // dump path may later run inside a fatal-signal handler, where lazy
  // initialization would not be async-signal-safe.
  prof::CyclesPerNs();
  if (config_.trace_mode != TraceMode::kOff) {
    trace::Configure(config_.trace_mode, config_.trace_sample_every);
    trace::ConfigureSlowTxnSink(config_.trace_slow_txn_us,
                                config_.trace_slow_txn_path);
    trace_owner_ = true;
  }
  if (!config_.trace_crash_dump_path.empty()) {
    trace::InstallCrashHandler(config_.trace_crash_dump_path);
  }
  ERMIA_RETURN_NOT_OK(log_.Open());
  occ_snapshot_.store(log_.CurrentOffset(), std::memory_order_release);
  safesnap_.Reset(log_.CurrentOffset());
  if (config_.watchdog_interval_ms > 0) {
    // Constructed here (not in the Database ctor) so its baselines seed from
    // the post-Open log offsets rather than zeros.
    watchdog_ = std::make_unique<Watchdog>(this);
  }
  if (config_.metrics_report_interval_ms > 0) {
    reporter_ = std::make_unique<metrics::Reporter>(
        [this] { return SnapshotMetrics(); },
        config_.metrics_report_interval_ms, config_.metrics_report_path);
  }
  stop_maintenance_ = false;
  maintenance_ = std::thread([this] { MaintenanceLoop(); });
  open_ = true;
  return Status::OK();
}

void Database::MaintenanceLoop() {
  using Clock = std::chrono::steady_clock;
  uint64_t last_safe = safesnap_.published();
  auto snapshot_tick = [&] {
    RefreshOccSnapshot();
    // Safe-snapshot LSN state machine (cc/safe_snapshot.h). Always ticked
    // so the gauge tracks reality regardless of the feature flags; the tail
    // must be loaded before the call (it is sequenced before the epoch
    // advance inside).
    safesnap_.Tick(gc_epoch_, log_.CurrentOffset());
    const uint64_t safe = safesnap_.published();
    if (safe != last_safe) {
      last_safe = safe;
      trace::Emit(trace::Event::kSafeSnapshotPublish, 0, safe,
                  safesnap_.GetStats().burnt);
    }
    if (governor_ != nullptr) {
      // AIMD control tick: feed cumulative commit/abort counts; the
      // governor diffs them internally. Sum() walks the shards with relaxed
      // loads — cheap enough for a per-tick sample.
      uint64_t aborts = 0;
      for (uint32_t c = metrics::kAbortCtrBase;
           c <= static_cast<uint32_t>(metrics::Ctr::kAbortOther); ++c) {
        aborts += metrics_.Sum(static_cast<metrics::Ctr>(c));
      }
      governor_->Tick(metrics_.Sum(metrics::Ctr::kTxnCommits), aborts);
    }
  };
  auto gc_pass = [this] {
    gc_->RunOnce();
    gc_epoch_.Advance();
    gc_epoch_.RunReclaimers();
  };
  auto checkpoint = [this] {
    // Never on a degraded log: a checkpoint must not park the shared thread
    // (and TakeCheckpoint gives up if the log stalls during its wait).
    if (log_.health() == LogHealth::kHealthy && TakeCheckpoint(nullptr).ok()) {
      metrics_.Inc(metrics::Ctr::kCheckpointsTaken);
    }
  };
  // Each phase next runs one period after its previous run ended, so it keeps
  // the cadence it had on a thread of its own that slept between runs. The
  // snapshot tick and the GC pass run at once; the others first after one
  // period. A period of 0 turns the checkpoint, the watchdog and the
  // reporter off; the snapshot tick and the GC pass then run on every turn
  // of the loop.
  struct Phase {
    bool on;
    uint64_t period_ms;
    std::function<void()> run;
    Clock::time_point due;
  };
  const auto start = Clock::now();
  const auto after = [start](uint64_t ms) {
    return start + std::chrono::milliseconds(ms);
  };
  Phase phases[] = {
      {true, config_.occ_snapshot_interval_ms, snapshot_tick, start},
      {config_.enable_gc, config_.gc_interval_ms, gc_pass, start},
      {config_.checkpoint_interval_ms > 0 && !log_.in_memory(),
       config_.checkpoint_interval_ms, checkpoint,
       after(config_.checkpoint_interval_ms)},
      {watchdog_ != nullptr, config_.watchdog_interval_ms,
       [this] { watchdog_->CheckOnce(); }, after(config_.watchdog_interval_ms)},
      {reporter_ != nullptr, config_.metrics_report_interval_ms,
       [this] { reporter_->EmitDelta(); },
       after(config_.metrics_report_interval_ms)},
  };
  std::unique_lock<std::mutex> lk(maintenance_mu_);
  while (!stop_maintenance_) {
    // The snapshot tick is always on, so the loop always has a deadline.
    Clock::time_point next = Clock::time_point::max();
    for (Phase& p : phases) {
      if (!p.on || stop_maintenance_) continue;
      if (Clock::now() >= p.due) {
        lk.unlock();
        p.run();
        lk.lock();
        p.due = Clock::now() + std::chrono::milliseconds(p.period_ms);
      }
      next = std::min(next, p.due);
    }
    maintenance_cv_.wait_until(lk, next, [this] { return stop_maintenance_; });
  }
  lk.unlock();
  ThreadRegistry::Deregister();
}

void Database::Close() {
  if (!open_) return;
  {
    std::lock_guard<std::mutex> lk(maintenance_mu_);
    stop_maintenance_ = true;
  }
  maintenance_cv_.notify_all();
  maintenance_.join();
  // The watchdog object stays alive until ~Database: SnapshotMetrics reads
  // the watchdog_ pointer.
  if (reporter_ != nullptr) {
    reporter_->EmitDelta();  // final partial interval
    reporter_.reset();
  }
  if (config_.enable_gc) {
    // Final sweep so tests observe deterministic reclamation.
    gc_->RunOnce();
    gc_epoch_.Advance();
    gc_epoch_.Advance();
    gc_epoch_.RunReclaimers();
  }
  log_.Close();
  if (trace_owner_) {
    // ERMIA_TRACE_DUMP=<path>: dump on close, so benches and CI capture a
    // trace without any code change (the nightly Perfetto artifact).
    const char* dump = std::getenv("ERMIA_TRACE_DUMP");
    if (dump != nullptr && dump[0] != '\0') {
      Status s = trace::DumpToFile(dump);
      if (!s.ok()) {
        std::fprintf(stderr, "ermia: trace dump failed: %s\n",
                     s.ToString().c_str());
      }
    }
    // The recorder is process-global; the enabling Database switches it off
    // so a later (untraced) Database in the same process starts clean.
    trace::Configure(TraceMode::kOff, config_.trace_sample_every);
    trace::ConfigureSlowTxnSink(0, std::string());
    trace_owner_ = false;
  }
  open_ = false;
}

Status Database::DumpTrace(const std::string& path) {
  return trace::DumpToFile(path);
}

Table* Database::CreateTable(const std::string& name) {
  SpinLatchGuard g(catalog_latch_);
  ERMIA_CHECK(tables_by_name_.find(name) == tables_by_name_.end());
  const Fid fid = static_cast<Fid>(by_fid_.size() + 1);
  auto table = std::make_unique<Table>(fid, name);
  Table* raw = table.get();
  tables_.push_back(std::move(table));
  table_list_.push_back(raw);
  tables_by_name_.emplace(name, raw);
  by_fid_.push_back(raw);
  fid_is_table_.push_back(true);
  return raw;
}

Index* Database::CreateIndex(Table* table, const std::string& name) {
  SpinLatchGuard g(catalog_latch_);
  ERMIA_CHECK(indexes_by_name_.find(name) == indexes_by_name_.end());
  const Fid fid = static_cast<Fid>(by_fid_.size() + 1);
  auto index = std::make_unique<Index>(fid, name, table);
  Index* raw = index.get();
  indexes_.push_back(std::move(index));
  index_list_.push_back(raw);
  indexes_by_name_.emplace(name, raw);
  by_fid_.push_back(raw);
  fid_is_table_.push_back(false);
  return raw;
}

Table* Database::GetTable(const std::string& name) const {
  auto it = tables_by_name_.find(name);
  return it == tables_by_name_.end() ? nullptr : it->second;
}

Index* Database::GetIndex(const std::string& name) const {
  auto it = indexes_by_name_.find(name);
  return it == indexes_by_name_.end() ? nullptr : it->second;
}

Table* Database::TableByFid(Fid fid) const {
  if (fid == 0 || fid > by_fid_.size() || !fid_is_table_[fid - 1]) {
    return nullptr;
  }
  return static_cast<Table*>(by_fid_[fid - 1]);
}

metrics::MetricsSnapshot Database::SnapshotMetrics() const {
  metrics::MetricsSnapshot snap = metrics_.Snapshot();
  // Overlay the sampled gauges (see Ctr::kFirstSampledGauge).
  uint64_t splits = 0;
  uint64_t retries = 0;
  {
    // The reporter phase snapshots while the application may still be
    // creating schema; the latch pins the index list for the walk.
    SpinLatchGuard g(catalog_latch_);
    for (const Index* idx : index_list_) {
      splits += idx->tree().splits();
      retries += idx->tree().read_retries();
    }
  }
  auto set = [&snap](metrics::Ctr c, uint64_t v) {
    snap.counters[static_cast<size_t>(c)] = v;
  };
  set(metrics::Ctr::kIndexNodeSplits, splits);
  set(metrics::Ctr::kIndexReadRetries, retries);
  set(metrics::Ctr::kTidOccupancyHwm, tids_.OccupancyHighWaterMark());
  set(metrics::Ctr::kTidActiveTxns, tids_.ActiveCount());
  set(metrics::Ctr::kEpochBoundaryLag,
      gc_epoch_.current() - gc_epoch_.ReclaimBoundary());
  const VersionAllocator::Stats va = VersionAllocator::Instance().Snapshot();
  set(metrics::Ctr::kVerAllocSlabBytes, va.slab_bytes);
  set(metrics::Ctr::kVerAllocFreelistHits, va.freelist_hits);
  set(metrics::Ctr::kVerAllocSlabCarves, va.slab_carves);
  set(metrics::Ctr::kVerAllocTransferPushes, va.transfer_pushes);
  set(metrics::Ctr::kVerAllocTransferPops, va.transfer_pops);
  set(metrics::Ctr::kVerAllocMallocFallbacks, va.malloc_fallbacks);
  set(metrics::Ctr::kVerAllocDeferredFrees, va.deferred_frees);
  set(metrics::Ctr::kVerAllocLimboRecycled, va.limbo_recycled);
  set(metrics::Ctr::kVerAllocLimboSize, va.limbo_size);
  // Flight-recorder totals (process-global rings, trace/trace.h): recorded
  // events and events lost to ring wrap.
  set(metrics::Ctr::kTraceEventsRecorded, trace::TotalRecorded());
  set(metrics::Ctr::kTraceEventsDropped, trace::TotalDropped());
  // Safe-snapshot maintenance + reader-registry saturation.
  const SafeSnapshotManager::Stats ss = safesnap_.GetStats();
  set(metrics::Ctr::kSsnSafeSnapshotLsn, ss.published);
  set(metrics::Ctr::kSsnSafesnapRounds, ss.rounds);
  set(metrics::Ctr::kSsnSafesnapBurnt, ss.burnt);
  set(metrics::Ctr::kSsnReaderSlotWaits, ssn_readers_.slot_waits());
  // Degraded-mode health gauges (log stall protocol, governor, watchdog).
  set(metrics::Ctr::kLogHealthState,
      static_cast<uint64_t>(log_.health()));
  set(metrics::Ctr::kGovWriterLimit,
      governor_ != nullptr ? governor_->writer_limit() : 0);
  set(metrics::Ctr::kGovInflightWriters,
      governor_ != nullptr ? governor_->inflight() : 0);
  set(metrics::Ctr::kGovAbortRatePermille,
      governor_ != nullptr ? governor_->abort_rate_permille() : 0);
  set(metrics::Ctr::kWatchdogLastTripReason,
      watchdog_ != nullptr ? static_cast<uint64_t>(watchdog_->last_reason())
                           : 0);
  return snap;
}

Index* Database::IndexByFid(Fid fid) const {
  if (fid == 0 || fid > by_fid_.size() || fid_is_table_[fid - 1]) {
    return nullptr;
  }
  return static_cast<Index*>(by_fid_[fid - 1]);
}

}  // namespace ermia
