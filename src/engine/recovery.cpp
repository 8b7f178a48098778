// Recovery (paper §3.7): restore the OID arrays from the newest usable
// checkpoint, then roll forward by scanning the log tail and replaying the
// allocator effects of insert/update/delete records. Payloads are fetched
// through their durable log addresses — the log is the database. The process
// is identical after a clean shutdown and after a crash; a crash merely means
// a less recent checkpoint and a longer tail.
//
// Shared-nothing replay (EngineConfig::recovery_threads workers): the
// indirection arrays (§3.2) and segmented LSN space (§3.3) make replay order
// matter only per version chain (per OID) and per key within one index. The
// calling thread reads the log in chunks of several MiB
// (LogScanner::ScanChunks), walking only block headers. Each chunk then takes
// two steps on one crew of workers:
//
//   1. verify: the workers checksum strided shares of the chunk's blocks.
//      The first bad block is then known, and the log ends there — no block
//      after it is installed, even one another worker verified;
//   2. install: every worker walks the valid blocks in log order and
//      installs only the records of its own partition:
//        * table records (insert/update/delete) by stripes of consecutive
//          OIDs, so one worker owns each chain (clsn-ordered install needs
//          no atomics beyond the slot store) and workers do not share the
//          indirection array's cache lines;
//        * index records by a hash of the key, so one worker sees each
//          key's inserts in log order and first-insert-wins holds on the
//          concurrent OLC tree.
//
// Checkpoint loading runs on the same crew, partitioned by the same OID
// stripes, so the primary/secondary dedup rule (install once, clsn check)
// runs on one worker per OID; the image is fully parsed and
// checksum-verified before anything is installed, and the checkpoint step
// completes before tail replay starts. recovery_threads=1 runs the same code
// with one worker; the crash harness compares 1 and N workers.
//
// Checkpoint fallback: markers are tried newest-to-oldest. A checkpoint data
// file is parsed and checksum-verified IN FULL before a single version or
// index entry is installed, so a torn or corrupt checkpoint never pollutes
// the engine — recovery falls back to the next-older marker, and ultimately
// to a full-log replay, instead of failing with Corruption.
//
// Call order: create the schema (same names, same order as the original
// incarnation), Open() the database (which re-adopts and truncates the
// on-disk log), then Recover().
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "common/fault_injection.h"
#include "engine/checkpoint_format.h"
#include "engine/database.h"
#include "log/log_scan.h"

namespace ermia {

namespace {

// Reads exactly n bytes into dst. Retries EINTR/partial reads; a short read
// at EOF yields Corruption (the file ended early — torn), a hard error
// yields IOError.
Status ReadAll(int fd, void* dst, size_t n) {
  bool hard_error = false;
  if (fault::ReadFull(fd, dst, n, &hard_error) != n) {
    return hard_error ? Status::IOError("checkpoint read failed")
                      : Status::Corruption("checkpoint file truncated");
  }
  return Status::OK();
}

// Every checkpoint marker in the directory, newest first.
std::vector<uint64_t> FindCheckpointMarkers(const std::string& dir) {
  std::vector<uint64_t> begins;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return begins;
  struct dirent* ent;
  while ((ent = ::readdir(d)) != nullptr) {
    uint64_t off = 0;
    if (std::sscanf(ent->d_name, "cmark-%16" SCNx64, &off) == 1) {
      begins.push_back(off);
    }
  }
  ::closedir(d);
  std::sort(begins.rbegin(), begins.rend());
  return begins;
}

// Fully parsed, checksum-verified checkpoint data file. Nothing in here has
// touched the engine yet.
struct CheckpointImage {
  struct TableHwm {
    Fid fid;
    uint32_t hwm;
  };
  struct Entry {
    std::string key;
    Oid oid;
    uint64_t clsn;
    uint64_t log_ptr;
    uint32_t size;
    uint8_t tombstone;
  };
  struct IndexSection {
    Fid fid;
    std::vector<Entry> entries;
  };
  std::vector<TableHwm> tables;
  std::vector<IndexSection> indexes;
};

// Bounds-checked reader over the in-memory checkpoint body.
class BodyCursor {
 public:
  BodyCursor(const char* p, size_t n) : p_(p), end_(p + n) {}

  bool Read(void* dst, size_t n) {
    if (static_cast<size_t>(end_ - p_) < n) return false;
    std::memcpy(dst, p_, n);
    p_ += n;
    return true;
  }

  bool ReadString(std::string* dst, size_t n) {
    if (static_cast<size_t>(end_ - p_) < n) return false;
    dst->assign(p_, n);
    p_ += n;
    return true;
  }

  bool AtEnd() const { return p_ == end_; }

 private:
  const char* p_;
  const char* end_;
};

// Slurps, checksum-verifies, and parses a checkpoint data file. Returns
// Corruption/IOError without any side effect on the engine.
Status LoadCheckpointImage(const std::string& path, CheckpointImage* img) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("missing checkpoint data " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("fstat failed on " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < sizeof(uint32_t) * 3 + kCheckpointFooterSize) {
    ::close(fd);
    return Status::Corruption("checkpoint file too small");
  }
  std::vector<char> buf(file_size);
  Status rs = ReadAll(fd, buf.data(), buf.size());
  ::close(fd);
  ERMIA_RETURN_NOT_OK(rs);

  // Footer first: magic + LogChecksum over the body. A torn checkpoint (crash
  // mid-write before the marker of a LATER checkpoint, manual corruption,
  // bit rot) fails here and the caller falls back.
  const uint64_t body_size = file_size - kCheckpointFooterSize;
  uint32_t footer[2];
  std::memcpy(footer, buf.data() + body_size, sizeof footer);
  if (footer[0] != kCheckpointFooterMagic ||
      footer[1] != LogChecksum(buf.data(), body_size)) {
    return Status::Corruption("checkpoint checksum mismatch");
  }

  BodyCursor cur(buf.data(), body_size);
  uint32_t header[2];
  if (!cur.Read(header, sizeof header) || header[0] != kCheckpointMagic) {
    return Status::Corruption("bad checkpoint header");
  }
  const uint32_t num_indexes = header[1];
  uint32_t ntables = 0;
  if (!cur.Read(&ntables, sizeof ntables)) {
    return Status::Corruption("bad checkpoint table section");
  }
  for (uint32_t i = 0; i < ntables; ++i) {
    uint32_t rec[2];
    if (!cur.Read(rec, sizeof rec)) {
      return Status::Corruption("bad checkpoint table entry");
    }
    img->tables.push_back({rec[0], rec[1]});
  }
  for (uint32_t i = 0; i < num_indexes; ++i) {
    CheckpointImage::IndexSection section;
    uint64_t count = 0;
    if (!cur.Read(&section.fid, sizeof section.fid) ||
        !cur.Read(&count, sizeof count)) {
      return Status::Corruption("bad checkpoint index section");
    }
    section.entries.reserve(count);
    for (uint64_t j = 0; j < count; ++j) {
      CheckpointImage::Entry e;
      uint16_t klen = 0;
      if (!cur.Read(&klen, sizeof klen) || klen > kMaxKeySize ||
          !cur.ReadString(&e.key, klen) || !cur.Read(&e.oid, sizeof e.oid) ||
          !cur.Read(&e.clsn, sizeof e.clsn) ||
          !cur.Read(&e.log_ptr, sizeof e.log_ptr) ||
          !cur.Read(&e.size, sizeof e.size) ||
          !cur.Read(&e.tombstone, sizeof e.tombstone)) {
        return Status::Corruption("bad checkpoint entry");
      }
      section.entries.push_back(std::move(e));
    }
    img->indexes.push_back(std::move(section));
  }
  if (!cur.AtEnd()) return Status::Corruption("trailing checkpoint bytes");
  return Status::OK();
}

// Installs (or refreshes) a record version during recovery. Within one
// replay each (table, OID) is touched by exactly one worker (partition
// routing), so plain stores suffice; `clsn_value` orders competing records.
void InstallRecovered(Table* table, Oid oid, const Slice& payload,
                      bool tombstone, uint64_t clsn_value, uint64_t log_ptr) {
  IndirectionArray& array = table->array();
  array.EnsureAllocatedThrough(oid);
  Version* head = array.Head(oid);
  if (head != nullptr &&
      head->clsn.load(std::memory_order_relaxed) >= clsn_value) {
    return;  // already have this state or newer (fuzzy checkpoint overlap)
  }
  Version* v = Version::Alloc(payload, tombstone);
  v->clsn.store(clsn_value, std::memory_order_relaxed);
  v->log_ptr = log_ptr;
  v->next.store(head, std::memory_order_relaxed);
  array.PutHead(oid, v);
}

// Table records and checkpoint entries: stripes of 2^kOidStripeBits
// consecutive OIDs, dealt round-robin to the workers. Each worker's slots of
// an indirection array are contiguous runs, unlike a per-OID hash, which put
// every worker on every cache line of the array.
constexpr uint32_t kOidStripeBits = 10;

uint32_t OidPartition(Oid oid, uint32_t n) {
  return (oid >> kOidStripeBits) % n;
}

// Index records: all inserts of one key go to one worker, so the serial
// first-insert-wins outcome per key is reproduced exactly.
uint32_t KeyPartition(const char* key, size_t len, uint32_t n) {
  return crc32c::Value(key, len) % n;
}

using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count());
}

// A fixed crew of replay workers. Run(step) calls step(w) once for every
// worker w in [0, size()) — worker 0 on the calling thread, the rest on the
// crew's threads — and returns when all are done, so each step ends in a
// barrier; an exception from any worker is rethrown from Run() after it.
// With one worker no thread is started.
class ReplayCrew {
 public:
  explicit ReplayCrew(uint32_t workers) {
    threads_.reserve(workers - 1);
    for (uint32_t w = 1; w < workers; ++w) {
      threads_.emplace_back([this, w] { Loop(w); });
    }
  }

  ~ReplayCrew() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      quit_ = true;
    }
    start_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  ReplayCrew(const ReplayCrew&) = delete;
  ReplayCrew& operator=(const ReplayCrew&) = delete;

  uint32_t size() const { return static_cast<uint32_t>(threads_.size()) + 1; }

  void Run(const std::function<void(uint32_t)>& step) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      step_ = &step;
      pending_ = threads_.size();
      ++generation_;
    }
    start_cv_.notify_all();
    std::exception_ptr error;
    try {
      step(0);
    } catch (...) {
      error = std::current_exception();
    }
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [this] { return pending_ == 0; });
    if (error == nullptr) error = error_;
    error_ = nullptr;
    if (error != nullptr) std::rethrow_exception(error);
  }

 private:
  void Loop(uint32_t w) {
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(uint32_t)>* step = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu_);
        start_cv_.wait(lk, [&] { return quit_ || generation_ != seen; });
        if (quit_) break;
        seen = generation_;
        step = step_;
      }
      std::exception_ptr error;
      try {
        (*step)(w);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lk(mu_);
      if (error != nullptr && error_ == nullptr) error_ = error;
      if (--pending_ == 0) done_cv_.notify_one();
    }
    ThreadRegistry::Deregister();
  }

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(uint32_t)>* step_ = nullptr;  // guarded by mu_
  uint64_t generation_ = 0;                              // guarded by mu_
  size_t pending_ = 0;                                   // guarded by mu_
  std::exception_ptr error_;                             // guarded by mu_
  bool quit_ = false;                                    // guarded by mu_
  std::vector<std::thread> threads_;  // last: the threads use the above
};

// One worker's install pass over one chunk (or over a checkpoint image).
void ObserveBatch(Database* db, uint64_t records, Clock::time_point t0) {
  db->metrics().Observe(metrics::Hist::kRecoveryBatchRecords, records);
  db->metrics().Observe(metrics::Hist::kRecoveryBatchUs, MicrosSince(t0));
}

uint32_t ResolveRecoveryThreads(const EngineConfig& config) {
  uint32_t n = config.recovery_threads;
  if (n == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = hw == 0 ? 1 : hw;
  }
  // The crew shares the dense thread registry with the rest of the engine;
  // stay well below kMaxThreads.
  return std::min(n, 64u);
}

// Resolves the image against the schema and installs it on the crew. The
// image is already checksum-verified, so every entry is authentic committed
// state; a failure here (unknown fid = schema drift, unreadable log address)
// aborts the attempt and the caller falls back to an older checkpoint —
// versions installed so far are harmless, since they carry true clsns and
// the clsn-ordered install rule keeps newer state on top.
Status ApplyCheckpointImage(Database* db, const CheckpointImage& img,
                            const LogScanner& scanner, ReplayCrew& crew) {
  // Resolve every fid before installing anything: schema drift fails the
  // whole attempt instead of leaving a half-installed image behind.
  for (const auto& t : img.tables) {
    if (db->TableByFid(t.fid) == nullptr) {
      return Status::Corruption("checkpoint references unknown table fid");
    }
  }
  std::vector<Index*> section_index(img.indexes.size());
  for (size_t i = 0; i < img.indexes.size(); ++i) {
    section_index[i] = db->IndexByFid(img.indexes[i].fid);
    if (section_index[i] == nullptr) {
      return Status::Corruption("checkpoint references unknown index fid");
    }
  }
  for (const auto& t : img.tables) {
    Table* table = db->TableByFid(t.fid);
    if (t.hwm > 1) table->array().EnsureAllocatedThrough(t.hwm - 1);
  }

  // Each worker installs the entries of its OID stripes and their index
  // mappings. The version is installed once even when secondary sections
  // repeat the OID (the clsn check deduplicates on the OID's one worker).
  const uint32_t n = crew.size();
  std::vector<Status> errors(n);
  crew.Run([&](uint32_t w) {
    const auto t0 = Clock::now();
    uint64_t installed = 0;
    std::vector<char> payload;
    for (size_t i = 0; i < img.indexes.size() && errors[w].ok(); ++i) {
      Index* index = section_index[i];
      Table* table = index->table();
      for (const auto& e : img.indexes[i].entries) {
        if (OidPartition(e.oid, n) != w) continue;
        if (e.tombstone) {
          // No payload to fetch: install the tombstone directly. The index
          // entry below keeps the key→OID mapping alive for replayed
          // tombstone-overwrite updates.
          InstallRecovered(table, e.oid, Slice(), true, e.clsn, e.log_ptr);
        } else {
          payload.resize(e.size);
          Status s = scanner.ReadAt(e.log_ptr, payload.data(), e.size);
          if (!s.ok()) {
            errors[w] = s;
            break;
          }
          InstallRecovered(table, e.oid, Slice(payload.data(), e.size), false,
                           e.clsn, e.log_ptr);
        }
        index->tree().Insert(Slice(e.key), e.oid, nullptr, nullptr);
        ++installed;
      }
    }
    db->metrics().Inc(metrics::Ctr::kRecoveryCheckpointEntries, installed);
    ObserveBatch(db, installed, t0);
  });
  for (const Status& s : errors) ERMIA_RETURN_NOT_OK(s);
  return Status::OK();
}

}  // namespace

Status Database::RecoverImpl() {
  LogScanner scanner(config_.log_dir);
  ERMIA_RETURN_NOT_OK(scanner.Init());
  // Per-operation logs (Fig. 10 WAL emulation) write records as operations
  // execute, before the transaction's fate is known; replaying them would
  // resurrect the writes of aborted transactions. The mode is stamped into
  // each segment's file name, so refuse up front instead of installing
  // garbage.
  if (scanner.any_per_operation()) {
    return Status::InvalidArgument(
        "log was written with log_per_operation=true and is not recoverable: "
        "per-operation segments contain records of aborted transactions");
  }
  ReplayCrew crew(ResolveRecoveryThreads(config_));
  const uint32_t n = crew.size();

  // Try checkpoints newest-to-oldest; a corrupt/torn/unreadable one is
  // skipped, not fatal. With no usable checkpoint, replay the whole log.
  // The checkpoint step completes on every worker before the tail starts,
  // so tail records always install on top of checkpoint state.
  const auto ckpt_t0 = Clock::now();
  uint64_t replay_from = kLogStartOffset;
  for (uint64_t begin : FindCheckpointMarkers(config_.log_dir)) {
    const std::string path =
        config_.log_dir + "/" + CheckpointDataName(begin);
    CheckpointImage img;
    Status s = LoadCheckpointImage(path, &img);
    if (s.ok()) s = ApplyCheckpointImage(this, img, scanner, crew);
    if (s.ok()) {
      replay_from = begin;
      break;
    }
    std::fprintf(stderr,
                 "ermia: checkpoint %s unusable (%s); falling back to an "
                 "older checkpoint or full replay\n",
                 path.c_str(), s.ToString().c_str());
  }
  metrics_.Inc(metrics::Ctr::kRecoveryCheckpointUs, MicrosSince(ckpt_t0));

  // Roll forward from the checkpoint (or the log start), one chunk at a time.
  const LogChunk* chunk = nullptr;
  size_t valid = 0;  // leading blocks of `chunk` with a valid payload
  std::vector<size_t> first_bad(n);
  std::vector<Status> errors(n);

  const std::function<void(uint32_t)> verify = [&](uint32_t w) {
    size_t bad = chunk->blocks.size();
    for (size_t i = w; i < bad; i += n) {
      if (!chunk->blocks[i].PayloadValid()) bad = i;
    }
    first_bad[w] = bad;
  };

  const std::function<void(uint32_t)> install = [&](uint32_t w) {
    const auto t0 = Clock::now();
    uint64_t installed = 0;
    RecordView rec;
    for (size_t i = 0; i < valid && errors[w].ok(); ++i) {
      const ChunkBlock& b = chunk->blocks[i];
      const uint64_t clsn_value = Lsn::Make(b.hdr.offset, 0).value();
      RecordCursor cur(b.hdr.offset, b.payload, b.hdr.payload_bytes,
                       b.hdr.num_records);
      while (cur.Next(&rec)) {
        switch (rec.type) {
          case LogRecordType::kInsert:
          case LogRecordType::kUpdate:
          case LogRecordType::kDelete: {
            if (OidPartition(rec.oid, n) != w) break;
            Table* table = TableByFid(rec.fid);
            if (table == nullptr) break;  // unknown fid: schema drift
            if (rec.type == LogRecordType::kDelete) {
              InstallRecovered(table, rec.oid, Slice(), true, clsn_value, 0);
            } else {
              InstallRecovered(table, rec.oid,
                               Slice(rec.payload, rec.payload_size), false,
                               clsn_value, rec.payload_offset);
            }
            ++installed;
            break;
          }
          case LogRecordType::kIndexInsert: {
            if (KeyPartition(rec.key, rec.key_size, n) != w) break;
            Index* index = IndexByFid(rec.fid);
            if (index == nullptr) break;
            index->table()->array().EnsureAllocatedThrough(rec.oid);
            index->tree().Insert(Slice(rec.key, rec.key_size), rec.oid,
                                 nullptr, nullptr);
            ++installed;
            break;
          }
          default:
            break;
        }
      }
      errors[w] = cur.status();
    }
    ObserveBatch(this, installed, t0);
  };

  uint64_t verify_us = 0;
  uint64_t install_us = 0;
  Status replay_status;
  const auto scan_t0 = Clock::now();
  Status scan_status =
      scanner.ScanChunks(replay_from, [&](const LogChunk& c) -> size_t {
        chunk = &c;
        auto t0 = Clock::now();
        crew.Run(verify);
        valid = *std::min_element(first_bad.begin(), first_bad.end());
        verify_us += MicrosSince(t0);
        t0 = Clock::now();
        crew.Run(install);
        install_us += MicrosSince(t0);

        uint64_t bytes = 0;
        uint64_t records = 0;
        for (size_t i = 0; i < valid; ++i) {
          bytes += c.blocks[i].hdr.total_size;
          records += c.blocks[i].hdr.num_records;
        }
        metrics_.Inc(metrics::Ctr::kRecoveryReplayBlocks, valid);
        metrics_.Inc(metrics::Ctr::kRecoveryReplayBytes, bytes);
        metrics_.Inc(metrics::Ctr::kRecoveryReplayRecords, records);
        for (const Status& s : errors) {
          if (!s.ok()) {
            replay_status = s;
            return 0;  // stop the scan
          }
        }
        return valid;
      });
  const uint64_t scan_us = MicrosSince(scan_t0);
  metrics_.Inc(metrics::Ctr::kRecoveryVerifyUs, verify_us);
  metrics_.Inc(metrics::Ctr::kRecoveryInstallUs, install_us);
  metrics_.Inc(metrics::Ctr::kRecoveryReadUs,
               scan_us - std::min(scan_us, verify_us + install_us));
  ERMIA_RETURN_NOT_OK(scan_status);
  ERMIA_RETURN_NOT_OK(replay_status);
  RefreshOccSnapshot();
  return Status::OK();
}

Status Database::Recover() {
  if (log_.in_memory()) return Status::OK();  // nothing durable to recover
  ERMIA_CHECK(open_);
  const auto t0 = Clock::now();
  Status s = RecoverImpl();
  metrics_.Inc(metrics::Ctr::kRecoveryDurationUs, MicrosSince(t0));
  return s;
}

}  // namespace ermia
