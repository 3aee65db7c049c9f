// Content-addressed artifact store for the batch projection service.
//
// Every expensive input of a projection — an IMB database, a SPEC-style
// library, an application base profile, a surrogate search result — is a
// pure function of a describable set of inputs.  The
// cache keys each artifact by an FNV-1a fingerprint of its canonical input
// description (serialised with io/record so the key survives formatting
// churn), keeps a bounded in-memory tier per kind, and, when a cache
// directory is configured, persists every kind through io/persist so a
// later process can skip simulation — and the GA search — entirely.
//
// Cross-process coordination: persistent-kind misses are serialised through
// a per-key flock lock file, so concurrent standalone processes sharing one
// cache directory compute each artifact once instead of racing (the loser
// of the race re-probes the disk after acquiring the lock and finds the
// winner's file).  The resident daemon is unaffected — it already owns its
// directory, so its locks are always uncontended.
//
// Correctness stance: values are returned as shared_ptr-to-const, so an
// entry evicted while in use stays alive for its holders; a corrupted or
// truncated disk file is counted, discarded, and recomputed — never trusted.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/compute_projection.h"
#include "core/profiles.h"
#include "imb/suite.h"
#include "machine/machine.h"

namespace swapp::service {

/// Where a requested artifact actually came from.
enum class ArtifactSource { kComputed, kMemory, kDisk };
std::string to_string(ArtifactSource source);

/// Counters over one cache's lifetime (all kinds pooled).
struct CacheStats {
  std::size_t memory_hits = 0;
  std::size_t disk_hits = 0;
  std::size_t misses = 0;      ///< computed fresh (includes disk misses)
  std::size_t evictions = 0;   ///< memory-tier cost-aware evictions
  std::size_t corrupt_files = 0;  ///< disk entries rejected and recomputed
  std::size_t disk_evictions = 0;  ///< files removed to honour the byte cap
  std::size_t lock_waits = 0;  ///< misses that blocked on another process
};

/// 64-bit FNV-1a over a canonical input description.
std::uint64_t fingerprint(const std::string& canonical);
std::string fingerprint_hex(std::uint64_t value);

// --- canonical input descriptions ------------------------------------------
// Each helper serialises the inputs that determine an artifact with
// io::RecordWriter, so two call sites agree on a key iff they agree on the
// inputs.  Machine models are identified by name plus headline geometry (the
// models themselves are code; changing code invalidates caches by version).
std::string describe_machine(const machine::Machine& m);
std::string describe_imb_inputs(const machine::Machine& m,
                                const std::vector<int>& core_counts,
                                const std::vector<Bytes>& sizes);
std::string describe_spec_inputs(const machine::Machine& base,
                                 const std::vector<machine::Machine>& targets,
                                 const std::vector<int>& task_counts);
std::string describe_app_inputs(const std::string& app_name,
                                const machine::Machine& base, int threads,
                                const std::vector<int>& mpi_counts,
                                const std::vector<int>& counter_counts);

class ArtifactCache {
 public:
  /// `cache_dir` empty disables the disk tier; otherwise the directory is
  /// created on first save.  `capacity_per_kind` bounds each kind's memory
  /// tier; beyond it the entry with the lowest observed cost-per-byte is
  /// evicted (the cheapest to bring back relative to the memory it holds;
  /// LRU breaks ties, so uniform costs degrade to plain LRU).
  /// `max_disk_bytes` (0 = unbounded) caps the disk
  /// tier: after every save, oldest-mtime `.swapp` files are removed until
  /// the directory fits the cap again (the just-written file is never the
  /// victim, so a single artifact larger than the cap still persists).
  explicit ArtifactCache(std::filesystem::path cache_dir = {},
                         std::size_t capacity_per_kind = 16,
                         std::uintmax_t max_disk_bytes = 0);
  ~ArtifactCache();

  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// Each getter returns the artifact for `canonical_inputs`, preferring
  /// memory, then disk (persistent kinds), then `make()`; `source` (if
  /// non-null) reports which tier satisfied the request.  Thread-safe;
  /// `make` runs outside the cache lock, so concurrent first requests for
  /// the same key may compute twice (harmlessly — the value is a pure
  /// function of the key).
  std::shared_ptr<const imb::ImbDatabase> imb_database(
      const std::string& canonical_inputs,
      const std::function<imb::ImbDatabase()>& make,
      ArtifactSource* source = nullptr);
  std::shared_ptr<const core::SpecLibrary> spec_library(
      const std::string& canonical_inputs,
      const std::function<core::SpecLibrary()>& make,
      ArtifactSource* source = nullptr);
  std::shared_ptr<const core::AppBaseData> app_data(
      const std::string& canonical_inputs,
      const std::function<core::AppBaseData()>& make,
      ArtifactSource* source = nullptr);

  /// Persistent: a finished GA search is the single most expensive artifact
  /// per byte the pipeline produces, so warm processes replay it from disk.
  /// The canonical inputs MUST describe everything the search consumed —
  /// including the spec-library inputs — or a stale surrogate could pair
  /// with a different library.
  std::shared_ptr<const core::ComputeProjection> surrogate_projection(
      const std::string& canonical_inputs,
      const std::function<core::ComputeProjection()>& make,
      ArtifactSource* source = nullptr);

  CacheStats stats() const;

  /// Half-life (seconds) of the age decay applied to the memory-tier
  /// eviction score: an entry's cost-per-byte halves for every half-life it
  /// goes untouched, so a long-lived daemon cannot pin a once-expensive
  /// artifact forever.  0 disables decay.  Default: 30 minutes.
  void set_eviction_half_life(Seconds half_life);

  /// Test seam: ages every resident entry by `seconds` without sleeping
  /// (subtracts from the last-touch stamps, deterministically).
  void debug_age_entries(Seconds seconds);

  /// Test seam: replaces the clock (microseconds) that measures each entry's
  /// cost and stamps its touches, so a test can give entries exact costs and
  /// the eviction order no longer depends on host load.  Install it before
  /// the cache is used; null restores the trace clock.
  void debug_set_clock(std::function<double()> now_us);

 private:
  struct Impl;
  std::filesystem::path cache_dir_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace swapp::service
