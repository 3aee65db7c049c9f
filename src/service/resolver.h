// One typed artifact resolver for every engine that projects from cached
// inputs: the batch service (and through it `swapp project` and the daemon)
// and the sweep runner.
//
// The resolver owns the collectors and the application registry; a `Run`
// owns one execution's get-or-compute calls against the shared
// `ArtifactCache` — SPEC libraries, IMB databases, application profiles
// (from a collector or a file) and GA surrogate searches — each fanned out
// over the pool under its engine's span, with every artifact's tier noted
// in a deterministic order and the phases timed back to back.  Searches are
// a persistent kind keyed by everything they consume, so a warm run replays
// them from disk and performs none.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/projector.h"
#include "machine/machine.h"
#include "service/artifact_cache.h"

namespace swapp::service {

/// Where an engine's artifacts live.
struct CacheConfig {
  /// Artifact cache directory; empty keeps the cache in memory only.
  std::filesystem::path cache_dir;
  std::size_t cache_capacity = 16;
  /// Byte cap for the disk tier (0 = unbounded); see ArtifactCache.
  std::uintmax_t cache_dir_max_bytes = 0;
  /// When set, the engine records into this cache instead of owning one
  /// (the cache_* fields above are then ignored).  A long-running owner —
  /// the projection server — shares one resident cache across the
  /// short-lived engines it builds per run, making that owner the single
  /// process touching the cache directory.
  std::shared_ptr<ArtifactCache> shared_cache;
};

/// One acquired artifact and the tier that satisfied it.
struct ArtifactNote {
  std::string name;
  ArtifactSource source = ArtifactSource::kComputed;
};

/// Wall-clock time one phase of a run took.  Always measured (one clock
/// read per phase), independent of the obs runtime switches.
struct PhaseTime {
  std::string phase;
  double seconds = 0.0;
};

/// What every run reports beside its results.
struct RunReport {
  std::vector<ArtifactNote> artifacts;  ///< acquisition order
  CacheStats cache;                     ///< cumulative cache counters
  std::vector<PhaseTime> phases;        ///< execution order
  /// GA surrogate searches actually executed (memory or disk hits do not
  /// count; a warm run reports 0).
  std::size_t searches_run = 0;
  /// True iff every artifact came from the memory or disk tier.
  bool warm() const;
};

/// Span and phase-metric names one engine's runs record under, so each
/// engine keeps its own layer in traces and metrics.  All are literals.
struct ResolverNames {
  const char* layer;  ///< "<layer>.phase_s.<phase>" gauges
  const char* spec_span;
  const char* imb_span;
  const char* app_span;
  const char* search_span;
};

class ArtifactResolver {
 public:
  using SpecCollector = std::function<core::SpecLibrary(
      const machine::Machine& base,
      const std::vector<machine::Machine>& targets,
      const std::vector<int>& task_counts)>;
  using ImbCollector =
      std::function<imb::ImbDatabase(const machine::Machine&)>;
  using AppCollector = std::function<core::AppBaseData()>;
  using ArtifactNote = service::ArtifactNote;
  using PhaseTime = service::PhaseTime;

  ArtifactResolver(machine::Machine base, const CacheConfig& config);

  /// Collector for SPEC-style libraries; must be set before a run resolves
  /// one (this layer does not link a benchmark runner).  It must honour the
  /// machine configurations it receives, not look anything up by name.
  void set_spec_collector(SpecCollector collect);
  /// Collector for per-machine IMB databases; defaults to
  /// `imb::measure_database`.
  void set_imb_collector(ImbCollector collect);

  /// Registers an application by name.  `canonical_inputs` is the cache key
  /// material (see describe_app_inputs); `collect` produces the base profile
  /// on a cache miss.
  void add_app(const std::string& name, std::string canonical_inputs,
               AppCollector collect);
  /// Registers an already-collected profile from a file (loaded eagerly,
  /// never re-simulated or re-persisted, keyed by its content).
  void add_app_file(const std::string& name,
                    const std::filesystem::path& path);
  bool has_app(const std::string& name) const;

  ArtifactCache& cache() noexcept { return *cache_; }
  const machine::Machine& base() const noexcept { return base_; }

  /// A resolved artifact and the key material surrogate keys embed: a
  /// library's input description, an app's canonical inputs (or content
  /// fingerprint for a file-backed profile).
  template <typename T>
  struct Keyed {
    std::string key;
    std::shared_ptr<const T> data;
  };
  using Library = Keyed<core::SpecLibrary>;
  using App = Keyed<core::AppBaseData>;

  /// One SPEC library to resolve: the targets it covers and its note.
  struct LibraryJob {
    std::vector<machine::Machine> targets;
    std::string label;
  };
  /// One GA surrogate search: `app` at `search_ck` tasks × `threads` onto
  /// `target`, a machine `library` covers.  Both pointers are borrowed.
  struct SearchJob {
    const Library* library = nullptr;
    const App* app = nullptr;
    std::string app_name;
    std::string target;
    int search_ck = 0;
    int threads = 1;
    core::ComputeProjectionOptions options;
  };

  /// One execution, recording into `report`: each resolve call notes its
  /// artifacts in input order whatever the thread count, and `end_phase`
  /// closes the phase that began at construction or at the previous one.
  class Run {
   public:
    Run(ArtifactResolver& resolver, const ResolverNames& names,
        RunReport& report);

    void end_phase(const char* phase);
    /// Fills the report's cache counters and, when metrics are on,
    /// publishes the phases as "<layer>.phase_s.<phase>" gauges (latest
    /// run) and "<layer>.phase_us.<phase>" histograms (across runs).
    void finish();

    std::vector<Library> spec_libraries(const std::vector<LibraryJob>& jobs,
                                        const std::vector<int>& task_counts);
    std::vector<std::shared_ptr<const imb::ImbDatabase>> imb_databases(
        const std::vector<machine::Machine>& machines);
    /// Throws NotFound for an unregistered app.
    std::vector<App> app_profiles(const std::vector<std::string>& names);
    /// Keyed by the library's inputs, the app's key material and the search
    /// shape; a miss builds the spec index it needs outside the cache.
    std::vector<std::shared_ptr<const core::ComputeProjection>> searches(
        const std::vector<SearchJob>& jobs);

   private:
    ArtifactResolver& resolver_;
    ResolverNames names_;
    RunReport& report_;
    std::chrono::steady_clock::time_point phase_start_;
  };

 private:
  struct AppEntry {
    std::string key;
    AppCollector collect;                            ///< null for files
    std::shared_ptr<const core::AppBaseData> fixed;  ///< file-backed apps
  };

  machine::Machine base_;
  std::shared_ptr<ArtifactCache> cache_;
  SpecCollector collect_spec_;
  ImbCollector collect_imb_;
  std::map<std::string, AppEntry> apps_;
};

/// The projection of `app` at `ck` tasks onto `target` from the surrogate
/// searched at `search_ck`: the surrogate as-is at its own count, else
/// `core::rescale_reference`d to `ck`, then `core::project_comm_component`.
/// Byte-identical to `Projector::project` on the same inputs; the batch
/// service and the sweep runner build every result through it.
core::ProjectionResult project_from_surrogate(
    const core::AppBaseData& app, const std::string& target, int ck,
    int search_ck, const core::ComputeProjection& surrogate,
    const imb::ImbDatabase& base_imb, const imb::ImbDatabase& target_imb,
    const core::ProjectionOptions& options);

}  // namespace swapp::service
