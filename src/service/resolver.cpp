#include "service/resolver.h"

#include <atomic>
#include <sstream>
#include <utility>

#include "io/persist.h"
#include "io/record.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/parallel.h"

namespace swapp::service {
namespace {

/// Resolves every job over the pool under one span, then notes each
/// artifact in job order (so notes never depend on the thread count).
/// `get(job, &source)` returns the artifact; `label(job)` names its note.
template <typename Job, typename Get, typename Label>
auto resolve_all([[maybe_unused]] const char* span,
                 const std::vector<Job>& jobs,
                 std::vector<ArtifactNote>& notes, Get&& get,
                 Label&& label) {
  using T = decltype(get(jobs.front(), nullptr));
  struct Got {
    T value;
    ArtifactSource source = ArtifactSource::kComputed;
  };
  std::vector<Got> gots;
  {
    SWAPP_SPAN(span);
    gots = parallel_map(jobs, [&](const Job& job) {
      Got got;
      got.value = get(job, &got.source);
      return got;
    });
  }
  std::vector<T> out;
  out.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    notes.push_back({label(jobs[i]), gots[i].source});
    out.push_back(std::move(gots[i].value));
  }
  return out;
}

}  // namespace

bool RunReport::warm() const {
  for (const ArtifactNote& note : artifacts) {
    if (note.source == ArtifactSource::kComputed) return false;
  }
  return true;
}

ArtifactResolver::ArtifactResolver(machine::Machine base,
                                   const CacheConfig& config)
    : base_(std::move(base)),
      cache_(config.shared_cache
                 ? config.shared_cache
                 : std::make_shared<ArtifactCache>(
                       config.cache_dir, config.cache_capacity,
                       config.cache_dir_max_bytes)),
      collect_imb_([](const machine::Machine& m) {
        return imb::measure_database(m);
      }) {}

void ArtifactResolver::set_spec_collector(SpecCollector collect) {
  collect_spec_ = std::move(collect);
}

void ArtifactResolver::set_imb_collector(ImbCollector collect) {
  SWAPP_REQUIRE(collect != nullptr, "IMB collector must be callable");
  collect_imb_ = std::move(collect);
}

void ArtifactResolver::add_app(const std::string& name,
                               std::string canonical_inputs,
                               AppCollector collect) {
  SWAPP_REQUIRE(collect != nullptr, "app collector must be callable");
  apps_[name] =
      AppEntry{std::move(canonical_inputs), std::move(collect), nullptr};
}

void ArtifactResolver::add_app_file(const std::string& name,
                                    const std::filesystem::path& path) {
  auto data =
      std::make_shared<const core::AppBaseData>(io::load_app_data(path));
  // The file bypassed collection, so it carries no input description: its
  // content is the key.
  std::ostringstream os;
  io::write_app_data(os, *data);
  apps_[name] =
      AppEntry{"app-content:" + fingerprint_hex(fingerprint(os.str())),
               nullptr, std::move(data)};
}

bool ArtifactResolver::has_app(const std::string& name) const {
  return apps_.find(name) != apps_.end();
}

ArtifactResolver::Run::Run(ArtifactResolver& resolver,
                           const ResolverNames& names, RunReport& report)
    : resolver_(resolver),
      names_(names),
      report_(report),
      phase_start_(std::chrono::steady_clock::now()) {}

void ArtifactResolver::Run::end_phase(const char* phase) {
  const auto now = std::chrono::steady_clock::now();
  report_.phases.push_back(PhaseTime{
      phase, std::chrono::duration<double>(now - phase_start_).count()});
  phase_start_ = now;
}

void ArtifactResolver::Run::finish() {
  report_.cache = resolver_.cache_->stats();
  // Machine-readable exports (--metrics, the server's stats endpoint) carry
  // per-phase wall-clock without parsing stderr.
  if (!obs::metrics_enabled()) return;
  const std::string layer = names_.layer;
  for (const PhaseTime& p : report_.phases) {
    obs::Gauge(layer + ".phase_s." + p.phase).set(p.seconds);
    obs::Histogram(layer + ".phase_us." + p.phase).observe(p.seconds * 1e6);
  }
}

std::vector<ArtifactResolver::Library>
ArtifactResolver::Run::spec_libraries(const std::vector<LibraryJob>& jobs,
                                      const std::vector<int>& task_counts) {
  SWAPP_REQUIRE(resolver_.collect_spec_ != nullptr,
                "spec collector not set (see set_spec_collector)");
  const machine::Machine& base = resolver_.base_;
  return resolve_all(
      names_.spec_span, jobs, report_.artifacts,
      [&](const LibraryJob& job, ArtifactSource* source) {
        Library lib;
        lib.key = describe_spec_inputs(base, job.targets, task_counts);
        lib.data = resolver_.cache_->spec_library(
            lib.key,
            [&] {
              return resolver_.collect_spec_(base, job.targets, task_counts);
            },
            source);
        return lib;
      },
      [](const LibraryJob& job) { return job.label; });
}

std::vector<std::shared_ptr<const imb::ImbDatabase>>
ArtifactResolver::Run::imb_databases(
    const std::vector<machine::Machine>& machines) {
  return resolve_all(
      names_.imb_span, machines, report_.artifacts,
      [&](const machine::Machine& m, ArtifactSource* source) {
        return resolver_.cache_->imb_database(
            describe_imb_inputs(m, imb::default_core_counts(),
                                imb::default_message_sizes()),
            [&] { return resolver_.collect_imb_(m); }, source);
      },
      [](const machine::Machine& m) {
        return "IMB database (" + m.name + ")";
      });
}

std::vector<ArtifactResolver::App> ArtifactResolver::Run::app_profiles(
    const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    if (!resolver_.has_app(name)) {
      throw NotFound("app not registered: " + name);
    }
  }
  return resolve_all(
      names_.app_span, names, report_.artifacts,
      [&](const std::string& name, ArtifactSource* source) {
        const AppEntry& entry = resolver_.apps_.at(name);
        if (entry.fixed) {
          *source = ArtifactSource::kMemory;
          return App{entry.key, entry.fixed};
        }
        return App{entry.key, resolver_.cache_->app_data(
                                  entry.key, entry.collect, source)};
      },
      [](const std::string& name) { return "app profile (" + name + ")"; });
}

std::vector<std::shared_ptr<const core::ComputeProjection>>
ArtifactResolver::Run::searches(const std::vector<SearchJob>& jobs) {
  const machine::Machine& base = resolver_.base_;
  std::atomic<std::size_t> ran{0};
  auto out = resolve_all(
      names_.search_span, jobs, report_.artifacts,
      [&](const SearchJob& job, ArtifactSource* source) {
        // The key carries everything the search consumes: the library's
        // full input description, the app's identity, and the search shape.
        std::ostringstream key;
        key << job.library->key << job.app->key;
        {
          io::RecordWriter w(key, "swapp-search-inputs", 1);
          w.row("search")
              .field(job.target)
              .field(job.search_ck)
              .field(job.threads)
              .field(core::compute_options_key(job.options));
        }
        return resolver_.cache_->surrogate_projection(
            key.str(),
            [&] {
              ran.fetch_add(1, std::memory_order_relaxed);
              const core::SpecLibrary& lib = *job.library->data;
              const auto target_it = lib.targets.find(job.target);
              SWAPP_REQUIRE(target_it != lib.targets.end(),
                            "collected library has no target: " + job.target);
              // A job occupies search_ck · threads hardware threads under
              // block placement, capped by the node size on each machine.
              const int demand = job.search_ck * job.threads;
              const core::SpecIndex index = core::SpecIndex::build(
                  lib, job.target,
                  core::SpecLibrary::occupancy_for(demand, base.cores_per_node),
                  core::SpecLibrary::occupancy_for(
                      demand, target_it->second.cores_per_node));
              return core::project_compute(*job.app->data, index, base,
                                           job.target, job.search_ck,
                                           job.options);
            },
            source);
      },
      [](const SearchJob& job) {
        return "surrogate (" + job.app_name + " @ " + job.target + " / " +
               std::to_string(job.search_ck) + ")";
      });
  report_.searches_run += ran.load(std::memory_order_relaxed);
  return out;
}

core::ProjectionResult project_from_surrogate(
    const core::AppBaseData& app, const std::string& target, int ck,
    int search_ck, const core::ComputeProjection& surrogate,
    const imb::ImbDatabase& base_imb, const imb::ImbDatabase& target_imb,
    const core::ProjectionOptions& options) {
  core::ProjectionResult out;
  out.app = app.app;
  out.target = target;
  out.cores = ck;
  out.compute = ck == search_ck ? surrogate
                                : core::rescale_reference(surrogate, app,
                                                          search_ck, ck);
  out.comm = core::project_comm_component(app, ck, base_imb, target_imb,
                                          out.compute.compute_scale(),
                                          options);
  return out;
}

}  // namespace swapp::service
