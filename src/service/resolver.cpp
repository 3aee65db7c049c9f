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

/// Key of an artifact loaded from a file: a fingerprint of its canonical
/// serialisation, since the file carries no input description.
template <typename T>
std::string content_key(const char* kind, const T& value,
                        void (*write)(std::ostream&, const T&)) {
  std::ostringstream os;
  write(os, value);
  return std::string(kind) + "-content:" +
         fingerprint_hex(fingerprint(os.str()));
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
                       config.cache_dir,
                       ArtifactCache::kDefaultCapacityPerKind,
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

const core::AppBaseData& ArtifactResolver::add_app_file(
    const std::string& name, const std::filesystem::path& path) {
  auto data =
      std::make_shared<const core::AppBaseData>(io::load_app_data(path));
  // The file bypassed collection, so it carries no input description: its
  // content is the key.
  apps_[name] =
      AppEntry{content_key("app", *data, &io::write_app_data), nullptr, data};
  return *data;
}

void ArtifactResolver::add_spec_file(const std::filesystem::path& path) {
  auto data =
      std::make_shared<const core::SpecLibrary>(io::load_spec_library(path));
  spec_file_ = Library{content_key("spec", *data, &io::write_spec_library),
                       std::move(data)};
}

void ArtifactResolver::add_imb_file(const std::string& machine_name,
                                    const std::filesystem::path& path) {
  imb_files_[machine_name] =
      std::make_shared<const imb::ImbDatabase>(io::load_imb_database(path));
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
  SWAPP_REQUIRE(resolver_.collect_spec_ != nullptr ||
                    resolver_.spec_file_.data != nullptr,
                "spec collector not set (see set_spec_collector)");
  const machine::Machine& base = resolver_.base_;
  return resolve_all(
      names_.spec_span, jobs, report_.artifacts,
      [&](const LibraryJob& job, ArtifactSource* source) {
        if (resolver_.spec_file_.data) {
          *source = ArtifactSource::kMemory;
          return resolver_.spec_file_;
        }
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
        const auto file = resolver_.imb_files_.find(m.name);
        if (file != resolver_.imb_files_.end()) {
          *source = ArtifactSource::kMemory;
          return file->second;
        }
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

std::vector<core::ProjectionResult> ArtifactResolver::Run::project_batch(
    const BatchPlan& plan, const std::vector<ServiceRequest>& requests,
    const Library& library, const std::vector<machine::Machine>& targets) {
  // IMB databases, base first then the targets in the order given.
  std::vector<machine::Machine> machines{resolver_.base_};
  machines.insert(machines.end(), targets.begin(), targets.end());
  const std::vector<std::shared_ptr<const imb::ImbDatabase>> imb =
      imb_databases(machines);
  std::map<std::string, const imb::ImbDatabase*> target_imb;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    target_imb.emplace(targets[i].name, imb[i + 1].get());
  }
  end_phase("imb-databases");

  // Application base profiles, in plan (first-appearance) order.
  const std::vector<App> apps = app_profiles(plan.apps);
  std::map<std::string, const App*> app_of;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    app_of.emplace(plan.apps[i], &apps[i]);
  }
  end_phase("app-profiles");

  // The planned searches, then every request from its search.
  std::vector<SearchJob> jobs;
  jobs.reserve(plan.searches.size());
  for (const BatchPlan::Search& s : plan.searches) {
    const App& app = *app_of.at(s.app);
    SWAPP_REQUIRE(app.data->threads_per_rank == s.threads,
                  "request thread count does not match the profile of " +
                      s.app);
    jobs.push_back(SearchJob{&library, &app, s.app, s.target, s.search_ck,
                             s.threads, s.options});
  }
  const std::vector<std::shared_ptr<const core::ComputeProjection>>
      surrogates = searches(jobs);
  std::vector<core::ProjectionResult> results(requests.size());
  {
    SWAPP_SPAN(names_.project_span);
    parallel_for(requests.size(), [&](std::size_t i) {
      const ServiceRequest& r = requests[i];
      const std::size_t s = plan.search_of[i];
      results[i] = core::project_from_surrogate(
          *app_of.at(r.app)->data, r.target, r.cores,
          plan.searches[s].search_ck, *surrogates[s], *imb.front(),
          *target_imb.at(r.target), r.options);
    });
  }
  end_phase("projection");
  return results;
}

}  // namespace swapp::service
