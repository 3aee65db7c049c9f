// Tests for the batch projection service: service rows vs sequential
// `Projector::project` byte-identity on the same artifacts (at several
// thread counts, with and without a shared surrogate search), the
// content-addressed artifact cache (round-trip, corruption fallback,
// eviction), the request planner's dedup, and the
// artifact resolver (warm replay of searches, surrogate-key completeness,
// span coverage of a run).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "core/projector.h"
#include "experiments/lab.h"
#include "imb/suite.h"
#include "io/persist.h"
#include "machine/machine.h"
#include "nas/nas_app.h"
#include "obs/trace.h"
#include "service/artifact_cache.h"
#include "service/planner.h"
#include "service/resolver.h"
#include "service/service.h"
#include "support/error.h"
#include "support/parallel.h"

namespace swapp {
namespace {

using experiments::collect_base_data;
using experiments::collect_spec_library;

const std::vector<int> kCounts = {8, 16, 32};
const std::vector<Bytes> kSizes = {512, 16_KiB, 256_KiB};

/// Restores the default pool size when a test changes it.
struct ThreadCountGuard {
  ~ThreadCountGuard() { set_thread_count(0); }
};

/// Shared fixture: small grids, one target, an LU profile.
class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_ = new machine::Machine(machine::make_power5_hydra());
    target_ = new machine::Machine(machine::make_power6_575());
    spec_ = new core::SpecLibrary(
        collect_spec_library(*base_, {*target_}, kCounts));
    base_imb_ = new imb::ImbDatabase(
        imb::measure_database(*base_, kCounts, kSizes));
    target_imb_ = new imb::ImbDatabase(
        imb::measure_database(*target_, kCounts, kSizes));
    projector_ = new core::Projector(*base_, *spec_, *base_imb_);
    projector_->add_target(target_->name, *target_imb_);
    const nas::NasApp lu(nas::Benchmark::kLU, nas::ProblemClass::kC);
    lu_data_ = new core::AppBaseData(
        collect_base_data(lu, *base_, {4, 8, 16}, {4, 8, 16}));
  }
  static void TearDownTestSuite() {
    delete projector_;
    delete lu_data_;
    delete spec_;
    delete base_imb_;
    delete target_imb_;
    delete base_;
    delete target_;
  }

  /// LU/C onto the target at 4, 8 and 16 tasks.
  static std::vector<service::ServiceRequest> lu_requests(
      const core::ProjectionOptions& options) {
    std::vector<service::ServiceRequest> requests;
    for (const int ck : {4, 8, 16}) {
      requests.push_back({"LU/C", target_->name, ck, 1, options});
    }
    return requests;
  }

  /// A service whose collectors hand out the fixture's artifacts, so its
  /// rows and `projector_` project from the very same inputs.
  static std::unique_ptr<service::ProjectionService> fixture_service() {
    auto svc = std::make_unique<service::ProjectionService>(
        *base_, std::vector<machine::Machine>{*target_});
    svc->set_spec_collector(
        [](const machine::Machine&, const std::vector<machine::Machine>&,
           const std::vector<int>&) { return *spec_; });
    svc->set_imb_collector([](const machine::Machine& m) {
      return m.name == base_->name ? *base_imb_ : *target_imb_;
    });
    svc->add_app("LU/C", "lu-fixture", [] { return *lu_data_; });
    return svc;
  }

  /// Runs `requests` through a fixture service at SWAPP_THREADS 1 and 4
  /// and requires every row to equal `Projector::project` on the same
  /// artifacts bit for bit; fills `sequential` with the latter.
  static void expect_service_matches_projector(
      const std::vector<service::ServiceRequest>& requests,
      std::size_t searches, std::vector<core::ProjectionResult>& sequential);

  static machine::Machine* base_;
  static machine::Machine* target_;
  static core::SpecLibrary* spec_;
  static imb::ImbDatabase* base_imb_;
  static imb::ImbDatabase* target_imb_;
  static core::Projector* projector_;
  static core::AppBaseData* lu_data_;
};

machine::Machine* ServiceTest::base_ = nullptr;
machine::Machine* ServiceTest::target_ = nullptr;
core::SpecLibrary* ServiceTest::spec_ = nullptr;
imb::ImbDatabase* ServiceTest::base_imb_ = nullptr;
imb::ImbDatabase* ServiceTest::target_imb_ = nullptr;
core::Projector* ServiceTest::projector_ = nullptr;
core::AppBaseData* ServiceTest::lu_data_ = nullptr;

/// Bitwise equality of two projection results (operator== on doubles: the
/// batch engine promises byte-identity, not just closeness).
void expect_identical(const core::ProjectionResult& a,
                      const core::ProjectionResult& b) {
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.cores, b.cores);
  EXPECT_EQ(a.compute.target_compute, b.compute.target_compute);
  EXPECT_EQ(a.compute.base_compute, b.compute.base_compute);
  EXPECT_EQ(a.compute.gamma, b.compute.gamma);
  EXPECT_EQ(a.compute.hyper_scaling_cores, b.compute.hyper_scaling_cores);
  ASSERT_EQ(a.compute.surrogate.terms.size(),
            b.compute.surrogate.terms.size());
  for (std::size_t i = 0; i < a.compute.surrogate.terms.size(); ++i) {
    EXPECT_EQ(a.compute.surrogate.terms[i].benchmark,
              b.compute.surrogate.terms[i].benchmark);
    EXPECT_EQ(a.compute.surrogate.terms[i].weight,
              b.compute.surrogate.terms[i].weight);
  }
  EXPECT_EQ(a.comm.base_total(), b.comm.base_total());
  EXPECT_EQ(a.comm.target_total(), b.comm.target_total());
  EXPECT_EQ(a.total_target(), b.total_target());
}

void ServiceTest::expect_service_matches_projector(
    const std::vector<service::ServiceRequest>& requests,
    std::size_t searches, std::vector<core::ProjectionResult>& sequential) {
  ThreadCountGuard guard;
  for (const service::ServiceRequest& r : requests) {
    sequential.push_back(
        projector_->project(*lu_data_, r.target, r.cores, r.options));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("SWAPP_THREADS " + std::to_string(threads));
    set_thread_count(threads);
    const auto report = fixture_service()->run(requests);
    EXPECT_EQ(report.plan.searches.size(), searches);
    EXPECT_EQ(report.searches_run, searches);
    ASSERT_EQ(report.results.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      expect_identical(report.results[i], sequential[i]);
    }
  }
}

TEST_F(ServiceTest, BatchMatchesSequentialAtEveryThreadCount) {
  // Reference 0: one search per row, each at the row's own count.
  std::vector<core::ProjectionResult> sequential;
  expect_service_matches_projector(lu_requests({}), 3, sequential);
}

TEST_F(ServiceTest, SharedSurrogateBatchMatchesSequential) {
  core::ProjectionOptions options;
  options.compute.surrogate_reference_cores = 16;
  std::vector<core::ProjectionResult> reference;
  expect_service_matches_projector(lu_requests(options), 1, reference);
  // The shared search pins the surrogate composition: every count selects
  // the same benchmarks, rescaled by the CCSM anchor ratio.
  ASSERT_EQ(reference[0].compute.surrogate.terms.size(),
            reference[2].compute.surrogate.terms.size());
  for (std::size_t t = 0; t < reference[0].compute.surrogate.terms.size();
       ++t) {
    EXPECT_EQ(reference[0].compute.surrogate.terms[t].benchmark,
              reference[2].compute.surrogate.terms[t].benchmark);
  }
}

TEST_F(ServiceTest, SharedSurrogateReferenceCountIsUnscaled) {
  // At the reference count itself the shared search must reproduce the
  // unshared projection exactly (no rescale is applied).
  core::ProjectionOptions options;
  options.compute.surrogate_reference_cores = 16;
  const core::ProjectionResult with_ref =
      projector_->project(*lu_data_, target_->name, 16, options);
  const core::ProjectionResult without =
      projector_->project(*lu_data_, target_->name, 16);
  expect_identical(with_ref, without);
}

/// Every number a projection result carries, in `%a` hex, so two results
/// compare bit for bit and a mismatch prints both.
std::string hex_digest(const core::ProjectionResult& r) {
  std::string out = r.app + "|" + r.target + "|" + std::to_string(r.cores);
  char buf[64];
  const auto add = [&](double v) {
    std::snprintf(buf, sizeof buf, " %a", v);
    out += buf;
  };
  for (const double v :
       {r.compute.target_compute, r.compute.base_compute, r.compute.gamma,
        r.compute.hyper_scaling_cores, r.compute.surrogate.fitness,
        r.comm.base_total(), r.comm.target_total(), r.total_target()}) {
    add(v);
  }
  for (const core::SurrogateTerm& t : r.compute.surrogate.terms) {
    out += " " + t.benchmark;
    add(t.weight);
  }
  return out;
}

/// Resolver and warm-replay tests: a cache directory per test and a GA
/// shrunk so each search takes milliseconds.
class ResolverTest : public ServiceTest {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("swapp-resolver-test-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    quick_.compute.ga.population = 24;
    quick_.compute.ga.generations = 40;
    quick_.compute.ga.restarts = 2;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Small-grid collectors; the LU/C collector hands out the fixture's
  /// profile (or simulates it afresh when `simulate` is set).
  static void configure(service::ArtifactResolver& engine,
                        bool simulate = false) {
    engine.set_spec_collector(&collect_spec_library);
    engine.set_imb_collector([](const machine::Machine& m) {
      return imb::measure_database(m, kCounts, kSizes);
    });
    engine.add_app("LU/C",
                   service::describe_app_inputs("LU-MZ.C", *base_, 1,
                                                {4, 8, 16}, {4, 8, 16}),
                   [simulate] {
                     if (!simulate) return *lu_data_;
                     const nas::NasApp lu(nas::Benchmark::kLU,
                                          nas::ProblemClass::kC);
                     return collect_base_data(lu, *base_, {4, 8, 16},
                                              {4, 8, 16});
                   });
  }

  std::filesystem::path dir_;
  core::ProjectionOptions quick_;
};

TEST_F(ResolverTest, WarmBatchReplaysEverySearchBitIdentically) {
  ThreadCountGuard guard;
  const std::filesystem::path app_file = dir_ / "lu.app";
  io::save_app_data(app_file, *lu_data_);
  core::ProjectionOptions shared = quick_;
  shared.compute.surrogate_reference_cores = 16;
  const std::vector<service::ServiceRequest> requests = {
      {"LU/C", target_->name, 8, 1, quick_},     // searched at its own count
      {"LU/C", target_->name, 4, 1, shared},     // a reference group ...
      {"LU/C", target_->name, 16, 1, shared},    // ... sharing one search
      {"file:lu", target_->name, 8, 1, quick_},  // content-addressed app
  };
  const auto make_service = [&](const std::filesystem::path& cache) {
    service::ServiceConfig config;
    config.cache_dir = cache;
    auto svc = std::make_unique<service::ProjectionService>(
        *base_, std::vector<machine::Machine>{*target_}, config);
    configure(*svc);
    svc->add_app_file("file:lu", app_file);
    return svc;
  };

  std::vector<std::string> first_digests;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("SWAPP_THREADS " + std::to_string(threads));
    set_thread_count(threads);
    const std::filesystem::path cache =
        dir_ / ("cache-" + std::to_string(threads));
    const auto cold = make_service(cache);
    const auto cold_report = cold->run(requests);
    ASSERT_EQ(cold_report.plan.searches.size(), 3u);
    EXPECT_EQ(cold_report.searches_run, 3u);

    // A fresh service over the same directory: every input and every
    // search comes from disk.
    const auto warm = make_service(cache);
    const auto warm_report = warm->run(requests);
    EXPECT_EQ(warm_report.searches_run, 0u);
    EXPECT_EQ(warm_report.cache.misses, 0u);
    EXPECT_TRUE(warm_report.warm());
    std::size_t surrogate_notes = 0;
    for (const auto& note : warm_report.artifacts) {
      if (note.name.rfind("surrogate (", 0) != 0) continue;
      ++surrogate_notes;
      EXPECT_EQ(note.source, service::ArtifactSource::kDisk) << note.name;
    }
    EXPECT_EQ(surrogate_notes, 3u);

    ASSERT_EQ(warm_report.results.size(), requests.size());
    std::vector<std::string> digests;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      digests.push_back(hex_digest(cold_report.results[i]));
      EXPECT_EQ(hex_digest(warm_report.results[i]), digests.back());
    }
    // The file-backed copy of the profile searches under its own key but
    // lands on the same surrogate.
    EXPECT_EQ(digests[3], digests[0]);

    if (first_digests.empty()) {
      first_digests = digests;
      // The same artifacts through Projector::project give the same bits.
      const auto fail_spec = []() -> core::SpecLibrary {
        ADD_FAILURE() << "spec library recomputed";
        return {};
      };
      const auto fail_imb = []() -> imb::ImbDatabase {
        ADD_FAILURE() << "IMB database recomputed";
        return {};
      };
      const auto imb_key = [](const machine::Machine& m) {
        return service::describe_imb_inputs(m, imb::default_core_counts(),
                                            imb::default_message_sizes());
      };
      const auto lib = cold->cache().spec_library(
          service::describe_spec_inputs(*base_, {*target_},
                                        cold_report.plan.task_counts),
          fail_spec);
      core::Projector projector(
          *base_, *lib, *cold->cache().imb_database(imb_key(*base_), fail_imb));
      projector.add_target(
          target_->name,
          *cold->cache().imb_database(imb_key(*target_), fail_imb));
      for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(hex_digest(projector.project(*lu_data_, requests[i].target,
                                               requests[i].cores,
                                               requests[i].options)),
                  digests[i]);
      }
    } else {
      EXPECT_EQ(digests, first_digests);
    }
  }
}

TEST_F(ResolverTest, ChangingAnySearchKeyInputRerunsTheSearch) {
  const machine::Machine other = machine::make_bluegene_p();
  service::CacheConfig config;
  config.cache_dir = dir_ / "cache";
  const service::ResolverNames names{"test",          "test.spec",
                                     "test.imb",      "test.apps",
                                     "test.searches", "test.project"};
  using Resolver = service::ArtifactResolver;

  std::vector<Resolver::Library> libraries;
  {
    Resolver resolver(*base_, config);
    configure(resolver);
    service::RunReport report;
    Resolver::Run run(resolver, names, report);
    libraries = run.spec_libraries({{{*target_, other}, "grid"}}, {4, 8, 16});
    const auto wider =
        run.spec_libraries({{{*target_, other}, "wider"}}, {4, 8, 16, 32});
    libraries.push_back(wider.front());
  }
  const auto data = std::make_shared<const core::AppBaseData>(*lu_data_);
  const Resolver::App app{"lu-inputs", data};
  const Resolver::App renamed{"lu-inputs-v2", data};

  // Each lookup runs in a fresh resolver over the directory, the way a
  // later process would, and reports how many searches it had to run.
  const auto searches_for = [&](const Resolver::SearchJob& job) {
    Resolver resolver(*base_, config);
    service::RunReport report;
    Resolver::Run run(resolver, names, report);
    run.searches({job});
    return report.searches_run;
  };
  const Resolver::SearchJob base_job{&libraries[0], &app,  "LU/C",
                                     target_->name, 8,     1,
                                     quick_.compute};
  EXPECT_EQ(searches_for(base_job), 1u);
  EXPECT_EQ(searches_for(base_job), 0u);

  std::vector<std::pair<std::string, Resolver::SearchJob>> variants;
  variants.emplace_back("GA seed", base_job);
  variants.back().second.options.ga.seed += 1;
  variants.emplace_back("spec task-count grid", base_job);
  variants.back().second.library = &libraries[1];
  variants.emplace_back("target", base_job);
  variants.back().second.target = other.name;
  variants.emplace_back("threads", base_job);
  variants.back().second.threads = 2;
  variants.emplace_back("app canonical inputs", base_job);
  variants.back().second.app = &renamed;
  // A library registered from a file is keyed by its content: rewriting the
  // file with another library reruns the search.
  const std::filesystem::path spec_file = dir_ / "spec.lib";
  const auto library_from_file = [&](const core::SpecLibrary& content) {
    io::save_spec_library(spec_file, content);
    Resolver resolver(*base_, config);
    resolver.add_spec_file(spec_file);
    service::RunReport report;
    Resolver::Run run(resolver, names, report);
    return run.spec_libraries({{{*target_, other}, "file"}}, {}).front();
  };
  const Resolver::Library from_file = library_from_file(*libraries[0].data);
  const Resolver::Library edited = library_from_file(*libraries[1].data);
  variants.emplace_back("spec library file", base_job);
  variants.back().second.library = &from_file;
  variants.emplace_back("spec library file content", base_job);
  variants.back().second.library = &edited;
  for (const auto& [input, job] : variants) {
    SCOPED_TRACE("changed: " + input);
    EXPECT_EQ(searches_for(job), 1u);
    EXPECT_EQ(searches_for(job), 0u);  // and the new key replays in turn
  }
}

TEST_F(ResolverTest, ServiceRunSpansCoverItsDuration) {
  // A cold run whose collectors do real work (simulated profiling, SPEC
  // and IMB collection): every acquisition and search sits under a named
  // direct child of service.run.
  service::ProjectionService svc(*base_, {*target_}, {});
  configure(svc, /*simulate=*/true);
  obs::drain_trace();
  obs::set_tracing_enabled(true);
  svc.run({{"LU/C", target_->name, 8, 1, quick_},
           {"LU/C", target_->name, 16, 1, quick_}});
  obs::set_tracing_enabled(false);
  const std::vector<obs::TraceEvent> events = obs::drain_trace();

  const obs::TraceEvent* root = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::TraceEvent::Kind::kSpan && e.name == "service.run") {
      root = &e;
    }
  }
  ASSERT_NE(root, nullptr);
  std::vector<std::pair<double, double>> children;
  for (const obs::TraceEvent& e : events) {
    if (e.kind != obs::TraceEvent::Kind::kSpan || e.parent != root->id) {
      continue;
    }
    EXPECT_TRUE(e.name.rfind("service.", 0) == 0 ||
                e.name.rfind("planner.", 0) == 0)
        << e.name;
    children.emplace_back(e.start_us, e.start_us + e.dur_us);
  }
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = root->start_us;
  for (const auto& [lo, hi] : children) {
    if (hi <= reach) continue;
    covered += hi - std::max(lo, reach);
    reach = hi;
  }
  ASSERT_GT(root->dur_us, 0.0);
  EXPECT_GE(covered / root->dur_us, 0.95)
      << "service.run " << root->dur_us << " us, children cover " << covered;
}

TEST(PlannerTest, DedupsSharedArtifacts) {
  const machine::Machine target = machine::make_power6_575();
  std::map<std::string, machine::Machine> targets = {{target.name, target}};

  core::ProjectionOptions shared;
  shared.compute.surrogate_reference_cores = 16;
  std::vector<service::ServiceRequest> requests;
  for (const int ck : {4, 8, 16}) {
    requests.push_back(
        service::ServiceRequest{"LU/C", target.name, ck, 1, shared});
    requests.push_back(
        service::ServiceRequest{"BT/C", target.name, ck, 1, shared});
  }
  requests.push_back(service::ServiceRequest{"LU/C", target.name, 8, 1, {}});

  const service::BatchPlan plan = service::plan_batch(requests, targets);
  EXPECT_EQ(plan.requests, 7u);
  EXPECT_EQ(plan.apps, (std::vector<std::string>{"LU/C", "BT/C"}));
  EXPECT_EQ(plan.targets, (std::vector<std::string>{target.name}));
  EXPECT_EQ(plan.task_counts, (std::vector<int>{4, 8, 16}));
  // All six shared-search requests search at 16 tasks: one search per app,
  // each serving three requests; the unshared request at 8 tasks adds a
  // third search of its own.
  ASSERT_EQ(plan.searches.size(), 3u);
  EXPECT_EQ(plan.searches[0].app, "LU/C");
  EXPECT_EQ(plan.searches[0].search_ck, 16);
  EXPECT_EQ(plan.searches[0].uses, 3u);
  EXPECT_EQ(plan.searches[1].app, "BT/C");
  EXPECT_EQ(plan.searches[1].search_ck, 16);
  EXPECT_EQ(plan.searches[1].uses, 3u);
  EXPECT_EQ(plan.searches[2].app, "LU/C");
  EXPECT_EQ(plan.searches[2].search_ck, 8);
  EXPECT_EQ(plan.searches[2].uses, 1u);
  EXPECT_EQ(plan.search_of,
            (std::vector<std::size_t>{0, 1, 0, 1, 0, 1, 2}));
  EXPECT_EQ(plan.naive_searches, 7u);
}

TEST(PlannerTest, UnknownTargetThrows) {
  EXPECT_THROW(
      service::plan_batch({service::ServiceRequest{"LU/C", "Cray XT5", 8}},
                          {}),
      NotFound);
}

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("swapp-cache-test-" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Installs a fake clock on `cache` and returns a maker of (memory-tier)
  /// surrogates tagged `id` whose computation advances the clock by exactly
  /// `cost_ms`, so every entry's observed cost — the input of the eviction
  /// policy — is the one the test names, however loaded the host is.
  auto costed_maker(service::ArtifactCache& cache) {
    cache.debug_set_clock([this] { return clock_us_; });
    return [this](int id, int cost_ms) {
      return [this, id, cost_ms] {
        clock_us_ += cost_ms * 1000.0;
        core::ComputeProjection surrogate;
        surrogate.target_compute = id;
        return surrogate;
      };
    };
  }

  static imb::ImbDatabase small_db() {
    return imb::measure_database(machine::make_power5_hydra(), {8, 16},
                                 {512, 16_KiB});
  }

  std::filesystem::path dir_;
  double clock_us_ = 0.0;
};

TEST_F(CacheTest, RoundTripAcrossCacheInstances) {
  const std::string key = "imb-inputs-v1";
  imb::ImbDatabase computed;
  {
    service::ArtifactCache cold(dir_);
    service::ArtifactSource source = service::ArtifactSource::kMemory;
    const auto db = cold.imb_database(key, &small_db, &source);
    EXPECT_EQ(source, service::ArtifactSource::kComputed);
    computed = *db;

    // Second lookup in the same cache: memory tier, no recompute.
    const auto again = cold.imb_database(
        key, [] { ADD_FAILURE() << "recomputed"; return small_db(); },
        &source);
    EXPECT_EQ(source, service::ArtifactSource::kMemory);
    EXPECT_EQ(cold.stats().memory_hits, 1u);
    EXPECT_EQ(cold.stats().misses, 1u);
  }

  // A fresh cache over the same directory loads from disk — zero simulation
  // — and the loaded artifact is value-identical to the computed one.
  service::ArtifactCache warm(dir_);
  service::ArtifactSource source = service::ArtifactSource::kComputed;
  const auto db = warm.imb_database(
      key, [] { ADD_FAILURE() << "recomputed"; return small_db(); }, &source);
  EXPECT_EQ(source, service::ArtifactSource::kDisk);
  EXPECT_EQ(warm.stats().disk_hits, 1u);
  EXPECT_EQ(db->machine_name, computed.machine_name);
  const auto computed_samples = computed.multi_sendrecv_x1.samples();
  const auto loaded_samples = db->multi_sendrecv_x1.samples();
  ASSERT_EQ(computed_samples.size(), loaded_samples.size());
  for (std::size_t i = 0; i < computed_samples.size(); ++i) {
    EXPECT_EQ(computed_samples[i].seconds, loaded_samples[i].seconds);
  }
}

TEST_F(CacheTest, CorruptedFileIsRejectedAndRecomputed) {
  const std::string key = "imb-inputs-v1";
  {
    service::ArtifactCache cache(dir_);
    cache.imb_database(key, &small_db);
  }
  // Truncate the stored artifact to garbage.
  bool corrupted = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::ofstream out(entry.path(), std::ios::trunc);
    out << "#swapp \"imb-database\" 1\ngarbage record here\n";
    corrupted = true;
  }
  ASSERT_TRUE(corrupted);

  service::ArtifactCache cache(dir_);
  service::ArtifactSource source = service::ArtifactSource::kDisk;
  const auto db = cache.imb_database(key, &small_db, &source);
  EXPECT_EQ(source, service::ArtifactSource::kComputed);
  EXPECT_EQ(cache.stats().corrupt_files, 1u);
  EXPECT_EQ(db->machine_name, machine::make_power5_hydra().name);

  // The rewritten file is healthy again.
  service::ArtifactCache after(dir_);
  service::ArtifactSource source2 = service::ArtifactSource::kComputed;
  after.imb_database(key, &small_db, &source2);
  EXPECT_EQ(source2, service::ArtifactSource::kDisk);

  // A well-formed surrogate file whose anchor lost its base compute time
  // would project with a compute scale of 1: it is corrupt, not a hit.
  const std::string surrogate_key = "surrogate-inputs-v1";
  const auto make_surrogate = [] {
    core::ComputeProjection p;
    p.target_compute = 2.0;
    p.base_compute = 4.0;
    return p;
  };
  after.surrogate_projection(surrogate_key, make_surrogate);
  bool rewritten = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("surrogate-", 0) != 0 ||
        entry.path().extension() != ".swapp") {
      continue;
    }
    std::ifstream in(entry.path());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    const std::size_t at = text.find("\nanchor 2 4 ");
    ASSERT_NE(at, std::string::npos) << text;
    text.replace(at, 12, "\nanchor 2 0 ");
    std::ofstream(entry.path(), std::ios::trunc) << text;
    rewritten = true;
  }
  ASSERT_TRUE(rewritten);

  service::ArtifactCache reread(dir_);
  service::ArtifactSource source3 = service::ArtifactSource::kDisk;
  const auto surrogate =
      reread.surrogate_projection(surrogate_key, make_surrogate, &source3);
  EXPECT_EQ(source3, service::ArtifactSource::kComputed);
  EXPECT_EQ(reread.stats().corrupt_files, 1u);
  EXPECT_EQ(surrogate->base_compute, 4.0);
}

TEST_F(CacheTest, EvictionKeepsLiveReferencesValid) {
  service::ArtifactCache cache({}, /*capacity_per_kind=*/2);
  // The observed recompute cost drives the eviction policy: "a" is made
  // unambiguously the cheapest entry, so it is the victim when "c"
  // overflows the tier.
  const auto make = costed_maker(cache);
  const auto first = cache.surrogate_projection("a", make(1, 0));
  cache.surrogate_projection("b", make(2, 20));
  // Evicts the cheapest entry ("a").
  cache.surrogate_projection("c", make(3, 20));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(first->target_compute, 1.0);  // held reference survives eviction

  // "a" is gone from the memory tier: a fresh request recomputes.
  service::ArtifactSource source = service::ArtifactSource::kMemory;
  cache.surrogate_projection("a", make(1, 0), &source);
  EXPECT_EQ(source, service::ArtifactSource::kComputed);
}

TEST_F(CacheTest, CostAwareEvictionSparesExpensiveEntries) {
  service::ArtifactCache cache({}, /*capacity_per_kind=*/2);
  const auto make = costed_maker(cache);
  // "slow" is the oldest entry — the one plain LRU would evict — but it is
  // orders of magnitude costlier to recompute than the quick entries, so
  // the cost-aware policy sacrifices the cheapest entry "quick-1" instead
  // ("quick-2" costs just enough to dominate quick-1).
  cache.surrogate_projection("slow", make(1, 25));
  cache.surrogate_projection("quick-1", make(2, 0));
  cache.surrogate_projection("quick-2", make(3, 5));
  EXPECT_EQ(cache.stats().evictions, 1u);

  service::ArtifactSource source = service::ArtifactSource::kComputed;
  cache.surrogate_projection("slow", make(1, 25), &source);
  EXPECT_EQ(source, service::ArtifactSource::kMemory);  // survived
  source = service::ArtifactSource::kMemory;
  cache.surrogate_projection("quick-1", make(2, 0), &source);
  EXPECT_EQ(source, service::ArtifactSource::kComputed);  // was the victim
}

TEST_F(CacheTest, DiskCapEvictsOldestFileAtWriteTime) {
  const auto file_for = [this](const std::string& key) {
    return dir_ /
           ("imb-" + service::fingerprint_hex(service::fingerprint(key)) +
            ".swapp");
  };
  // Learn the on-disk size of one artifact, then cap the tier so two fit
  // but three do not.
  std::uintmax_t one = 0;
  {
    service::ArtifactCache probe(dir_);
    probe.imb_database("imb\nkey-a", &small_db);
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      // Only the artifact itself: the miss also leaves a 0-byte .lock file.
      if (entry.path().extension() != ".swapp") continue;
      one = std::filesystem::file_size(entry.path());
    }
  }
  ASSERT_GT(one, 0u);
  std::filesystem::remove_all(dir_);

  service::ArtifactCache cache(dir_, /*capacity_per_kind=*/16,
                               /*max_disk_bytes=*/2 * one + one / 2);
  cache.imb_database("imb\nkey-a", &small_db);
  // Pin the eviction order: "a" is unambiguously the oldest file.
  std::filesystem::last_write_time(
      file_for("imb\nkey-a"),
      std::filesystem::file_time_type::clock::now() - std::chrono::hours(1));
  cache.imb_database("imb\nkey-b", &small_db);
  EXPECT_EQ(cache.stats().disk_evictions, 0u);  // two files fit the cap

  cache.imb_database("imb\nkey-c", &small_db);  // third save breaks the cap
  EXPECT_EQ(cache.stats().disk_evictions, 1u);
  EXPECT_FALSE(std::filesystem::exists(file_for("imb\nkey-a")));
  EXPECT_TRUE(std::filesystem::exists(file_for("imb\nkey-b")));
  EXPECT_TRUE(std::filesystem::exists(file_for("imb\nkey-c")));

  // A survivor is still loadable from disk by a fresh cache.
  service::ArtifactCache warm(dir_, 16, 2 * one + one / 2);
  service::ArtifactSource source = service::ArtifactSource::kComputed;
  warm.imb_database("imb\nkey-b", &small_db, &source);
  EXPECT_EQ(source, service::ArtifactSource::kDisk);

  // An artifact larger than the cap still persists: the file just written
  // is never the eviction victim, only its elders are.
  service::ArtifactCache tiny(dir_, 16, /*max_disk_bytes=*/1);
  tiny.imb_database("imb\nkey-d", &small_db);
  EXPECT_TRUE(std::filesystem::exists(file_for("imb\nkey-d")));
  EXPECT_EQ(tiny.stats().disk_evictions, 2u);  // both elders ("b" and "c")
}

TEST_F(CacheTest, ConcurrentCachesComputeAPersistentArtifactOnce) {
  // Two cache instances over one directory stand in for two standalone
  // processes: the per-key flock lock file serialises the miss, and the
  // loser of the race re-probes the disk after acquiring the lock and finds
  // the winner's file instead of recomputing.
  const std::string key = "imb\nlock-key";
  std::atomic<int> computed{0};
  const auto slow_make = [&computed] {
    computed.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return small_db();
  };
  service::ArtifactCache first(dir_);
  service::ArtifactCache second(dir_);
  std::shared_ptr<const imb::ImbDatabase> a;
  std::shared_ptr<const imb::ImbDatabase> b;
  std::thread winner([&] { a = first.imb_database(key, slow_make); });
  std::thread loser([&] { b = second.imb_database(key, slow_make); });
  winner.join();
  loser.join();
  EXPECT_EQ(computed.load(), 1);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->machine_name, b->machine_name);
  EXPECT_EQ(first.stats().lock_waits + second.stats().lock_waits, 1u);
  // Lock files are bookkeeping, not artifacts: never counted against the
  // disk cap, never evicted (enforce_disk_cap only sees ".swapp").
  bool saw_lock = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    saw_lock |= entry.path().extension() == ".lock";
  }
  EXPECT_TRUE(saw_lock);
}

TEST_F(CacheTest, AgeDecayRetiresStaleExpensiveEntries) {
  // An expensive entry left untouched for many half-lives decays below a
  // fresh cheap entry's score, so it is the eviction victim — a long-lived
  // daemon cannot pin a once-expensive artifact forever.
  service::ArtifactCache cache({}, /*capacity_per_kind=*/2);
  const auto make = costed_maker(cache);
  cache.surrogate_projection("slow", make(1, 25));
  // 60 half-lives of 30 minutes: score ~ 0.
  cache.debug_age_entries(60.0 * 1800.0);
  cache.surrogate_projection("quick-1", make(2, 5));
  // Overflow: evict "slow".
  cache.surrogate_projection("quick-2", make(3, 10));
  EXPECT_EQ(cache.stats().evictions, 1u);

  service::ArtifactSource source = service::ArtifactSource::kMemory;
  cache.surrogate_projection("slow", make(1, 25), &source);
  EXPECT_EQ(source, service::ArtifactSource::kComputed);  // was the victim
  // Recomputing "slow" overflowed again and took the cheapest fresh entry;
  // the dearer of the two quick entries is still resident.
  source = service::ArtifactSource::kComputed;
  cache.surrogate_projection("quick-2", make(3, 10), &source);
  EXPECT_EQ(source, service::ArtifactSource::kMemory);
}

TEST_F(CacheTest, CoalescedRunMatchesIndependentRunsAndSharesSearches) {
  const machine::Machine base = machine::make_power5_hydra();
  const machine::Machine target = machine::make_power6_575();
  const auto configure = [&](service::ProjectionService& svc) {
    svc.set_spec_collector(
        [](const machine::Machine& b,
           const std::vector<machine::Machine>& t,
           const std::vector<int>& counts) {
          return collect_spec_library(b, t, counts);
        });
    svc.set_imb_collector([](const machine::Machine& m) {
      return imb::measure_database(m, kCounts, kSizes);
    });
    svc.add_app("LU/C",
                service::describe_app_inputs("LU-MZ.C", base, 1, {4, 8, 16},
                                             {4, 8, 16}),
                [base] {
                  return collect_base_data(
                      nas::NasApp(nas::Benchmark::kLU, nas::ProblemClass::kC),
                      base, {4, 8, 16}, {4, 8, 16});
                });
  };
  core::ProjectionOptions shared;
  shared.compute.surrogate_reference_cores = 16;
  const std::vector<std::vector<service::ServiceRequest>> batches = {
      {{"LU/C", target.name, 8, 1, shared}, {"LU/C", target.name, 16, 1, shared}},
      {{"LU/C", target.name, 4, 1, shared}},
  };

  service::ProjectionService svc(base, {target}, {});
  configure(svc);
  const auto coalesced = svc.run_coalesced(batches);
  ASSERT_EQ(coalesced.slices.size(), 2u);
  ASSERT_EQ(coalesced.slices[0].size(), 2u);
  ASSERT_EQ(coalesced.slices[1].size(), 1u);
  ASSERT_EQ(coalesced.combined.results.size(), 3u);
  // One shared surrogate search covers all three requests; run separately
  // the two batches would have searched twice (once each).
  EXPECT_EQ(coalesced.combined.plan.searches.size(), 1u);
  EXPECT_EQ(coalesced.combined.plan.naive_searches, 3u);

  // Each slice is byte-identical to running that batch on its own service.
  for (std::size_t b = 0; b < batches.size(); ++b) {
    service::ProjectionService lone(base, {target}, {});
    configure(lone);
    const auto report = lone.run(batches[b]);
    ASSERT_EQ(report.results.size(), coalesced.slices[b].size());
    for (std::size_t i = 0; i < report.results.size(); ++i) {
      expect_identical(report.results[i], coalesced.slices[b][i]);
    }
  }
}

TEST_F(CacheTest, ServiceWarmRunPerformsNoSimulation) {
  const machine::Machine base = machine::make_power5_hydra();
  const machine::Machine target = machine::make_power6_575();
  const auto configure = [&](service::ProjectionService& svc) {
    svc.set_spec_collector(
        [](const machine::Machine& b,
           const std::vector<machine::Machine>& t,
           const std::vector<int>& counts) {
          return collect_spec_library(b, t, counts);
        });
    svc.set_imb_collector([](const machine::Machine& m) {
      return imb::measure_database(m, kCounts, kSizes);
    });
    svc.add_app("LU/C",
                service::describe_app_inputs("LU-MZ.C", base, 1, {4, 8, 16},
                                             {4, 8, 16}),
                [base] {
                  return collect_base_data(
                      nas::NasApp(nas::Benchmark::kLU, nas::ProblemClass::kC),
                      base, {4, 8, 16}, {4, 8, 16});
                });
  };
  service::ServiceConfig config;
  config.cache_dir = dir_;
  const std::vector<service::ServiceRequest> requests = {
      {"LU/C", target.name, 8, 1, {}},
      {"LU/C", target.name, 16, 1, {}},
  };

  service::ProjectionService cold(base, {target}, config);
  configure(cold);
  const auto cold_report = cold.run(requests);
  EXPECT_FALSE(cold_report.warm());
  ASSERT_EQ(cold_report.results.size(), 2u);

  // The report breaks the run down by phase, in execution order, with
  // non-negative wall times.
  ASSERT_EQ(cold_report.phases.size(), 5u);
  EXPECT_EQ(cold_report.phases[0].phase, "plan");
  EXPECT_EQ(cold_report.phases[1].phase, "spec-library");
  EXPECT_EQ(cold_report.phases[2].phase, "imb-databases");
  EXPECT_EQ(cold_report.phases[3].phase, "app-profiles");
  EXPECT_EQ(cold_report.phases[4].phase, "projection");
  for (const auto& p : cold_report.phases) EXPECT_GE(p.seconds, 0.0);

  service::ProjectionService warm(base, {target}, config);
  configure(warm);
  const auto warm_report = warm.run(requests);
  EXPECT_TRUE(warm_report.warm());
  EXPECT_GE(warm_report.cache.disk_hits, 4u);  // spec + 2 IMB + app
  for (std::size_t i = 0; i < warm_report.results.size(); ++i) {
    expect_identical(warm_report.results[i], cold_report.results[i]);
  }
}

}  // namespace
}  // namespace swapp
