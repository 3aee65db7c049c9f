#include "service/artifact_cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <exception>
#include <list>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "io/persist.h"
#include "io/record.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"

namespace swapp::service {

std::string to_string(ArtifactSource source) {
  switch (source) {
    case ArtifactSource::kComputed: return "computed";
    case ArtifactSource::kMemory: return "memory cache";
    case ArtifactSource::kDisk: return "disk cache";
  }
  throw InternalError("unknown ArtifactSource");
}

std::uint64_t fingerprint(const std::string& canonical) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (const unsigned char c : canonical) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

std::string fingerprint_hex(std::uint64_t value) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

std::string describe_machine(const machine::Machine& m) {
  std::ostringstream os;
  {
    io::RecordWriter w(os, "swapp-machine-id", 1);
    w.row("machine")
        .field(m.name)
        .field(m.cores_per_node)
        .field(m.total_cores)
        .field(m.processor.frequency_ghz)
        .field(m.processor.smt_ways)
        .field(m.os_jitter);
  }
  return os.str();
}

std::string describe_imb_inputs(const machine::Machine& m,
                                const std::vector<int>& core_counts,
                                const std::vector<Bytes>& sizes) {
  std::ostringstream os;
  os << describe_machine(m);
  {
    io::RecordWriter w(os, "swapp-imb-inputs", 1);
    w.row("cores");
    for (const int c : core_counts) w.field(c);
    w.row("sizes");
    for (const Bytes s : sizes) w.field(static_cast<std::uint64_t>(s));
  }
  return os.str();
}

std::string describe_spec_inputs(const machine::Machine& base,
                                 const std::vector<machine::Machine>& targets,
                                 const std::vector<int>& task_counts) {
  std::ostringstream os;
  os << describe_machine(base);
  for (const machine::Machine& t : targets) os << describe_machine(t);
  {
    io::RecordWriter w(os, "swapp-spec-inputs", 1);
    w.row("tasks");
    for (const int c : task_counts) w.field(c);
  }
  return os.str();
}

std::string describe_app_inputs(const std::string& app_name,
                                const machine::Machine& base, int threads,
                                const std::vector<int>& mpi_counts,
                                const std::vector<int>& counter_counts) {
  std::ostringstream os;
  os << describe_machine(base);
  {
    io::RecordWriter w(os, "swapp-app-inputs", 1);
    w.row("app").field(app_name).field(threads);
    w.row("mpi-counts");
    for (const int c : mpi_counts) w.field(c);
    w.row("counter-counts");
    for (const int c : counter_counts) w.field(c);
  }
  return os.str();
}

namespace {

/// One artifact kind: a bounded memory tier plus a load/save pair from
/// io/persist.  Eviction is cost-aware: each entry remembers what it cost to
/// produce this time (disk load or recompute) and its disk footprint, and
/// the victim is the entry with the lowest cost-per-byte — the one that is
/// cheapest to bring back relative to the memory it holds.  Without a cache
/// directory entries have no disk footprint, so their score degenerates to
/// the raw recompute cost.  Ties (and the uniform-cost case) fall back to
/// LRU.
template <typename T>
struct Store {
  using Saver = void (*)(const std::filesystem::path&, const T&);
  using Loader = T (*)(const std::filesystem::path&);

  std::string kind;
  Saver save;
  Loader load;

  struct Entry {
    std::shared_ptr<const T> value;
    double cost_us = 0.0;      ///< observed load/recompute cost
    std::uintmax_t bytes = 1;  ///< disk footprint; 1 without a disk tier
    double touched_us = 0.0;   ///< last hit/insert time (age-decay input)
  };
  std::map<std::uint64_t, Entry> entries;
  std::list<std::uint64_t> recency;  ///< front = most recently used
};

template <typename T>
void touch(Store<T>& store, std::uint64_t key, double now_us) {
  store.recency.remove(key);
  store.recency.push_front(key);
  const auto it = store.entries.find(key);
  if (it != store.entries.end()) it->second.touched_us = now_us;
}

/// Picks the eviction victim: lowest age-decayed cost-per-byte, walking the
/// recency list back-to-front so the least recently used entry wins ties
/// (strict `<` keeps the first candidate seen — the older one — on equal
/// scores).  The decay halves an entry's score per `half_life_us` without a
/// hit, so a once-expensive artifact a long-lived daemon never touches again
/// eventually loses to entries that stay warm; 0 disables decay.
template <typename T>
std::uint64_t pick_victim(const Store<T>& store, double now_us,
                          double half_life_us) {
  const auto score_of = [&](std::uint64_t key) {
    const auto& e = store.entries.at(key);
    double score = e.cost_us / static_cast<double>(e.bytes == 0 ? 1 : e.bytes);
    if (half_life_us > 0.0) {
      const double age_us = std::max(0.0, now_us - e.touched_us);
      score *= std::exp2(-age_us / half_life_us);
    }
    return score;
  };
  std::uint64_t victim = store.recency.back();
  double best = score_of(victim);
  for (auto it = std::next(store.recency.rbegin());
       it != store.recency.rend(); ++it) {
    const double s = score_of(*it);
    if (s < best) {
      best = s;
      victim = *it;
    }
  }
  return victim;
}

/// RAII flock over `path`: serialises the compute-and-save window of one
/// artifact key across processes sharing a cache directory.  Lock files are
/// tiny, live beside the artifacts (`.lock` extension, so the disk-cap
/// enforcement never evicts them), and are left in place — flock state dies
/// with the fd, not the file.  Failure to create or lock degrades to the
/// old unlocked behaviour (duplicated work, never corruption: artifact
/// writes stay atomic via write-then-rename).
class FileLock {
 public:
  /// Returns true (and records whether the lock was contended in `waited`)
  /// when the exclusive lock is held on return.
  bool acquire(const std::filesystem::path& path, bool* waited) {
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) return false;
    if (::flock(fd_, LOCK_EX | LOCK_NB) == 0) return true;
    if (waited) *waited = true;
    while (::flock(fd_, LOCK_EX) != 0) {
      if (errno != EINTR) {
        ::close(fd_);
        fd_ = -1;
        return false;
      }
    }
    return true;
  }
  ~FileLock() {
    if (fd_ >= 0) ::close(fd_);  // releases the flock
  }

 private:
  int fd_ = -1;
};

}  // namespace

struct ArtifactCache::Impl {
  std::size_t capacity = 16;
  std::uintmax_t max_disk_bytes = 0;  ///< 0 = unbounded disk tier
  double half_life_us = 1800.0 * 1e6;  ///< eviction-score age decay
  mutable std::mutex mutex;
  CacheStats stats;
  /// Measures entry costs and stamps touches (microseconds); null reads the
  /// trace clock.  Replaced only through debug_set_clock.
  std::function<double()> clock;

  double clock_us() const { return clock ? clock() : obs::trace_now_us(); }

  Store<imb::ImbDatabase> imb{"imb", &io::save_imb_database,
                              &io::load_imb_database};
  Store<core::SpecLibrary> spec{"spec", &io::save_spec_library,
                                &io::load_spec_library};
  Store<core::AppBaseData> app{"app", &io::save_app_data, &io::load_app_data};
  Store<core::ComputeProjection> surrogate{"surrogate",
                                           &io::save_compute_projection,
                                           &io::load_compute_projection};

  template <typename T>
  std::filesystem::path path_of(const Store<T>& store,
                                const std::filesystem::path& dir,
                                std::uint64_t key) const {
    return dir / (store.kind + "-" + fingerprint_hex(key) + ".swapp");
  }

  /// Records how long one cache lookup took, bucketed per artifact kind
  /// ("cache.lookup_us.imb", …).  The handle re-resolves its name on every
  /// construction, which is one locked map probe — negligible next to the
  /// disk/compute work this path fronts, and only paid while metrics are on.
  template <typename T>
  void observe_lookup(const Store<T>& store, double started_us) const {
    if (!obs::metrics_enabled()) return;
    obs::Histogram("cache.lookup_us." + store.kind)
        .observe(obs::trace_now_us() - started_us);
  }

  /// Removes oldest-mtime `.swapp` files until the directory fits
  /// `max_disk_bytes` again, sparing `just_written` (the newest entry; a
  /// single over-cap artifact must still persist to be useful).  Runs
  /// unlocked — concurrent writers may race to remove the same victim, so
  /// only files that actually disappeared are counted.  Returns the number
  /// of evicted files.
  std::size_t enforce_disk_cap(const std::filesystem::path& dir,
                               const std::filesystem::path& just_written)
      const {
    if (max_disk_bytes == 0) return 0;
    struct DiskFile {
      std::filesystem::path path;
      std::filesystem::file_time_type mtime;
      std::uintmax_t size = 0;
    };
    std::vector<DiskFile> files;
    std::uintmax_t total = 0;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      if (entry.path().extension() != ".swapp") continue;
      DiskFile f;
      f.path = entry.path();
      f.size = std::filesystem::file_size(f.path, ec);
      if (ec) continue;
      f.mtime = std::filesystem::last_write_time(f.path, ec);
      if (ec) continue;
      total += f.size;
      files.push_back(std::move(f));
    }
    if (total <= max_disk_bytes) return 0;
    // Oldest first; ties broken by path so concurrent enforcers agree on
    // the victim order.
    std::sort(files.begin(), files.end(),
              [](const DiskFile& a, const DiskFile& b) {
                return a.mtime != b.mtime ? a.mtime < b.mtime
                                          : a.path < b.path;
              });
    std::size_t evicted = 0;
    for (const DiskFile& f : files) {
      if (total <= max_disk_bytes) break;
      if (f.path == just_written) continue;
      if (std::filesystem::remove(f.path, ec) && !ec) {
        total -= f.size;
        ++evicted;
      }
    }
    return evicted;
  }

  template <typename T>
  std::shared_ptr<const T> get(Store<T>& store,
                               const std::filesystem::path& dir,
                               const std::string& canonical,
                               const std::function<T()>& make,
                               ArtifactSource* source) {
    const double started_us =
        obs::metrics_enabled() ? obs::trace_now_us() : 0.0;
    const std::uint64_t key = fingerprint(canonical);
    {
      std::lock_guard<std::mutex> lock(mutex);
      const auto it = store.entries.find(key);
      if (it != store.entries.end()) {
        ++stats.memory_hits;
        touch(store, key, clock_us());
        if (source) *source = ArtifactSource::kMemory;
        SWAPP_COUNT("cache.memory_hits", 1);
        observe_lookup(store, started_us);
        return it->second.value;
      }
    }

    // Miss path runs unlocked: disk loads and make() are slow, and a
    // duplicated computation under a rare same-key in-process race is still
    // the same pure function of the key.  The cost clock runs regardless of
    // whether metrics are enabled: the eviction policy feeds on it.
    std::shared_ptr<const T> value;
    ArtifactSource from = ArtifactSource::kComputed;
    const bool on_disk = !dir.empty();
    bool corrupt = false;
    bool lock_waited = false;
    double cost_us = 0.0;
    std::uintmax_t bytes = 1;
    const auto try_load = [&](const std::filesystem::path& file) {
      std::error_code ec;
      if (!std::filesystem::exists(file, ec)) return;
      const double load_started_us = clock_us();
      try {
        value = std::make_shared<const T>(store.load(file));
        from = ArtifactSource::kDisk;
        corrupt = false;
        cost_us = clock_us() - load_started_us;
        const std::uintmax_t size = std::filesystem::file_size(file, ec);
        if (!ec && size > 0) bytes = size;
      } catch (const std::exception&) {
        corrupt = true;  // rejected: recompute and overwrite below
      }
    };
    if (on_disk) try_load(path_of(store, dir, key));
    std::size_t disk_evicted = 0;
    if (!value) {
      // The compute-and-save window is serialised across processes by a
      // per-key lock file; whoever loses the race re-probes the disk and
      // usually finds the winner's artifact instead of recomputing it.
      FileLock process_lock;
      bool relock_probe = false;
      if (on_disk) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        const std::filesystem::path lock_path =
            dir / (store.kind + "-" + fingerprint_hex(key) + ".lock");
        relock_probe = process_lock.acquire(lock_path, &lock_waited);
        if (relock_probe && lock_waited) try_load(path_of(store, dir, key));
      }
      if (!value) {
        const double make_started_us = clock_us();
        value = std::make_shared<const T>(make());
        cost_us = clock_us() - make_started_us;
        if (obs::metrics_enabled()) {
          obs::Histogram("cache.recompute_cost_us." + store.kind)
              .observe(cost_us);
        }
        if (on_disk) {
          std::error_code ec;
          // Write-then-rename so a crashed writer never leaves a torn file
          // under the final name.
          const std::filesystem::path file = path_of(store, dir, key);
          const std::filesystem::path tmp = file.string() + ".tmp";
          try {
            store.save(tmp, *value);
            std::filesystem::rename(tmp, file);
            const std::uintmax_t size = std::filesystem::file_size(file, ec);
            if (!ec && size > 0) bytes = size;
            disk_evicted = enforce_disk_cap(dir, file);
          } catch (const std::exception&) {
            std::filesystem::remove(tmp, ec);  // cache write is best-effort
          }
        }
      }
    }

    std::lock_guard<std::mutex> lock(mutex);
    if (disk_evicted > 0) {
      stats.disk_evictions += disk_evicted;
      SWAPP_COUNT("cache.disk_evictions", disk_evicted);
    }
    if (lock_waited) {
      ++stats.lock_waits;
      SWAPP_COUNT("cache.lock_waits", 1);
    }
    if (corrupt) {
      ++stats.corrupt_files;
      SWAPP_COUNT("cache.corrupt_files", 1);
    }
    if (from == ArtifactSource::kDisk) {
      ++stats.disk_hits;
      SWAPP_COUNT("cache.disk_hits", 1);
    } else {
      ++stats.misses;
      SWAPP_COUNT("cache.misses", 1);
    }
    const double now_us = clock_us();
    const auto [it, inserted] = store.entries.emplace(
        key, typename Store<T>::Entry{value, cost_us, bytes, now_us});
    if (!inserted) {
      // Same-key race: another thread inserted first.  Keep its value (ours
      // is identical) but refresh the cost observation.
      it->second.cost_us = cost_us;
      it->second.bytes = bytes;
    }
    touch(store, key, now_us);
    // Grab the winning pointer before evicting: the fresh entry is a legal
    // victim if it is the cheapest per byte, and erasing it invalidates it.
    std::shared_ptr<const T> result = it->second.value;
    while (store.entries.size() > capacity) {
      const std::uint64_t victim = pick_victim(store, now_us, half_life_us);
      store.recency.remove(victim);
      store.entries.erase(victim);
      ++stats.evictions;
      SWAPP_COUNT("cache.evictions", 1);
      if (obs::metrics_enabled()) {
        obs::Counter("cache.evictions." + store.kind).increment();
      }
    }
    if (source) *source = from;
    observe_lookup(store, started_us);
    return result;
  }
};

ArtifactCache::ArtifactCache(std::filesystem::path cache_dir,
                             std::size_t capacity_per_kind,
                             std::uintmax_t max_disk_bytes)
    : cache_dir_(std::move(cache_dir)), impl_(std::make_unique<Impl>()) {
  SWAPP_REQUIRE(capacity_per_kind >= 1, "cache capacity must be >= 1");
  impl_->capacity = capacity_per_kind;
  impl_->max_disk_bytes = max_disk_bytes;
}

ArtifactCache::~ArtifactCache() = default;

std::shared_ptr<const imb::ImbDatabase> ArtifactCache::imb_database(
    const std::string& canonical_inputs,
    const std::function<imb::ImbDatabase()>& make, ArtifactSource* source) {
  return impl_->get(impl_->imb, cache_dir_, canonical_inputs, make, source);
}

std::shared_ptr<const core::SpecLibrary> ArtifactCache::spec_library(
    const std::string& canonical_inputs,
    const std::function<core::SpecLibrary()>& make, ArtifactSource* source) {
  return impl_->get(impl_->spec, cache_dir_, canonical_inputs, make, source);
}

std::shared_ptr<const core::AppBaseData> ArtifactCache::app_data(
    const std::string& canonical_inputs,
    const std::function<core::AppBaseData()>& make, ArtifactSource* source) {
  return impl_->get(impl_->app, cache_dir_, canonical_inputs, make, source);
}

std::shared_ptr<const core::ComputeProjection>
ArtifactCache::surrogate_projection(
    const std::string& canonical_inputs,
    const std::function<core::ComputeProjection()>& make,
    ArtifactSource* source) {
  return impl_->get(impl_->surrogate, cache_dir_, canonical_inputs, make,
                    source);
}

CacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->stats;
}

void ArtifactCache::set_eviction_half_life(Seconds half_life) {
  SWAPP_REQUIRE(half_life >= 0.0, "eviction half-life must be >= 0");
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->half_life_us = half_life * 1e6;
}

void ArtifactCache::debug_set_clock(std::function<double()> now_us) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->clock = std::move(now_us);
}

void ArtifactCache::debug_age_entries(Seconds seconds) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const double delta_us = seconds * 1e6;
  const auto age = [delta_us](auto& store) {
    for (auto& [key, entry] : store.entries) entry.touched_us -= delta_us;
  };
  age(impl_->imb);
  age(impl_->spec);
  age(impl_->app);
  age(impl_->surrogate);
}

}  // namespace swapp::service
