#include "imb/suite.h"

#include <algorithm>
#include <cmath>

#include "mpi/world.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/parallel.h"

namespace swapp::imb {

std::string to_string(ImbBenchmark b) {
  switch (b) {
    case ImbBenchmark::kPingPong: return "PingPong";
    case ImbBenchmark::kSendrecv: return "Sendrecv";
    case ImbBenchmark::kExchange: return "Exchange";
    case ImbBenchmark::kBcast: return "Bcast";
    case ImbBenchmark::kReduce: return "Reduce";
    case ImbBenchmark::kAllreduce: return "Allreduce";
    case ImbBenchmark::kAllgather: return "Allgather";
    case ImbBenchmark::kAlltoall: return "Alltoall";
    case ImbBenchmark::kBarrier: return "Barrier";
    case ImbBenchmark::kMultiSendrecv: return "multi-Sendrecv";
  }
  throw InternalError("unknown ImbBenchmark");
}

std::vector<ImbBenchmark> all_benchmarks() {
  return {ImbBenchmark::kPingPong,  ImbBenchmark::kSendrecv,
          ImbBenchmark::kExchange,  ImbBenchmark::kBcast,
          ImbBenchmark::kReduce,    ImbBenchmark::kAllreduce,
          ImbBenchmark::kAllgather, ImbBenchmark::kAlltoall,
          ImbBenchmark::kBarrier,   ImbBenchmark::kMultiSendrecv};
}

namespace {

/// One benchmark iteration for one rank.  `partner`-style pairings follow the
/// IMB conventions; ranks without a role in a pattern skip the iteration.
/// `reqs` is the rank's request buffer, reused by every iteration.
void iteration(mpi::RankCtx& ctx, ImbBenchmark benchmark, Bytes bytes,
               int sequences, bool near_pairs,
               std::vector<mpi::Request>& reqs) {
  const int n = ctx.size();
  const int r = ctx.rank();
  switch (benchmark) {
    case ImbBenchmark::kPingPong: {
      // First and last rank: the farthest pair under block placement.
      const int a = 0;
      const int b = n - 1;
      if (r == a) {
        ctx.send(b, bytes);
        ctx.recv(b, bytes);
      } else if (r == b) {
        ctx.recv(a, bytes);
        ctx.send(a, bytes);
      }
      break;
    }
    case ImbBenchmark::kSendrecv: {
      const int right = (r + 1) % n;
      const int left = (r + n - 1) % n;
      if (n >= 2) ctx.sendrecv(right, bytes, left, bytes);
      break;
    }
    case ImbBenchmark::kExchange: {
      if (n < 2) break;
      const int right = (r + 1) % n;
      const int left = (r + n - 1) % n;
      reqs.clear();
      reqs.push_back(ctx.irecv(left, bytes, 1));
      if (left != right) reqs.push_back(ctx.irecv(right, bytes, 2));
      reqs.push_back(ctx.isend(right, bytes, 1));
      if (left != right) reqs.push_back(ctx.isend(left, bytes, 2));
      ctx.waitall(reqs);
      break;
    }
    case ImbBenchmark::kBcast:
      ctx.bcast(0, bytes);
      break;
    case ImbBenchmark::kReduce:
      ctx.reduce(0, bytes);
      break;
    case ImbBenchmark::kAllreduce:
      ctx.allreduce(bytes);
      break;
    case ImbBenchmark::kAllgather:
      ctx.allgather(bytes);
      break;
    case ImbBenchmark::kAlltoall:
      ctx.alltoall(bytes);
      break;
    case ImbBenchmark::kBarrier:
      ctx.barrier();
      break;
    case ImbBenchmark::kMultiSendrecv: {
      // Far pairing (r, r + n/2) measures inter-node exchange; near pairing
      // (r, r ^ 1) measures intra-node exchange under block placement — the
      // paper's custom benchmark for nonblocking exchange phases, split the
      // way IMB splits intra-/inter-cluster results.
      if (n < 2) break;
      int partner = -1;
      if (near_pairs) {
        partner = r ^ 1;
        if (partner >= n) break;
      } else {
        const int half = n / 2;
        if (r >= 2 * half) break;  // odd straggler idles
        partner = r < half ? r + half : r - half;
      }
      reqs.clear();
      for (int s = 0; s < sequences; ++s) {
        reqs.push_back(ctx.irecv(partner, bytes, s));
      }
      for (int s = 0; s < sequences; ++s) {
        reqs.push_back(ctx.isend(partner, bytes, s));
      }
      ctx.waitall(reqs);
      break;
    }
  }
}

}  // namespace

ImbSample run_imb(const machine::Machine& m, ImbBenchmark benchmark,
                  int ranks, Bytes bytes, int repetitions, int sequences,
                  bool near_pairs) {
  SWAPP_REQUIRE(ranks >= 2, "IMB needs at least two ranks");
  SWAPP_REQUIRE(repetitions >= 1, "IMB needs at least one repetition");
  SWAPP_REQUIRE(sequences >= 1, "multi-Sendrecv needs sequences >= 1");

  mpi::World world(m, ranks,
                   mpi::World::Options{.app_name = to_string(benchmark)});
  Seconds measured = 0.0;
  constexpr int kWarmup = 2;
  world.run([&](mpi::RankCtx& ctx) {
    std::vector<mpi::Request> reqs;
    for (int i = 0; i < kWarmup; ++i) {
      iteration(ctx, benchmark, bytes, sequences, near_pairs, reqs);
    }
    ctx.barrier();
    const Seconds t0 = ctx.now();
    for (int i = 0; i < repetitions; ++i) {
      iteration(ctx, benchmark, bytes, sequences, near_pairs, reqs);
    }
    ctx.barrier();
    if (ctx.rank() == 0) {
      measured = (ctx.now() - t0) / static_cast<double>(repetitions);
    }
  });

  // The closing barrier adds one barrier per measurement window; subtract an
  // estimate so pure-pattern time is reported (IMB does the same bookkeeping
  // by timing inside the loop).
  return ImbSample{.benchmark = benchmark,
                   .ranks = ranks,
                   .bytes = bytes,
                   .sequences = sequences,
                   .time = measured};
}

const std::vector<Bytes>& default_message_sizes() {
  static const std::vector<Bytes> kSizes = {64,     512,     4_KiB,
                                            32_KiB, 256_KiB, 2_MiB};
  return kSizes;
}

const std::vector<int>& default_core_counts() {
  static const std::vector<int> kCores = {16, 32, 64, 128};
  return kCores;
}

Seconds ImbDatabase::lookup(mpi::Routine routine, Bytes bytes,
                            int ranks) const {
  const auto it = tables.find(routine);
  if (it == tables.end()) {
    throw NotFound("no IMB table for " + mpi::to_string(routine) + " on " +
                   machine_name);
  }
  return it->second.lookup(ranks, static_cast<double>(bytes));
}

namespace {

Seconds eq1_time(const CoreSizeTable& x1, const CoreSizeTable& x2,
                 double in_flight, double bytes, int ranks) {
  const Seconds t1 = x1.lookup(ranks, bytes);
  const Seconds t2 = x2.lookup(ranks, bytes);
  // Eq. 1 with two measurements: T(x) = lib + x · flight.
  const Seconds flight = std::max(t2 - t1, 0.0);
  const Seconds lib = std::max(t1 - flight, 0.0);
  return lib + std::max(1.0, in_flight) * flight;
}

}  // namespace

Seconds ImbDatabase::multi_sendrecv_time(double in_flight, Bytes bytes,
                                         int ranks,
                                         double intra_fraction) const {
  const double b = static_cast<double>(bytes);
  const Seconds inter =
      eq1_time(multi_sendrecv_x1, multi_sendrecv_x2, in_flight, b, ranks);
  if (intra_fraction <= 0.0 || multi_sendrecv_near_x1.empty()) return inter;
  const Seconds intra = eq1_time(multi_sendrecv_near_x1,
                                 multi_sendrecv_near_x2, in_flight, b, ranks);
  const double f = std::min(intra_fraction, 1.0);
  return f * intra + (1.0 - f) * inter;
}

double ImbDatabase::intra_node_fraction(double rank_distance) const {
  // Block placement: a peer at rank distance d shares the node with
  // probability ≈ max(0, 1 − d/P) for P cores per node.
  if (cores_per_node <= 1) return 0.0;
  return std::max(0.0,
                  1.0 - rank_distance / static_cast<double>(cores_per_node));
}

namespace {

/// Sweeps one core count; the per-count fragments are independent, so
/// `measure_database` fans them out over the thread pool and merges in
/// input order (samples land on disjoint (cores, bytes) keys, so the merged
/// tables are identical to a serial sweep for every thread count).
ImbDatabase measure_core_count(const machine::Machine& m, int c,
                               const std::vector<Bytes>& sizes) {
  ImbDatabase db;
  db.machine_name = m.name;
  db.cores_per_node = m.cores_per_node;

  const auto add = [&](mpi::Routine routine, ImbBenchmark bench, int ranks,
                       Bytes bytes) {
    const ImbSample s = run_imb(m, bench, ranks, bytes);
    db.tables[routine].insert(ranks, static_cast<double>(bytes), s.time);
  };

  {
    SWAPP_REQUIRE(c <= m.total_cores,
                  "core count exceeds installation size of " + m.name);
    for (const Bytes s : sizes) {
      // Blocking p2p parameters: one-way PingPong prices Send/Recv, the ring
      // pattern prices Sendrecv.
      const ImbSample pp = run_imb(m, ImbBenchmark::kPingPong, c, s);
      db.tables[mpi::Routine::kSend].insert(c, static_cast<double>(s),
                                            pp.time / 2.0);
      db.tables[mpi::Routine::kRecv].insert(c, static_cast<double>(s),
                                            pp.time / 2.0);
      add(mpi::Routine::kSendrecv, ImbBenchmark::kSendrecv, c, s);

      // Collectives.
      add(mpi::Routine::kBcast, ImbBenchmark::kBcast, c, s);
      add(mpi::Routine::kReduce, ImbBenchmark::kReduce, c, s);
      add(mpi::Routine::kAllreduce, ImbBenchmark::kAllreduce, c, s);
      add(mpi::Routine::kAllgather, ImbBenchmark::kAllgather, c, s);
      add(mpi::Routine::kAlltoall, ImbBenchmark::kAlltoall, c, s);

      // multi-Sendrecv at x = 1 and x = 2 (Eq. 1 calibration), for both the
      // inter-node and intra-node pairings.
      const ImbSample x1 =
          run_imb(m, ImbBenchmark::kMultiSendrecv, c, s, 16, 1);
      const ImbSample x2 =
          run_imb(m, ImbBenchmark::kMultiSendrecv, c, s, 16, 2);
      db.multi_sendrecv_x1.insert(c, static_cast<double>(s), x1.time);
      db.multi_sendrecv_x2.insert(c, static_cast<double>(s), x2.time);
      const ImbSample n1 =
          run_imb(m, ImbBenchmark::kMultiSendrecv, c, s, 16, 1, true);
      const ImbSample n2 =
          run_imb(m, ImbBenchmark::kMultiSendrecv, c, s, 16, 2, true);
      db.multi_sendrecv_near_x1.insert(c, static_cast<double>(s), n1.time);
      db.multi_sendrecv_near_x2.insert(c, static_cast<double>(s), n2.time);
    }
    // Barrier is size-independent; record it at a nominal 8 bytes.
    const ImbSample bar = run_imb(m, ImbBenchmark::kBarrier, c, 8);
    db.tables[mpi::Routine::kBarrier].insert(c, 8.0, bar.time);
  }
  return db;
}

void merge_table(CoreSizeTable& into, const CoreSizeTable& from) {
  for (const CoreSizeTable::Sample& s : from.samples()) {
    into.insert(s.cores, s.bytes, s.seconds);
  }
}

}  // namespace

ImbDatabase measure_database(const machine::Machine& m,
                             const std::vector<int>& core_counts,
                             const std::vector<Bytes>& sizes) {
  SWAPP_SPAN("imb.measure_database");
  const std::vector<ImbDatabase> fragments =
      parallel_map(core_counts, [&](const int c) {
        return measure_core_count(m, c, sizes);
      });

  ImbDatabase db;
  db.machine_name = m.name;
  db.cores_per_node = m.cores_per_node;
  for (const ImbDatabase& fragment : fragments) {
    for (const auto& [routine, table] : fragment.tables) {
      merge_table(db.tables[routine], table);
    }
    merge_table(db.multi_sendrecv_x1, fragment.multi_sendrecv_x1);
    merge_table(db.multi_sendrecv_x2, fragment.multi_sendrecv_x2);
    merge_table(db.multi_sendrecv_near_x1, fragment.multi_sendrecv_near_x1);
    merge_table(db.multi_sendrecv_near_x2, fragment.multi_sendrecv_near_x2);
  }
  return db;
}

ImbDatabase measure_database(const machine::Machine& m) {
  return measure_database(m, default_core_counts(), default_message_sizes());
}

}  // namespace swapp::imb
