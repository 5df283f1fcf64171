// Batched verification pipeline benchmark (DESIGN.md §11): the
// end-to-end scalar-vs-batched memo-miss comparison the CI perf-smoke job
// gates on.
//
// Single-thread verify throughput on a unique (memo-miss) stream over the
// FT(k) path table, scalar verify_epoch_aware vs
// verify_epoch_aware_batch, with a batch-size sweep around the default.
// Every batched rate honestly includes the SoA push (bits_packed
// materialization and all) inside the timed region.
//
// Results land in BENCH_batch_kernels.json (override the path with
// VERIDP_BENCH_JSON). VERIDP_BENCH_QUICK=1 shrinks the topology and
// repetitions for CI smoke runs — the speedup ratios survive, the
// absolute rates are not comparable to full runs.
#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "veridp/report_batch.hpp"
#include "veridp/verifier.hpp"

using namespace veridp;
using namespace veridp::bench;

namespace {

constexpr int kTagBits = 16;

bool quick() { return std::getenv("VERIDP_BENCH_QUICK") != nullptr; }

double now_minus(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct SweepPoint {
  std::size_t batch_size = 0;
  double reports_per_s = 0.0;
};

/// The gate metric comes from interleaved pairs: each pair times one
/// scalar and one batched repetition back to back (alternating which
/// goes first), so a host-speed swing moves both sides of a ratio
/// together instead of landing on one side of a best-of/best-of split.
struct VerifyGate {
  std::string setup;
  std::size_t reports = 0;          ///< unique (memo-miss) stream length
  std::size_t batch_size = 0;       ///< the fixed default
  double scalar_rps = 0.0;          ///< median scalar rate over the pairs
  double batch_rps = 0.0;           ///< median batched rate over the pairs
  std::vector<double> ratios;       ///< batched/scalar, one per pair
  double speedup = 0.0;             ///< median of `ratios` (the gate)
  std::vector<SweepPoint> sweep;
};

/// Passes per timed repetition: the quick-mode FT(4) stream is only a
/// few hundred reports, far too short to time once, so each timed
/// region replays the stream until it has verified ~this many reports.
std::size_t target_reports() { return quick() ? 100000 : 400000; }

/// One timed scalar repetition: several passes over the stream, each
/// with a fresh memo so every probe misses (the memo-miss regime under
/// measurement). Returns reports/s.
double scalar_rate(const std::vector<TagReport>& stream,
                   const EpochTables& tables) {
  const std::size_t passes =
      std::max<std::size_t>(1, target_reports() / stream.size());
  const std::size_t total = stream.size() * passes;
  std::size_t passed = 0;
  double elapsed = 0.0;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    // The memo is rebuilt per pass so every probe misses, but its
    // construction (a once-per-deployment cost) stays untimed.
    VerifyMemo memo;
    const auto t0 = std::chrono::steady_clock::now();
    for (const TagReport& rep : stream)
      if (verify_epoch_aware(rep, tables, &memo).ok()) ++passed;
    elapsed += now_minus(t0);
  }
  if (passed != total)
    std::printf("  (UNEXPECTED: %zu of %zu reports did not pass!)\n",
                total - passed, total);
  return static_cast<double>(total) / elapsed;
}

/// One timed batched repetition; the SoA push runs inside the timer.
double batch_rate(const std::vector<TagReport>& stream,
                  const EpochTables& tables, std::size_t batch_size) {
  const std::size_t passes =
      std::max<std::size_t>(1, target_reports() / stream.size());
  const std::size_t total = stream.size() * passes;
  ReportBatch batch;
  batch.reserve(batch_size);
  std::vector<Verdict> verdicts(batch_size);
  std::size_t passed = 0;
  double elapsed = 0.0;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    VerifyMemo memo;  // fresh per pass, constructed untimed (as scalar)
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < stream.size();) {
      const std::size_t n = std::min(batch_size, stream.size() - i);
      batch.clear();
      for (std::size_t k = 0; k < n; ++k) batch.push(stream[i + k]);
      verify_epoch_aware_batch(batch, 0, n, tables, &memo, verdicts.data());
      for (std::size_t k = 0; k < n; ++k)
        if (verdicts[k].ok()) ++passed;
      i += n;
    }
    elapsed += now_minus(t0);
  }
  if (passed != total)
    std::printf("  (UNEXPECTED: %zu of %zu reports did not pass!)\n",
                total - passed, total);
  return static_cast<double>(total) / elapsed;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

VerifyGate measure_verify_gate(Setup& s, int pairs, int sweep_reps) {
  ConfigTransferProvider provider(s.space, s.topo,
                                  s.controller.logical_configs());
  PathTable table =
      PathTableBuilder(s.space, s.topo, provider, kTagBits).build();
  EpochTables tables;
  tables.current = &table;

  std::vector<TagReport> unique;
  Rng rng(808);
  table.for_each([&unique, &rng](PortKey in, PortKey out, const PathEntry& e) {
    if (auto h = e.headers.sample(rng))
      unique.push_back(TagReport{in, out, *h, e.tag});
  });

  VerifyGate g;
  g.setup = s.name;
  g.reports = unique.size();
  g.batch_size = autotuned_batch_size();
  std::vector<double> scalar, batched;
  for (int p = 0; p < pairs; ++p) {
    double sr = 0.0, br = 0.0;
    if (p % 2 == 0) {
      sr = scalar_rate(unique, tables);
      br = batch_rate(unique, tables, g.batch_size);
    } else {
      br = batch_rate(unique, tables, g.batch_size);
      sr = scalar_rate(unique, tables);
    }
    scalar.push_back(sr);
    batched.push_back(br);
    g.ratios.push_back(br / sr);
  }
  g.scalar_rps = median(scalar);
  g.batch_rps = median(batched);
  g.speedup = median(g.ratios);
  std::printf("%-12s  memo-miss: scalar %.0f/s   batch(%zu) %.0f/s   "
              "median %.2fx over %d pairs (%.2f-%.2fx)   (%zu reports)\n",
              g.setup.c_str(), g.scalar_rps, g.batch_size, g.batch_rps,
              g.speedup, pairs,
              *std::min_element(g.ratios.begin(), g.ratios.end()),
              *std::max_element(g.ratios.begin(), g.ratios.end()),
              g.reports);

  const std::size_t sizes[] = {8, 32, 64, 128, 256, 512};
  for (const std::size_t bs : sizes) {
    SweepPoint pt;
    pt.batch_size = bs;
    for (int r = 0; r < sweep_reps; ++r)
      pt.reports_per_s =
          std::max(pt.reports_per_s, batch_rate(unique, tables, bs));
    g.sweep.push_back(pt);
    std::printf("  batch %4zu  %.0f/s (%.2fx scalar)\n", pt.batch_size,
                pt.reports_per_s, pt.reports_per_s / g.scalar_rps);
  }
  return g;
}

void write_json(const VerifyGate& gate) {
  const char* path = std::getenv("VERIDP_BENCH_JSON");
  if (!path) path = "BENCH_batch_kernels.json";
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::printf("cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"batch_kernels\",\n"
               "  \"quick\": %s,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"verify_memo_miss\": {\"setup\": \"%s\", "
               "\"reports\": %zu, \"batch_size\": %zu,\n"
               "    \"scalar_reports_per_s\": %.0f, "
               "\"batch_reports_per_s\": %.0f, \"speedup\": %.3f,\n"
               "    \"paired_speedups\": [",
               quick() ? "true" : "false",
               std::thread::hardware_concurrency(), gate.setup.c_str(),
               gate.reports, gate.batch_size, gate.scalar_rps,
               gate.batch_rps, gate.speedup);
  for (std::size_t i = 0; i < gate.ratios.size(); ++i)
    std::fprintf(f, "%s%.3f", i ? ", " : "", gate.ratios[i]);
  std::fprintf(f, "],\n    \"sweep\": [");
  for (std::size_t i = 0; i < gate.sweep.size(); ++i)
    std::fprintf(f, "%s{\"batch_size\": %zu, \"reports_per_s\": %.0f}",
                 i ? ", " : "", gate.sweep[i].batch_size,
                 gate.sweep[i].reports_per_s);
  std::fprintf(f, "]}\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main() {
  rule_header(quick() ? "Batched verify: scalar vs batched (QUICK — ratios "
                        "only)"
                      : "Batched verify: scalar vs batched");

  const int pairs = 9;
  const int sweep_reps = quick() ? 2 : 3;
  Setup ft = quick() ? make_fat_tree(4) : make_fat_tree(8);
  const VerifyGate gate = measure_verify_gate(ft, pairs, sweep_reps);

  write_json(gate);
  std::printf("\ntarget: batched memo-miss verify >= 1.5x memoized scalar "
              "(CI gate), >= 5M reports/s full run\n");
  return 0;
}
