// Campaign driver + detection/localization scorecard (DESIGN.md §10).
//
// `run_campaign` executes a coverage-guided campaign: for each seed it
// walks the ScheduleGenerator sequence (single-class sweep, benign
// flood, multi-fault compositions), and once the deterministic prefix
// is past, alternates generated schedules with mutations of corpus
// entries that previously uncovered fresh coverage keys (fault class ×
// topology shape × verdict kind × governor regime). Runs that add
// coverage are admitted to the in-memory corpus — the CLI persists
// them under tests/fuzz_corpus/.
//
// The scorecard aggregates the oracle results the ISSUE asks for:
// detection rate over harmful-effectful runs, localization rate and
// blame precision, false-positive count (must be zero), conservation
// violations (must be zero), parallel-oracle mismatches (must be
// zero), and time-to-detection in rounds. Per-class rows attribute
// detection/localization to a class for runs whose effectful harmful
// set is that single class; runs where two or more harmful classes
// took effect land in the one `multi_class` row, so the rows' detected
// and localized columns sum to detected_runs and localized_runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/coverage.hpp"

namespace veridp {
namespace fuzz {

/// Per-MutationClass scorecard row (and the `multi_class` row, whose
/// "class" is two or more harmful classes in one run).
struct ClassScore {
  std::uint32_t scheduled_runs = 0;  ///< runs that scheduled this class
  std::uint32_t effectful_runs = 0;  ///< runs where it was probe-visible
  std::uint32_t detected = 0;        ///< attributed here + detected
  std::uint32_t localized = 0;       ///< ... and blame hit ground truth
  std::int64_t ttd_sum = 0;          ///< summed time-to-detection (rounds)
  std::uint32_t ttd_count = 0;
};

struct Scorecard {
  std::vector<std::uint64_t> seeds;
  std::uint32_t runs = 0;
  std::uint32_t harmful_runs = 0;   ///< runs with >=1 effectful harmful fault
  std::uint32_t detected_runs = 0;  ///< harmful runs that were detected
  std::uint64_t false_positives = 0;
  std::uint32_t conservation_violations = 0;
  std::uint32_t parallel_mismatches = 0;
  std::uint32_t localized_runs = 0;  ///< detected runs with correct blame
  std::uint64_t blamed_total = 0;    ///< switches blamed across all runs
  std::uint64_t blamed_correct = 0;  ///< ... that were in the ground truth
  std::int64_t ttd_sum = 0;
  std::uint32_t ttd_count = 0;
  std::size_t coverage_keys = 0;
  std::uint32_t corpus_new = 0;  ///< runs admitted for fresh coverage
  ClassScore per_class[kNumMutationClasses];
  ClassScore multi_class;  ///< runs with >=2 harmful classes

  /// Folds one run into the aggregate (does not touch coverage fields).
  void add_run(const RunResult& r);

  [[nodiscard]] bool clean() const {
    return false_positives == 0 && conservation_violations == 0 &&
           parallel_mismatches == 0;
  }
};

/// Stable, dependency-free JSON rendering (rates with three decimals).
[[nodiscard]] std::string to_json(const Scorecard& card);

struct CampaignOptions {
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  int budget_per_seed = 18;  ///< schedules per seed
  /// Wall-clock budget mode (`veridp_cli fuzz --budget-seconds N`):
  /// when > 0, budget_per_seed is ignored and the campaign round-robins
  /// the seeds with increasing run index until the deadline passes (the
  /// in-flight run always completes). Each individual run stays a pure
  /// function of (seed, index) — traces and digests replay exactly —
  /// but HOW MANY runs fit is machine-dependent, so scorecards from
  /// wall-clock campaigns are not comparable across hosts.
  std::uint64_t budget_seconds = 0;
  CampaignKnobs knobs;
};

struct CampaignOutcome {
  Scorecard card;
  CoverageMap coverage;
  std::vector<CorpusEntry> interesting;  ///< coverage-advancing runs
  std::vector<RunResult> runs;           ///< every run, campaign order
};

/// Executes the campaign. Pure in `opts`: the same options produce the
/// same outcome, scorecard JSON included.
[[nodiscard]] CampaignOutcome run_campaign(const CampaignOptions& opts);

}  // namespace fuzz
}  // namespace veridp
