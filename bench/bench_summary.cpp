// Section 4 summary — per-system average projection error, standard
// deviation, and the fraction of projections above the measured runtime.
//
// Paper reference (abstract + §4): BG/P 11.93% ± 1.97, POWER6 575
// 8.58% ± 1.07, Westmere X5670 13.79% ± 0.27; overall 54% of projections
// above actual; maximum error below 15%.
#include <iostream>
#include <map>
#include <vector>

#include "paper_reference.h"

int main() {
  using namespace swapp;
  experiments::Lab lab;

  std::map<std::string, std::vector<double>> combined;
  std::size_t above = 0;
  std::size_t total = 0;

  // One batch over every (target, app, class, count) cell: the Lab plans
  // shared artifacts once and projects the whole grid through the artifact
  // resolver.
  std::vector<experiments::Lab::RowQuery> queries;
  for (const std::string& target : lab.target_names()) {
    for (const auto bench :
         {nas::Benchmark::kBT, nas::Benchmark::kSP, nas::Benchmark::kLU}) {
      const std::vector<int> counts =
          (bench == nas::Benchmark::kLU) ? std::vector<int>{16}
                                         : experiments::bt_sp_core_counts();
      for (const int ranks : counts) {
        for (const auto cls :
             {nas::ProblemClass::kC, nas::ProblemClass::kD}) {
          queries.push_back({bench, cls, target, ranks});
        }
      }
    }
  }
  const std::vector<experiments::ErrorRow> rows = lab.error_rows(queries);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    combined[queries[i].target].push_back(rows[i].combined);
    above += rows[i].combined_signed > 0.0;
    total += 1;
  }

  TextTable table({"System", "Avg |error| %", "Std-dev %", "Max %",
                   "Paper avg %", "Paper std %"});
  table.set_title("Section 4 summary — combined projection error per system");
  const std::map<std::string, bench::PaperSystemSummary> paper = {
      {bench::kPaperBgp.machine, bench::kPaperBgp},
      {bench::kPaperP6.machine, bench::kPaperP6},
      {bench::kPaperWm.machine, bench::kPaperWm},
  };
  for (const auto& [target, errors] : combined) {
    const ErrorSummary s = summarize_errors(errors);
    const auto it = paper.find(target);
    table.add_row({target, TextTable::num(s.mean_abs_error),
                   TextTable::num(s.stddev), TextTable::num(s.max_abs_error),
                   it != paper.end() ? TextTable::num(it->second.average_error)
                                     : "-",
                   it != paper.end() ? TextTable::num(it->second.stddev)
                                     : "-"});
  }
  table.print(std::cout);

  const double fraction =
      static_cast<double>(above) / static_cast<double>(total);
  std::cout << "\nProjections above actual: "
            << TextTable::num(fraction * 100.0, 1) << "% (paper: "
            << TextTable::num(bench::kPaperFractionAbove * 100.0, 1)
            << "%) over " << total << " projections\n";
  return 0;
}
