/// \file bench_tournament.cpp
/// Policy tournament (docs/policies.md): races every scheduling-policy
/// plugin against every adversarial arrival scenario — diurnal waves,
/// flash crowds, heavy-tailed sizes, correlated regional outages, a
/// multi-tenant GR/BE mix — on the identical network, arrival stream,
/// and churn trace per scenario, then prints the comparative matrix and
/// the per-scenario winners.  With SPARCLE_BENCH_JSON set the full
/// report (per-cell metrics + winners block) is written there; the
/// checked-in BENCH_tournament.json is this output
/// (tools/soak.sh refreshes it).
///
/// Knobs: SPARCLE_TOURNAMENT_ARRIVALS (arrivals per cell, default 4000),
/// SPARCLE_TEST_SEED (default 1).  Exit status 1 when any cell trips an
/// invariant check.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "soak/soak.hpp"

using namespace sparcle;
using bench::fmt;
using bench::Table;

int main() {
  const char* arrivals_env = std::getenv("SPARCLE_TOURNAMENT_ARRIVALS");
  const char* seed_env = std::getenv("SPARCLE_TEST_SEED");

  soak::TournamentOptions options;
  options.arrivals_per_cell =
      arrivals_env && *arrivals_env ? std::strtoull(arrivals_env, nullptr, 0)
                                    : 4000;
  options.seed =
      seed_env && *seed_env ? std::strtoull(seed_env, nullptr, 0) : 1;
  options.invariant_epochs = 2;

  std::printf("Policy tournament: %zu arrivals/cell, seed %llu\n\n",
              options.arrivals_per_cell,
              static_cast<unsigned long long>(options.seed));

  const soak::TournamentReport report = soak::run_tournament(options);

  Table table({"scenario", "policy", "admit%", "GR admit%", "reneged",
               "carried rate", "eff (rate/W)", "p99 us", "rate drift%"});
  for (const soak::TournamentCell& cell : report.cells) {
    const soak::SoakResult& r = cell.result;
    table.add_row({cell.scenario, cell.policy,
                   fmt(100.0 * r.admit_ratio, 1),
                   fmt(100.0 * r.gr_admit_ratio, 1),
                   std::to_string(r.reneged),
                   fmt(r.final_gr_rate + r.final_be_rate, 3),
                   fmt(r.energy_efficiency, 4), fmt(r.submit_p99_us, 0),
                   fmt(100.0 * r.admit_rate_drift, 1)});
  }
  table.print();

  std::printf("\nWinners per scenario:\n");
  std::vector<std::string> scenarios;
  for (const soak::TournamentCell& cell : report.cells)
    if (scenarios.empty() || scenarios.back() != cell.scenario)
      scenarios.push_back(cell.scenario);
  for (const std::string& s : scenarios)
    std::printf("  %-16s admit: %-8s  energy: %-8s  carried: %s\n",
                s.c_str(), report.winner(s, "admit_ratio").c_str(),
                report.winner(s, "energy_efficiency").c_str(),
                report.winner(s, "carried_rate").c_str());

  bench::note(
      "\nEvery policy races the identical network, arrival stream, and "
      "churn trace within a scenario; only the three plugin decision "
      "points differ.  'default' is the paper's scheduler (what an unset "
      "policy means), so any cell an alternative wins is a real "
      "behavioral trade, not noise.");

  if (const char* path = std::getenv("SPARCLE_BENCH_JSON")) {
    std::ofstream out(path);
    out << soak::tournament_json(report, options);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 2;
    }
  }
  if (!report.ok()) {
    for (const soak::TournamentCell& cell : report.cells)
      for (const std::string& v : cell.result.violations)
        std::fprintf(stderr, "FAIL %s x %s:\n%s\n", cell.scenario.c_str(),
                     cell.policy.c_str(), v.c_str());
    return 1;
  }
  return 0;
}
