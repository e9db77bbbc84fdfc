#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file ledger.hpp
/// The admission ledger: three workloads driving SPARCLE's public API
/// (Scheduler and service::SchedulerService), each reporting end-to-end
/// metrics from an untraced run and per-layer metrics from a traced one.
/// README.md in this directory gives the workloads, metrics and seeds.

namespace ledger {

/// What one run does.
struct Options {
  std::string workload;     ///< site_scale | population | service_mix
  std::uint64_t seed{1};    ///< every input is drawn from this seed
  double seconds{10.0};     ///< length of each timed phase
  /// Run a second, traced phase and report the per-layer metrics.
  bool trace{false};
  /// When non-zero, each timed phase ends after this many operations
  /// instead of after `seconds` (the work-count repeatability test).
  std::size_t ops{0};
  /// Shrink the site, population and offered rate to a smoke-test size.
  bool tiny{false};
  /// Where the traced run writes its Chrome trace ("" = nowhere).
  std::string trace_out;
};

/// Attempts and outcomes of one operation kind.
struct OpCount {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};    ///< exception, lost/duplicate/bounced reply
  std::uint64_t rejected{0};  ///< admission control said no (a decision)
};

/// A metric value with its unit.
struct Metric {
  double value{0.0};
  std::string unit;
};

/// Everything a run reports.
struct Result {
  /// Output-check violations (empty = every check passed).
  std::vector<std::string> violations;
  std::map<std::string, OpCount> ops;      ///< per operation kind
  std::map<std::string, Metric> metrics;   ///< end-to-end or per-layer
  /// Exact work counts of the traced phase (machine-independent).
  std::map<std::string, std::uint64_t> work;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload.  Throws std::invalid_argument on a bad option.
Result run(const Options& options);

}  // namespace ledger
