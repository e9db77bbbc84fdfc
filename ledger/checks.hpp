#pragma once

#include <set>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "model/network.hpp"

/// \file checks.hpp
/// Output checks of the admission ledger, computed apart from the
/// scheduler: every quantity is rebuilt from the network, the placements
/// and the QoE contracts, never read from the scheduler's own bookkeeping
/// (stored load maps, residuals, element lists).

namespace ledger {

/// A copy of the state a scheduler exposes through its public accessors.
/// Holding a copy lets the tests corrupt it and see the checker object.
struct StateView {
  const sparcle::Network* net{nullptr};
  std::vector<sparcle::PlacedApp> placed;
  std::set<sparcle::ElementKey> failed;
};

/// Copies `s.network()`, `s.placed()` and `s.failed_elements()`.
StateView view_of(const sparcle::Scheduler& s);

/// Checks a placement state:
///  - every TT route is a walk along traversable links from the host of
///    its source CT to the host of its destination CT;
///  - every pin is honoured on every path;
///  - per element, Σ path rate × per-unit load (recomputed from the CT
///    requirements and TT bits) is within capacity, relative 1e-6, and a
///    failed element carries nothing;
///  - path rates are non-negative and sum to the app's allocated rate;
///  - every GR app carries at least its min_rate;
///  - every BE app none of whose elements has failed carries rate > 0.
/// Returns one line per violation (empty when the state is sound).
std::vector<std::string> check_state(const StateView& state);

}  // namespace ledger
