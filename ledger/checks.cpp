#include "checks.hpp"

#include <cmath>
#include <sstream>

namespace ledger {

using namespace sparcle;

namespace {

constexpr double kRelTol = 1e-6;
constexpr double kAbsTol = 1e-9;

std::string element_name(const Network& net, const ElementKey& e) {
  return e.kind == ElementKey::Kind::kNcp ? "ncp " + net.ncp(e.index).name
                                          : "link " + net.link(e.index).name;
}

}  // namespace

StateView view_of(const Scheduler& s) {
  return StateView{&s.network(), s.placed(), s.failed_elements()};
}

std::vector<std::string> check_state(const StateView& state) {
  std::vector<std::string> errors;
  const Network& net = *state.net;
  const std::size_t resources = net.schema().size();
  // used[r][j]: Σ rate × requirement on NCP j; link_used[l] likewise.
  std::vector<std::vector<double>> used(
      resources, std::vector<double>(net.ncp_count(), 0.0));
  std::vector<double> link_used(net.link_count(), 0.0);

  auto fail = [&](const std::string& app, const std::string& what) {
    errors.push_back("app " + app + ": " + what);
  };

  for (const PlacedApp& pa : state.placed) {
    const std::string& name = pa.app.name;
    const TaskGraph& g = *pa.app.graph;
    if (pa.path_rates.size() != pa.paths.size()) {
      fail(name, "path_rates and paths differ in length");
      continue;
    }
    double rate_sum = 0.0;
    bool touches_failed = false;
    for (std::size_t k = 0; k < pa.paths.size(); ++k) {
      const Placement& p = pa.paths[k].placement;
      const double rate = pa.path_rates[k];
      rate_sum += rate;
      if (!(rate >= 0.0)) fail(name, "negative path rate");
      if (p.ct_count() != g.ct_count() || p.tt_count() != g.tt_count()) {
        fail(name, "placement shape differs from its task graph");
        continue;
      }
      for (const auto& [ct, ncp] : pa.app.pinned)
        if (p.ct_host(ct) != ncp)
          fail(name, "pin of CT " + g.ct(ct).name + " not honoured on path " +
                         std::to_string(k));
      for (CtId i = 0; i < static_cast<CtId>(g.ct_count()); ++i) {
        const NcpId j = p.ct_host(i);
        if (j < 0 || j >= static_cast<NcpId>(net.ncp_count())) {
          fail(name, "CT " + g.ct(i).name + " has no host");
          continue;
        }
        if (state.failed.contains(ElementKey::ncp(j))) touches_failed = true;
        for (std::size_t r = 0; r < resources; ++r)
          used[r][j] += rate * g.ct(i).requirement[r];
      }
      for (TtId t = 0; t < static_cast<TtId>(g.tt_count()); ++t) {
        const TransportTask& tt = g.tt(t);
        NcpId at = p.ct_host(tt.src);
        for (LinkId l : p.tt_route(t)) {
          if (l < 0 || l >= static_cast<LinkId>(net.link_count()) ||
              !net.can_traverse(l, at)) {
            fail(name, "route of TT " + tt.name + " is not a forward walk");
            at = kInvalidId;
            break;
          }
          if (state.failed.contains(ElementKey::link(l)) ||
              state.failed.contains(ElementKey::ncp(at)))
            touches_failed = true;
          link_used[l] += rate * tt.bits_per_unit;
          at = net.other_end(l, at);
        }
        if (at != kInvalidId && at != p.ct_host(tt.dst))
          fail(name, "route of TT " + tt.name + " ends away from its CT");
      }
    }
    const double scale = std::max(1.0, std::abs(pa.allocated_rate));
    if (std::abs(rate_sum - pa.allocated_rate) > kRelTol * scale)
      fail(name, "allocated rate differs from the sum of its path rates");
    if (pa.app.qoe.cls == QoeClass::kGuaranteedRate) {
      if (pa.allocated_rate < pa.app.qoe.min_rate * (1.0 - kRelTol))
        fail(name, "GR rate below its min_rate");
    } else if (!touches_failed && !(pa.allocated_rate > 0.0)) {
      fail(name, "BE rate is 0 with every element alive");
    }
  }

  auto over = [&](double load, double cap, bool failed) {
    if (failed) return load > kAbsTol;
    return load > cap * (1.0 + kRelTol) + kAbsTol;
  };
  for (NcpId j = 0; j < static_cast<NcpId>(net.ncp_count()); ++j) {
    const bool failed = state.failed.contains(ElementKey::ncp(j));
    for (std::size_t r = 0; r < resources; ++r)
      if (over(used[r][j], net.ncp(j).capacity[r], failed)) {
        std::ostringstream os;
        os << element_name(net, ElementKey::ncp(j)) << ": load " << used[r][j]
           << " exceeds capacity "
           << (failed ? 0.0 : net.ncp(j).capacity[r]);
        errors.push_back(os.str());
      }
  }
  for (LinkId l = 0; l < static_cast<LinkId>(net.link_count()); ++l) {
    const bool failed = state.failed.contains(ElementKey::link(l));
    if (over(link_used[l], net.link(l).bandwidth, failed)) {
      std::ostringstream os;
      os << element_name(net, ElementKey::link(l)) << ": load "
         << link_used[l] << " exceeds capacity "
         << (failed ? 0.0 : net.link(l).bandwidth);
      errors.push_back(os.str());
    }
  }
  return errors;
}

}  // namespace ledger
