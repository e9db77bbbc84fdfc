// Tests of the admission ledger itself: the output checker rejects
// corrupted states, every workload runs clean at smoke-test size, and the
// exact work counts repeat for a fixed seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "checks.hpp"
#include "core/scheduler.hpp"
#include "ledger.hpp"
#include "workload/arrivals.hpp"
#include "workload/task_graphs.hpp"

namespace {

using namespace sparcle;

bool mentions(const std::vector<std::string>& violations,
              const std::string& what) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const std::string& v) {
                       return v.find(what) != std::string::npos;
                     });
}

/// A small site with BE and GR apps placed: the state the mutations
/// corrupt.
class CheckerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    sched_ = std::make_unique<Scheduler>(workload::soak_site(2, 5, rng));
    const auto graph =
        workload::linear_task_graph(2, rng, workload::TaskRanges{});
    const Network& net = sched_->network();
    for (int i = 0; i < 6; ++i) {
      Application app;
      app.name = "app" + std::to_string(i);
      app.graph = graph;
      app.qoe = i % 3 == 2 ? QoeSpec::guaranteed_rate(0.2, 0.0)
                           : QoeSpec::best_effort(1.0 + i);
      app.pinned[graph->sources().front()] =
          static_cast<NcpId>((2 * i + 1) % net.ncp_count());
      app.pinned[graph->sinks().front()] =
          static_cast<NcpId>((3 * i + 2) % net.ncp_count());
      ASSERT_TRUE(sched_->submit(app).admitted) << app.name;
    }
    view_ = ledger::view_of(*sched_);
  }

  PlacedApp& first(QoeClass cls) {
    for (PlacedApp& pa : view_.placed)
      if (pa.app.qoe.cls == cls) return pa;
    throw std::logic_error("no app of that class");
  }

  std::unique_ptr<Scheduler> sched_;
  ledger::StateView view_;
};

TEST_F(CheckerTest, AcceptsTheSchedulersState) {
  EXPECT_TRUE(ledger::check_state(view_).empty());
}

TEST_F(CheckerTest, RejectsRatesScaledPastCapacity) {
  PlacedApp& pa = first(QoeClass::kBestEffort);
  for (double& r : pa.path_rates) r *= 1000.0;
  pa.allocated_rate *= 1000.0;
  EXPECT_TRUE(mentions(ledger::check_state(view_), "exceeds capacity"));
}

TEST_F(CheckerTest, RejectsAMovedPin) {
  PlacedApp& pa = first(QoeClass::kBestEffort);
  auto& [ct, ncp] = *pa.app.pinned.begin();
  ncp = static_cast<NcpId>((ncp + 1) % view_.net->ncp_count());
  EXPECT_TRUE(mentions(ledger::check_state(view_), "not honoured"));
}

TEST_F(CheckerTest, RejectsAGrAppBelowItsMinRate) {
  PlacedApp& pa = first(QoeClass::kGuaranteedRate);
  for (double& r : pa.path_rates) r *= 0.5;
  pa.allocated_rate *= 0.5;
  EXPECT_TRUE(mentions(ledger::check_state(view_), "below its min_rate"));
}

TEST_F(CheckerTest, RejectsAStarvedBeApp) {
  PlacedApp& pa = first(QoeClass::kBestEffort);
  for (double& r : pa.path_rates) r = 0.0;
  pa.allocated_rate = 0.0;
  EXPECT_TRUE(mentions(ledger::check_state(view_), "BE rate is 0"));
  // ... but not while one of its elements is failed.
  const Placement& p = pa.paths.front().placement;
  view_.failed.insert(ElementKey::ncp(p.ct_host(0)));
  EXPECT_FALSE(mentions(ledger::check_state(view_), "BE rate is 0"));
}

TEST_F(CheckerTest, RejectsLoadOnAFailedElement) {
  const PlacedApp& pa = first(QoeClass::kBestEffort);
  view_.failed.insert(ElementKey::ncp(pa.paths.front().placement.ct_host(1)));
  EXPECT_TRUE(mentions(ledger::check_state(view_), "exceeds capacity 0"));
}

TEST_F(CheckerTest, RejectsABrokenRoute) {
  PlacedApp& pa = first(QoeClass::kBestEffort);
  Placement& p = pa.paths.front().placement;
  // Re-host CT 1 without re-routing its TTs.
  p.place_ct(1, static_cast<NcpId>((p.ct_host(1) + 1) % view_.net->ncp_count()));
  const auto v = ledger::check_state(view_);
  EXPECT_TRUE(mentions(v, "forward walk") || mentions(v, "ends away"));
}

TEST_F(CheckerTest, RejectsRateAccountingDrift) {
  first(QoeClass::kBestEffort).allocated_rate += 1.0;
  EXPECT_TRUE(mentions(ledger::check_state(view_), "sum of its path rates"));
}

class WorkloadSmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSmoke, RunsCleanTracedAndUntraced) {
  for (bool trace : {false, true}) {
    ledger::Options o;
    o.workload = GetParam();
    o.seed = 3;
    o.tiny = true;
    o.ops = 30;
    o.trace = trace;
    const ledger::Result r = ledger::run(o);
    EXPECT_TRUE(r.violations.empty())
        << (r.violations.empty() ? "" : r.violations.front());
    for (const auto& [kind, c] : r.ops) EXPECT_EQ(c.failed, 0u) << kind;
    EXPECT_GT(r.ops.at("submit").attempted, 0u);
    EXPECT_GT(r.ops.at("remove").attempted, 0u);
    EXPECT_GT(r.ops.at("query").attempted, 0u);
    if (GetParam() == "service_mix") {
      EXPECT_GT(r.ops.at("repair").attempted, 0u);
      EXPECT_GT(r.ops.at("recover").attempted, 0u);
    }
    const char* metric = trace ? "pf.solves" : "admission_p50_us";
    ASSERT_TRUE(r.metrics.contains(metric));
    EXPECT_GT(r.metrics.at(metric).value, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadSmoke,
                         ::testing::Values("site_scale", "population",
                                           "service_mix"));

class WorkCounts : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkCounts, RepeatExactlyForOneSeed) {
  ledger::Options o;
  o.workload = GetParam();
  o.seed = 5;
  o.ops = 6;
  o.trace = true;
  const ledger::Result a = ledger::run(o);
  const ledger::Result b = ledger::run(o);
  for (const char* key : {"assign.calls", "assign.widest_path_calls",
                          "assign.gamma_evals", "pf.solves",
                          "pf.newton_iters"}) {
    ASSERT_TRUE(a.work.contains(key)) << key;
    EXPECT_GT(a.work.at(key), 0u) << key;
  }
  EXPECT_EQ(a.work, b.work);
}

INSTANTIATE_TEST_SUITE_P(Direct, WorkCounts,
                         ::testing::Values("site_scale", "population"));

TEST(Options, RejectsAnUnknownWorkload) {
  ledger::Options o;
  o.workload = "nope";
  EXPECT_THROW(ledger::run(o), std::invalid_argument);
}

}  // namespace
