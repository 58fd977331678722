#include "checks.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "core/matcher.hpp"
#include "dataset/generator.hpp"
#include "metrics/experiment.hpp"

namespace evbench {

std::size_t ShapeViolations(const evm::MatchReport& report,
                            const std::vector<evm::Eid>& targets) {
  std::size_t bad = 0;
  if (report.results.size() != targets.size()) ++bad;
  if (report.scenario_lists.size() != targets.size()) ++bad;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (i < report.results.size() && report.results[i].eid != targets[i]) {
      ++bad;
    }
    if (i < report.scenario_lists.size() &&
        report.scenario_lists[i].eid != targets[i]) {
      ++bad;
    }
  }
  return bad;
}

std::size_t RangeViolations(const std::vector<evm::MatchResult>& results) {
  std::size_t bad = 0;
  for (const evm::MatchResult& r : results) {
    if (!(r.confidence >= 0.0 && r.confidence <= 1.0)) ++bad;
    if (r.resolved && !(r.majority_fraction > 0.0 && r.majority_fraction <= 1.0)) {
      ++bad;
    }
    if (r.resolved && !r.reported_vid.valid()) ++bad;
  }
  return bad;
}

std::size_t PresenceViolations(const std::vector<evm::EidScenarioList>& lists,
                               const evm::EScenarioSet& e_scenarios) {
  std::size_t bad = 0;
  for (const evm::EidScenarioList& list : lists) {
    for (const evm::ScenarioId id : list.scenarios) {
      const evm::EScenario* scenario = e_scenarios.Find(id);
      // Entries are sorted by EID; look the EID up without the program's
      // own AttrOf helper.
      bool inclusive = false;
      if (scenario != nullptr) {
        const auto it = std::lower_bound(
            scenario->entries.begin(), scenario->entries.end(), list.eid,
            [](const evm::EidEntry& e, evm::Eid eid) { return e.eid < eid; });
        inclusive = it != scenario->entries.end() && it->eid == list.eid &&
                    it->attr == evm::EidAttr::kInclusive;
      }
      if (!inclusive) ++bad;
    }
  }
  return bad;
}

std::size_t CorrectResults(const std::vector<evm::MatchResult>& results,
                           const evm::GroundTruth& truth) {
  std::size_t good = 0;
  for (const evm::MatchResult& r : results) {
    if (r.resolved && truth.Knows(r.eid) &&
        r.reported_vid == truth.TrueVidOf(r.eid)) {
      ++good;
    }
  }
  return good;
}

std::uint64_t ObservationsIn(const std::vector<evm::ScenarioId>& ids,
                             const evm::VScenarioSet& v_scenarios) {
  std::set<std::uint64_t> distinct;
  for (const evm::ScenarioId id : ids) distinct.insert(id.value());
  std::uint64_t total = 0;
  for (const std::uint64_t id : distinct) {
    const evm::VScenario* scenario = v_scenarios.Find(evm::ScenarioId{id});
    if (scenario != nullptr) total += scenario->observations.size();
  }
  return total;
}

std::size_t ReportDifferences(const evm::MatchReport& a,
                              const evm::MatchReport& b) {
  std::size_t diff = 0;
  if (a.results.size() != b.results.size()) ++diff;
  if (a.scenario_lists.size() != b.scenario_lists.size()) ++diff;
  for (std::size_t i = 0; i < std::min(a.results.size(), b.results.size());
       ++i) {
    const evm::MatchResult& x = a.results[i];
    const evm::MatchResult& y = b.results[i];
    if (x.eid != y.eid || x.chosen_per_scenario != y.chosen_per_scenario ||
        x.reported_vid != y.reported_vid || x.confidence != y.confidence ||
        x.majority_fraction != y.majority_fraction ||
        x.resolved != y.resolved || x.e_only != y.e_only) {
      ++diff;
    }
  }
  for (std::size_t i = 0;
       i < std::min(a.scenario_lists.size(), b.scenario_lists.size()); ++i) {
    const evm::EidScenarioList& x = a.scenario_lists[i];
    const evm::EidScenarioList& y = b.scenario_lists[i];
    if (x.eid != y.eid || x.scenarios != y.scenarios ||
        x.distinguished != y.distinguished) {
      ++diff;
    }
  }
  return diff;
}

std::size_t ConservationViolations(const StreamLedger& ledger) {
  std::size_t bad = 0;
  const std::uint64_t pushed = ledger.e_pushed + ledger.v_pushed;
  if (ledger.accepted != pushed) ++bad;
  if (ledger.e_counted != ledger.e_pushed) ++bad;
  if (ledger.v_counted != ledger.v_pushed) ++bad;
  if (ledger.lost != 0) ++bad;
  return bad;
}

namespace {

int Expect(bool ok, const char* what) {
  std::printf("  %-58s %s\n", what, ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int RunSelfTest() {
  evm::DatasetConfig config;
  config.population = 160;
  config.ticks = 600;
  config.SetDensity(20.0);
  config.seed = 11;
  const evm::Dataset dataset = evm::GenerateDataset(config);
  const std::vector<evm::Eid> targets = evm::SampleTargets(dataset, 40, 3);
  evm::MatcherConfig matcher_config;
  evm::EvMatcher matcher(dataset.e_scenarios, dataset.v_scenarios,
                         dataset.oracle, matcher_config);
  const evm::MatchReport report = matcher.Match(targets);
  std::vector<evm::ScenarioId> touched;
  for (const auto& list : report.scenario_lists) {
    touched.insert(touched.end(), list.scenarios.begin(), list.scenarios.end());
  }

  int failures = 0;
  std::printf("evbench self-test: genuine report (%zu targets)\n",
              targets.size());
  failures += Expect(ShapeViolations(report, targets) == 0, "shape accepted");
  failures += Expect(RangeViolations(report.results) == 0, "ranges accepted");
  failures += Expect(
      PresenceViolations(report.scenario_lists, dataset.e_scenarios) == 0,
      "presence accepted");
  const std::size_t correct = CorrectResults(report.results, dataset.truth);
  failures += Expect(correct * 10 >= targets.size() * 7,
                     "ground-truth accuracy at least 70%");
  failures += Expect(ObservationsIn(touched, dataset.v_scenarios) ==
                         matcher.gallery().ExtractionCount(),
                     "extraction count equals observations touched");
  failures += Expect(ReportDifferences(report, report) == 0,
                     "identity accepted");

  std::printf("evbench self-test: corrupted reports\n");
  {
    // Swap the reported VIDs of every pair of resolved results.
    evm::MatchReport bad = report;
    for (std::size_t i = 0; i + 1 < bad.results.size(); i += 2) {
      std::swap(bad.results[i].reported_vid, bad.results[i + 1].reported_vid);
    }
    failures += Expect(CorrectResults(bad.results, dataset.truth) * 10 <
                           targets.size() * 7,
                       "swapped VIDs fall below the accuracy floor");
    failures += Expect(ReportDifferences(report, bad) > 0,
                       "swapped VIDs break cross-path identity");
  }
  {
    evm::MatchReport bad = report;
    bad.results.front().confidence = 1.5;
    failures += Expect(RangeViolations(bad.results) > 0,
                       "confidence 1.5 rejected");
    bad = report;
    bad.results.front().confidence = -0.25;
    failures += Expect(RangeViolations(bad.results) > 0,
                       "confidence -0.25 rejected");
    bad = report;
    for (auto& r : bad.results) {
      if (r.resolved) {
        r.majority_fraction = 0.0;
        break;
      }
    }
    failures += Expect(RangeViolations(bad.results) > 0,
                       "majority_fraction 0 on a resolved result rejected");
  }
  {
    // Point one list entry at a scenario its EID is not inclusive in.
    evm::MatchReport bad = report;
    evm::EidScenarioList& list = bad.scenario_lists.front();
    for (const evm::EScenario& s : dataset.e_scenarios.scenarios()) {
      if (!s.ContainsInclusive(list.eid)) {
        list.scenarios.push_back(s.id);
        break;
      }
    }
    failures += Expect(
        PresenceViolations(bad.scenario_lists, dataset.e_scenarios) > 0,
        "scenario without the EID rejected");
  }
  {
    evm::MatchReport bad = report;
    bad.results.pop_back();
    failures += Expect(ShapeViolations(bad, targets) > 0,
                       "dropped result rejected");
  }
  {
    StreamLedger ledger{1000, 100, 1100, 1000, 100, 0};
    failures += Expect(ConservationViolations(ledger) == 0,
                       "balanced stream ledger accepted");
    StreamLedger dropped = ledger;
    dropped.v_counted -= 1;  // one detection never reached the store
    failures += Expect(ConservationViolations(dropped) > 0,
                       "dropped record rejected");
    StreamLedger late = ledger;
    late.lost = 1;
    failures += Expect(ConservationViolations(late) > 0,
                       "late record rejected");
  }
  {
    // Forget one touched scenario that holds observations.
    const auto it = std::find_if(touched.begin(), touched.end(), [&](auto id) {
      const evm::VScenario* s = dataset.v_scenarios.Find(id);
      return s != nullptr && !s->observations.empty();
    });
    const evm::ScenarioId gone = it != touched.end() ? *it : evm::ScenarioId{};
    touched.erase(std::remove(touched.begin(), touched.end(), gone),
                  touched.end());
    failures += Expect(ObservationsIn(touched, dataset.v_scenarios) !=
                           matcher.gallery().ExtractionCount(),
                       "missing scenario breaks the extraction count");
  }
  std::printf("evbench self-test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace evbench
