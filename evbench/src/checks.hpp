#pragma once
// Output checks that do not rest on the program agreeing with itself: each
// one compares a report against the generator's ground truth, against the
// raw E-scenario data, against value ranges, or against a count the
// benchmark makes on its own. Every check returns the number of violations
// it found (0 = pass), so the self-test can show that each one rejects a
// corrupted report.

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "dataset/world.hpp"
#include "esense/e_scenario.hpp"
#include "vsense/v_scenario.hpp"

namespace evbench {

/// Results and scenario lists line up with `targets`, in order.
[[nodiscard]] std::size_t ShapeViolations(const evm::MatchReport& report,
                                          const std::vector<evm::Eid>& targets);

/// confidence outside [0, 1]; for resolved results, majority_fraction
/// outside (0, 1] or an invalid reported VID.
[[nodiscard]] std::size_t RangeViolations(
    const std::vector<evm::MatchResult>& results);

/// Scenario-list entries whose E-scenario does not hold the list's EID with
/// the inclusive attribute (or does not exist at all).
[[nodiscard]] std::size_t PresenceViolations(
    const std::vector<evm::EidScenarioList>& lists,
    const evm::EScenarioSet& e_scenarios);

/// Results whose reported VID is the generator's true VID of their EID.
[[nodiscard]] std::size_t CorrectResults(
    const std::vector<evm::MatchResult>& results,
    const evm::GroundTruth& truth);

/// Observations held by the distinct scenarios among `ids`.
[[nodiscard]] std::uint64_t ObservationsIn(
    const std::vector<evm::ScenarioId>& ids,
    const evm::VScenarioSet& v_scenarios);

/// Field-by-field differences between two reports' results and scenario
/// lists (doubles compared exactly; run statistics ignored).
[[nodiscard]] std::size_t ReportDifferences(const evm::MatchReport& a,
                                            const evm::MatchReport& b);

/// Record conservation of one stream phase: every push accepted, and the
/// driver's data counters equal to what was pushed, with nothing late,
/// dropped, rejected, throttled or shed.
struct StreamLedger {
  std::uint64_t e_pushed{0};
  std::uint64_t v_pushed{0};
  std::uint64_t accepted{0};
  std::uint64_t e_counted{0};  // stream.e_records
  std::uint64_t v_counted{0};  // stream.v_detections
  std::uint64_t lost{0};       // late + dropped + rejected + throttled + shed
};
[[nodiscard]] std::size_t ConservationViolations(const StreamLedger& ledger);

/// Feeds every check a genuine report and then deliberately corrupted ones;
/// returns 0 when each corruption is rejected and the genuine input passes.
int RunSelfTest();

}  // namespace evbench
