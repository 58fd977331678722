// live_feed: a city feed restarting. The archived hours are pushed
// unpaced into a StreamDriver with watermarks withheld (ingest layers only,
// no timing-dependent sealing) and drained; then a fresh driver takes the
// remaining hours open-loop at a fixed rate with one heartbeat per window,
// far enough below capacity that every window seals in its own batch.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <thread>

#include "checks.hpp"
#include "common/rng.hpp"
#include "core/matcher.hpp"
#include "stream/counters.hpp"
#include "stream/incremental_matcher.hpp"
#include "stream/stream_driver.hpp"
#include "stream/windowed_store.hpp"
#include "workloads.hpp"

namespace evbench {
namespace {

namespace st = evm::stream;

/// The feed's world: 400 people over 40 cells for 4000 ticks (400 windows
/// of 10 ticks). The first kArchiveWindows are the archive. Density 10
/// keeps an incremental pass (~8 ms) far below the window period.
constexpr std::size_t kPopulation = 400;
constexpr double kDensity = 10.0;
constexpr std::size_t kTicks = 4000;
constexpr std::size_t kArchiveWindows = 100;
/// The watchlist is drawn from the world seed: with 8 EIDs, which ones are
/// watched moves a pass's cost by a third. --seed sets the arrival order of
/// records that share a tick instead.
constexpr std::size_t kWatchlist = 8;
constexpr std::size_t kArchiveRepeats = 8;
/// Live windows per second of measuring budget, and the wall time one
/// window's records are spread over (the fixed open-loop rate is the
/// window's record count over this period, ~73k records/s).
constexpr double kLiveWindowsPerSecond = 11.0;
constexpr std::size_t kMinLiveWindows = 40;
constexpr auto kWindowPeriod = std::chrono::microseconds(60'000);
constexpr auto kRecordSlack = std::chrono::microseconds(200);
/// Accuracy floor for the drained watchlist (measures ~0.9).
constexpr double kAccuracyFloor = 0.75;

struct Event {
  evm::Tick tick{0};
  bool is_e{true};
  std::size_t index{0};  // into the E-log or the detection list
};

struct Feed {
  std::vector<st::VDetection> detections;
  std::vector<Event> events;  // tick-ordered
  std::int64_t window_ticks{0};

  [[nodiscard]] std::size_t WindowOf(const Event& e) const {
    return static_cast<std::size_t>(e.tick.value / window_ticks);
  }
};

/// The E-log and the V detections merged by tick; records sharing a tick
/// arrive in an order drawn from `seed`.
Feed MakeFeed(const evm::Dataset& dataset, std::uint64_t seed) {
  Feed feed;
  feed.window_ticks = dataset.config.window_ticks;
  for (const evm::VScenario& scenario : dataset.v_scenarios.scenarios()) {
    for (const evm::VObservation& observation : scenario.observations) {
      feed.detections.push_back(
          st::VDetection{scenario.window.begin, scenario.cell, observation});
    }
  }
  std::stable_sort(feed.detections.begin(), feed.detections.end(),
                   [](const auto& a, const auto& b) {
                     return a.tick.value < b.tick.value;
                   });
  const auto& records = dataset.e_log.records();
  std::size_t ei = 0;
  std::size_t vi = 0;
  while (ei < records.size() || vi < feed.detections.size()) {
    const bool take_e =
        vi >= feed.detections.size() ||
        (ei < records.size() &&
         records[ei].tick.value <= feed.detections[vi].tick.value);
    if (take_e) {
      feed.events.push_back(Event{records[ei].tick, true, ei});
      ++ei;
    } else {
      feed.events.push_back(Event{feed.detections[vi].tick, false, vi});
      ++vi;
    }
  }
  evm::Rng rng = evm::MakeStream(seed, "feed-arrival-order");
  for (std::size_t lo = 0; lo < feed.events.size();) {
    std::size_t hi = lo;
    while (hi < feed.events.size() &&
           feed.events[hi].tick.value == feed.events[lo].tick.value) {
      ++hi;
    }
    for (std::size_t i = hi - lo; i > 1; --i) {
      std::swap(feed.events[lo + i - 1], feed.events[lo + rng.NextBelow(i)]);
    }
    lo = hi;
  }
  return feed;
}

st::StreamDriverConfig DriverConfig(const evm::Dataset& dataset,
                                    const std::vector<evm::Eid>& watchlist) {
  st::StreamDriverConfig config;
  config.e_queue = {4096, st::BackpressurePolicy::kBlock};
  config.v_queue = {4096, st::BackpressurePolicy::kBlock};
  config.store.scenario = evm::EScenarioConfig{
      dataset.config.window_ticks, dataset.config.vague_width_m,
      dataset.config.inclusive_threshold, dataset.config.vague_threshold};
  config.match.targets = watchlist;
  // One lane (an E and a V consumer) plus the sealer, which also runs the
  // V stage: with the benchmark thread, four threads on four cores.
  config.shards = 1;
  config.v_workers = 1;
  return config;
}

st::PushResult Push(st::StreamDriver& driver, const evm::Dataset& dataset,
                    const Feed& feed, const Event& e) {
  return e.is_e ? driver.PushE(dataset.e_log.records()[e.index])
                : driver.PushV(feed.detections[e.index]);
}

StreamLedger Ledger(st::StreamDriver& driver, std::uint64_t e_pushed,
                    std::uint64_t v_pushed, std::uint64_t accepted) {
  evm::obs::MetricsRegistry& reg = driver.metrics();
  StreamLedger ledger;
  ledger.e_pushed = e_pushed;
  ledger.v_pushed = v_pushed;
  ledger.accepted = accepted;
  ledger.e_counted = reg.CounterValue(st::kCtrERecords);
  ledger.v_counted = reg.CounterValue(st::kCtrVDetections);
  ledger.lost = driver.store().late_records() + driver.e_dropped() +
                driver.v_dropped() + driver.e_rejected() +
                driver.v_rejected() + driver.throttled() +
                driver.shed_records();
  return ledger;
}

/// The batch pipeline's input for the archive: the E-log prefix through
/// the scenario builder, and the archive windows' V-scenarios.
struct ArchiveSets {
  evm::EScenarioSet e;
  evm::VScenarioSet v;
};

ArchiveSets BuildArchive(const evm::Dataset& dataset,
                         const evm::EScenarioConfig& scenario,
                         std::int64_t cut_tick) {
  evm::ELog log;
  for (const evm::ERecord& record : dataset.e_log.records()) {
    if (record.tick.value < cut_tick) log.Append(record);
  }
  ArchiveSets sets{evm::BuildEScenarios(log, dataset.grid, scenario), {}};
  for (const evm::VScenario& s : dataset.v_scenarios.scenarios()) {
    if (s.window.begin.value < cut_tick) sets.v.Add(s);
  }
  return sets;
}

struct ArchiveOutcome {
  double ingest_per_s{0};
  double drain_s{0};
  double push_ns{0};  // traced runs only
  evm::MatchReport report;
};

ArchiveOutcome RunArchive(const evm::Dataset& dataset, const Feed& feed,
                          std::size_t archive_events,
                          const std::vector<evm::Eid>& watchlist, bool timed,
                          Result& result, double* lookup_ns) {
  st::StreamDriver driver(dataset.grid, dataset.oracle,
                          DriverConfig(dataset, watchlist));
  driver.Start();
  std::uint64_t e_pushed = 0;
  std::uint64_t accepted = 0;
  double push_s = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < archive_events; ++i) {
    const Event& e = feed.events[i];
    const auto p0 = timed ? Clock::now() : Clock::time_point{};
    const st::PushResult r = Push(driver, dataset, feed, e);
    if (timed) push_s += Seconds(p0, Clock::now());
    accepted += r == st::PushResult::kAccepted ? 1 : 0;
    e_pushed += e.is_e ? 1 : 0;
  }
  const auto t1 = Clock::now();
  ArchiveOutcome out;
  out.report = driver.Drain();
  out.drain_s = Seconds(t1, Clock::now());
  out.ingest_per_s = static_cast<double>(archive_events) / Seconds(t0, t1);
  out.push_ns = push_s / static_cast<double>(archive_events) * 1e9;
  result.Check(ConservationViolations(Ledger(driver, e_pushed,
                                             archive_events - e_pushed,
                                             accepted)) == 0,
               "archive: every record accepted and stored, none lost");
  if (lookup_ns != nullptr) {
    // The per-record registry lookup the push path performs, timed on the
    // driver's own populated registry.
    constexpr int kLookups = 200'000;
    evm::obs::MetricsRegistry& reg = driver.metrics();
    const auto l0 = Clock::now();
    for (int i = 0; i < kLookups; ++i) reg.counter(st::kCtrERecords).Add(0);
    *lookup_ns = Seconds(l0, Clock::now()) / kLookups * 1e9;
  }
  return out;
}

struct LiveOutcome {
  std::vector<double> lag_ms;
  std::vector<double> late_ms;  // how late each heartbeat went out
  double windows_per_seal_batch{0};
  /// The driver's own stream.seal plus stream.incremental time per live
  /// window, from its registry: the untraced counterpart of the traced
  /// run's seal + pass.
  double seal_pass_ms{0};
};

/// Open-loop live phase. Records of live window j are due evenly over
/// [start + j*T, start + (j+1)*T); the heartbeat closing window j is due at
/// start + (j+1)*T. A window's lag runs from its heartbeat's due time until
/// the driver's record_to_match count covers every record through that
/// window, i.e. until its seal batch and incremental pass completed.
LiveOutcome RunLive(const evm::Dataset& dataset, const Feed& feed,
                    std::size_t first_event, std::size_t first_window,
                    std::size_t windows,
                    const std::vector<evm::Eid>& watchlist, Result& result) {
  st::StreamDriver driver(dataset.grid, dataset.oracle,
                          DriverConfig(dataset, watchlist));
  driver.Start();
  evm::obs::MetricsRegistry& reg = driver.metrics();

  // Per-window event ranges.
  std::vector<std::size_t> bounds{first_event};
  std::size_t i = first_event;
  for (std::size_t j = 0; j < windows; ++j) {
    while (i < feed.events.size() &&
           feed.WindowOf(feed.events[i]) == first_window + j) {
      ++i;
    }
    bounds.push_back(i);
  }

  LiveOutcome out;
  out.lag_ms.assign(windows, 0.0);
  std::vector<Clock::time_point> heartbeat_due(windows);
  std::size_t heartbeats = 0;
  std::size_t confirmed = 0;
  std::uint64_t e_pushed = 0;
  std::uint64_t accepted = 0;
  const auto poll = [&] {
    if (confirmed == heartbeats) return;
    const std::uint64_t done = reg.Latency(st::kLatRecordToMatch).count;
    const auto now = Clock::now();
    while (confirmed < heartbeats &&
           done >= bounds[confirmed + 1] - first_event) {
      out.lag_ms[confirmed] = Seconds(heartbeat_due[confirmed], now) * 1e3;
      ++confirmed;
    }
  };
  // Records go out in small bursts: a record is pushed once it is due
  // within kRecordSlack, so the generator sleeps between bursts instead of
  // spinning on a core the pipeline needs. Heartbeats go out on time (the
  // last stretch is spent yielding), since window lag is timed from them.
  const auto wait_until = [&](Clock::time_point due, bool exact) {
    const auto release = exact ? due : due - kRecordSlack;
    while (true) {
      poll();
      const auto now = Clock::now();
      if (now >= release) return;
      if (!exact || release - now > 2 * kRecordSlack) {
        std::this_thread::sleep_for(kRecordSlack / 2);
      } else {
        std::this_thread::yield();
      }
    }
  };

  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t j = 0; j < windows; ++j) {
    const auto window_start = start + kWindowPeriod * static_cast<int>(j);
    const std::size_t n = bounds[j + 1] - bounds[j];
    for (std::size_t k = 0; k < n; ++k) {
      wait_until(window_start +
                     kWindowPeriod * static_cast<int>(k) / static_cast<int>(n),
                 /*exact=*/false);
      const Event& e = feed.events[bounds[j] + k];
      accepted +=
          Push(driver, dataset, feed, e) == st::PushResult::kAccepted ? 1 : 0;
      e_pushed += e.is_e ? 1 : 0;
    }
    heartbeat_due[j] = window_start + kWindowPeriod;
    wait_until(heartbeat_due[j], /*exact=*/true);
    driver.AdvanceWatermark(evm::Tick{static_cast<std::int64_t>(
        (first_window + j + 1) * static_cast<std::size_t>(feed.window_ticks))});
    out.late_ms.push_back(Seconds(heartbeat_due[j], Clock::now()) * 1e3);
    ++heartbeats;
  }
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (confirmed < heartbeats && Clock::now() < deadline) {
    poll();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  result.Check(confirmed == windows, "every live window sealed and matched");
  const double batches =
      static_cast<double>(reg.CounterValue(st::kCtrSealBatches));
  out.windows_per_seal_batch =
      static_cast<double>(reg.CounterValue(st::kCtrWindowsSealed)) / batches;
  out.seal_pass_ms = (reg.Latency(st::kLatSeal).total_seconds +
                      reg.Latency(st::kLatIncremental).total_seconds) /
                     static_cast<double>(windows) * 1e3;
  const evm::MatchReport drained = driver.Drain();
  const std::size_t pushed = bounds.back() - first_event;
  result.Check(ConservationViolations(
                   Ledger(driver, e_pushed, pushed - e_pushed, accepted)) == 0,
               "live: every record accepted and stored, none lost");
  result.Check(ShapeViolations(drained, watchlist) == 0 &&
                   RangeViolations(drained.results) == 0,
               "live drain report in shape and range");
  return out;
}

}  // namespace

void RunLiveFeed(const Args& args, Result& result) {
  evm::DatasetConfig world;
  world.population = kPopulation;
  world.SetDensity(kDensity);
  world.ticks = kTicks;
  world.seed = kWorldSeed;
  const auto g0 = Clock::now();
  const evm::Dataset dataset = evm::GenerateDataset(world);
  const double generate_s = Seconds(g0, Clock::now());
  const Feed feed = MakeFeed(dataset, SubSeed(args.seed, 4));
  const std::vector<evm::Eid> watchlist =
      evm::SampleTargets(dataset, kWatchlist, SubSeed(kWorldSeed, 2));
  const std::size_t live_windows = std::min(
      OpsFor(args, kLiveWindowsPerSecond, kMinLiveWindows),
      kTicks / static_cast<std::size_t>(feed.window_ticks) - kArchiveWindows);
  const std::int64_t cut_tick =
      static_cast<std::int64_t>(kArchiveWindows) * feed.window_ticks;
  const std::size_t archive_events = static_cast<std::size_t>(
      std::partition_point(feed.events.begin(), feed.events.end(),
                           [&](const Event& e) {
                             return e.tick.value < cut_tick;
                           }) -
      feed.events.begin());
  const double setup_s = Seconds(ProcessStart(), Clock::now());

  // The archive phase is short (~0.45 s), so it runs kArchiveRepeats times
  // on fresh drivers and reports medians; every repeat must drain to the
  // same report.
  double lookup_ns = 0;
  std::vector<double> ingest_per_s;
  std::vector<double> drain_s;
  ArchiveOutcome archive;
  for (std::size_t r = 0; r < kArchiveRepeats; ++r) {
    const bool first = r == 0;
    ArchiveOutcome repeat =
        RunArchive(dataset, feed, archive_events, watchlist,
                   args.trace && first, result,
                   args.trace && first ? &lookup_ns : nullptr);
    ++result.attempted;
    ingest_per_s.push_back(repeat.ingest_per_s);
    drain_s.push_back(repeat.drain_s);
    if (first) {
      archive = std::move(repeat);
    } else {
      result.Check(ReportDifferences(repeat.report, archive.report) == 0,
                   "every archive repeat drains to the same report");
    }
  }
  const LiveOutcome live =
      RunLive(dataset, feed, archive_events, kArchiveWindows, live_windows,
              watchlist, result);
  result.attempted += live_windows;
  const double peak_rss_mb = PeakRssMb();

  // Output checks on the archive drain: ground truth, ranges, presence, and
  // identity with the batch matcher over the same records and watchlist.
  const st::StreamDriverConfig config = DriverConfig(dataset, watchlist);
  const ArchiveSets sets =
      BuildArchive(dataset, config.store.scenario, cut_tick);
  result.Check(ShapeViolations(archive.report, watchlist) == 0,
               "archive drain results line up with the watchlist");
  result.Check(RangeViolations(archive.report.results) == 0,
               "archive drain values in range");
  result.Check(PresenceViolations(archive.report.scenario_lists, sets.e) == 0,
               "archive drain lists hold their EIDs inclusively");
  result.Check(static_cast<double>(CorrectResults(archive.report.results,
                                                  dataset.truth)) >=
                   kAccuracyFloor * static_cast<double>(watchlist.size()),
               "archive drain accuracy at or above the floor");
  evm::MatcherConfig batch_config;
  batch_config.split = config.match.split;
  batch_config.filter = config.match.filter;
  batch_config.refine = config.match.refine;
  evm::EvMatcher batch(sets.e, sets.v, dataset.oracle, batch_config);
  result.Check(ReportDifferences(archive.report, batch.Match(watchlist)) == 0,
               "archive drain identical to the batch matcher");

  if (!args.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.peak_rss_mb = peak_rss_mb;
    e2e.op_p50_ms = Median(live.lag_ms);
    e2e.op_tail_ms = Quantile(live.lag_ms, TailQuantile(live.lag_ms.size()));
    e2e.items_per_s = Median(ingest_per_s);
    e2e.bulk_s = Median(drain_s);
    ReportEndToEnd(e2e, result);
    return;
  }

  // Traced run: the store and the incremental matcher driven directly on
  // the benchmark thread, in the sealer's order (append, extract, classify,
  // commit, incremental pass), with a span around each layer.
  SpanLog log;
  evm::obs::MetricsRegistry registry;
  // The driver's V-stage execution: a pool of v_workers threads and a
  // scheduler the calling thread takes part in.
  evm::ThreadPool pool(config.v_workers);
  evm::mapreduce::TaskScheduler scheduler(pool, {}, &registry, nullptr);
  const auto traced_start = Clock::now();
  std::uint64_t appended = 0;
  double append_s = 0;
  const auto append_range = [&](st::WindowedScenarioStore& store,
                                std::size_t from, std::size_t to) {
    SpanLog::Scope span(log, "stream.append");
    for (std::size_t k = from; k < to; ++k) {
      const Event& e = feed.events[k];
      if (e.is_e) {
        store.AppendE(dataset.e_log.records()[e.index]);
      } else {
        store.AppendV(feed.detections[e.index]);
      }
    }
    appended += to - from;
    append_s += span.Elapsed();
  };
  const auto seal = [&](st::WindowedScenarioStore& store,
                        const st::SealBatch& batch) {
    SpanLog::Scope span(log, "stream.seal");
    std::vector<st::ShardSealOutput> outputs;
    for (const st::ShardSealInput& input : batch.inputs) {
      outputs.push_back(st::WindowedScenarioStore::ClassifyShard(
          dataset.grid, config.store.scenario, st::ShardSealInput(input)));
    }
    return store.CommitSealed(batch, std::move(outputs));
  };
  std::size_t dirty = 0;
  std::size_t passes = 0;
  const auto incremental = [&](st::IncrementalMatcher& matcher,
                               const st::SealResult& sealed) {
    std::vector<evm::Eid> hit;
    std::set_intersection(watchlist.begin(), watchlist.end(),
                          sealed.changed_eids.begin(),
                          sealed.changed_eids.end(), std::back_inserter(hit));
    dirty += hit.size();
    passes += hit.empty() ? 0 : 1;
    SpanLog::Scope span(log, "stream.incremental");
    matcher.OnSealed(sealed);
  };

  double drain_pass_s = 0;
  {
    SpanLog::Scope root(log, "archive");
    st::WindowedScenarioStore store(dataset.grid, config.store);
    st::IncrementalMatcher matcher(store, dataset.oracle, config.match,
                                   registry, nullptr, &pool, &scheduler);
    append_range(store, 0, archive_events);
    incremental(matcher, seal(store, store.ExtractAll()));
    evm::MatchReport report;
    {
      SpanLog::Scope span(log, "stream.drain_pass");
      report = matcher.Drain();
      drain_pass_s = span.Elapsed();
    }
    result.Check(ReportDifferences(report, archive.report) == 0,
                 "store + incremental matcher reproduce the driver's drain");
  }
  dirty = 0;
  passes = 0;
  const std::uint64_t filtered_before = registry.CounterValue("mr.filter_tasks");
  const double archive_seal_s = log.TotalSeconds("stream.seal");
  const double archive_incremental_s = log.TotalSeconds("stream.incremental");
  std::vector<double> window_ms;
  {
    SpanLog::Scope root(log, "live");
    st::WindowedScenarioStore store(dataset.grid, config.store);
    st::IncrementalMatcher matcher(store, dataset.oracle, config.match,
                                   registry, nullptr, &pool, &scheduler);
    std::size_t k = archive_events;
    for (std::size_t j = 0; j < live_windows; ++j) {
      const std::size_t window = kArchiveWindows + j;
      std::size_t end = k;
      while (end < feed.events.size() &&
             feed.WindowOf(feed.events[end]) == window) {
        ++end;
      }
      append_range(store, k, end);
      k = end;
      const auto w0 = Clock::now();
      incremental(matcher,
                  seal(store, store.ExtractSealable(evm::Tick{
                                  static_cast<std::int64_t>(window + 1) *
                                  feed.window_ticks})));
      window_ms.push_back(Seconds(w0, Clock::now()) * 1e3);
    }
  }
  const double traced_total = Seconds(traced_start, Clock::now());
  const double refiltered = static_cast<double>(
      registry.CounterValue("mr.filter_tasks") - filtered_before);
  const double w = static_cast<double>(live_windows);
  auto& layers = result.layers;
  layers["dataset.generate_s"] = generate_s;
  layers["stream.push_ns_per_record"] = archive.push_ns;
  layers["stream.append_ns_per_record"] =
      append_s / static_cast<double>(appended) * 1e9;
  layers["obs.counter_lookup_ns"] = lookup_ns;
  layers["stream.seal_ms_per_window"] =
      (log.TotalSeconds("stream.seal") - archive_seal_s) / w * 1e3;
  layers["stream.incremental_ms_per_window"] =
      (log.TotalSeconds("stream.incremental") - archive_incremental_s) / w *
      1e3;
  layers["stream.dirty_targets_per_pass"] =
      passes > 0 ? static_cast<double>(dirty) / static_cast<double>(passes)
                 : 0.0;
  // Targets whose list changed and went through the V stage again.
  layers["stream.refiltered_per_pass"] =
      passes > 0 ? refiltered / static_cast<double>(passes) : 0.0;
  layers["stream.windows_per_seal_batch"] = live.windows_per_seal_batch;
  layers["stream.drain_pass_s"] = drain_pass_s;
  layers["stream.generator_late_ms"] =
      Quantile(live.late_ms, TailQuantile(live.late_ms.size()));
  layers["trace.uncovered_share"] =
      (traced_total - log.RootSeconds()) / traced_total;
  // Seal plus incremental pass per live window, traced here against the
  // untraced live driver's own stream.seal + stream.incremental time.
  const double traced_window_ms = Sum(window_ms) / w;
  layers["trace.overhead_ratio"] = traced_window_ms / live.seal_pass_ms;
  PrintLayerTable("live_feed", log, traced_total, traced_window_ms,
                  live.seal_pass_ms);
  std::printf("  archive: %.0f records/s ingest, drain %.4f s (medians); "
              "live: %zu windows (traced seal + pass p50 %.3f ms, max %.3f "
              "ms), heartbeat lateness p%.0f %.4f ms\n",
              Median(ingest_per_s), Median(drain_s), live_windows,
              Median(window_ms), Quantile(window_ms, 1.0),
              100.0 * TailQuantile(live.late_ms.size()),
              layers["stream.generator_late_ms"]);
}

}  // namespace evbench
