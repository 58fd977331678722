#pragma once
// StreamDriver — the online front end of EV-Matching, sharded by geo cell.
//
// Lifecycle:
//   StreamDriver driver(grid, oracle, config);
//   driver.Start();                 // consumers per lane + the sealer thread
//   driver.PushE(record);           // any thread, admission + backpressure
//   driver.PushV(detection);        //   "
//   driver.AdvanceWatermark(tick);  // promise: no earlier data on any lane
//   MatchReport report = driver.Drain();   // or driver.Shutdown()
//
// Topology (DESIGN.md §13): the pipeline is split into `shards` independent
// lanes keyed by ShardOfCell(cell). Each lane owns a bounded MPSC queue pair
// (E records, V detections) and a consumer thread per queue that appends
// into the lane's shard of the WindowedScenarioStore — no cross-lane lock is
// ever taken on the ingest path, so a hot cell only ever backs up its own
// lane. Watermarks are control items fanned out to *every* queue; each lane
// tracks its own per-modality watermark and sealing is licensed by the
// *joint* watermark, the minimum over all 2N lane watermarks.
//
// Sealing runs on a dedicated sealer thread, not on the consumers: when the
// joint watermark advances, the sealer is nudged and seals everything newly
// covered in one batch (ExtractSealable -> per-shard classification — one
// TaskScheduler task per dirty shard when a scheduler is available —
// -> CommitSealed), then runs the IncrementalMatcher's dirty pass. While one
// batch is matching, further watermark advances coalesce into the next
// batch, which is what amortizes the incremental pass under load.
//
// Admission control: every data push first passes the per-tenant
// token-bucket AdmissionController (kThrottled on refusal); see
// admission.hpp. Load shedding: when the total queued V backlog crosses
// shed.high_water the driver degrades to E-only matching — V data pushes
// return kShed (stream.shed_records) and seal batches skip the V stage,
// publishing e_only-flagged provisional results (stream.e_only_matches) —
// until the backlog drains below shed.low_water. E data is never shed: the
// E stream is cheap and keeps scenario membership exact, so recovery only
// has to re-filter (SLIM-style degradation; DESIGN.md §13).
//
// Drain(): closes the intake, joins consumers and the sealer, seals every
// remaining window and runs the authoritative joint match pass. The report
// is byte-identical to batch EvMatcher::Match over the same records
// whenever no data was dropped/shed (kBlock lanes that never overflowed, no
// shedding phase) and retention is unlimited — for any shard count; see
// DESIGN.md §9/§13 for the argument.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "common/thread_pool.hpp"
#include "core/types.hpp"
#include "geo/grid.hpp"
#include "mapreduce/scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stream/admission.hpp"
#include "stream/incremental_matcher.hpp"
#include "stream/ingest_queue.hpp"
#include "stream/records.hpp"
#include "stream/windowed_store.hpp"
#include "vsense/visual_oracle.hpp"

namespace evm::stream {

/// Queue-depth load shedding (the E-only degradation tier).
struct LoadShedConfig {
  bool enabled{false};
  /// Total queued V data items (across all lanes) that engage shedding.
  std::size_t high_water{4096};
  /// Backlog at or below which shedding disengages (must be < high_water).
  std::size_t low_water{1024};
};

struct StreamDriverConfig {
  /// Per-lane queue configs (capacity is per shard).
  IngestQueueConfig e_queue{};
  IngestQueueConfig v_queue{};
  WindowedStoreConfig store{};
  IncrementalMatcherConfig match{};
  /// Geo-cell lanes. Overrides store.shards; 0 is clamped to 1.
  std::size_t shards{1};
  AdmissionConfig admission{};
  LoadShedConfig shed{};
  /// Worker threads for the V stage and shard classification (0 = run both
  /// on the sealer thread, without a scheduler).
  std::size_t v_workers{0};
  /// Registry the pipeline publishes into; null = driver-owned.
  obs::MetricsRegistry* metrics{nullptr};
  obs::TraceRecorder* trace{nullptr};
};

class StreamDriver {
 public:
  /// `grid` is copied; `oracle` must outlive the driver.
  StreamDriver(const Grid& grid, const VisualOracle& oracle,
               StreamDriverConfig config);
  ~StreamDriver();

  StreamDriver(const StreamDriver&) = delete;
  StreamDriver& operator=(const StreamDriver&) = delete;

  void Start();

  /// Thread-safe producers. The result reflects, in order: kClosed after
  /// Drain()/Shutdown(), kThrottled from admission control, kShed from the
  /// load shedder (V lane only), then the lane's backpressure decision.
  PushResult PushE(const ERecord& record, TenantId tenant = kDefaultTenant);
  PushResult PushV(const VDetection& detection,
                   TenantId tenant = kDefaultTenant);

  /// Declares that no data with tick < `tick` will be pushed on any lane
  /// from now on. Watermarks must be non-decreasing per caller.
  void AdvanceWatermark(Tick tick);

  /// Closes the intake, drains every lane, seals everything and runs the
  /// authoritative joint match pass. Idempotent (returns the same report).
  MatchReport Drain();

  /// Stops without a final pass; queued-but-unconsumed data is discarded.
  void Shutdown();

  [[nodiscard]] const WindowedScenarioStore& store() const noexcept {
    return store_;
  }
  [[nodiscard]] IncrementalMatcher& matcher() noexcept { return matcher_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept {
    return config_.metrics != nullptr ? *config_.metrics : own_metrics_;
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return lanes_.size();
  }
  [[nodiscard]] bool shedding() const noexcept { return shedding_.load(); }

  // Aggregates over all lanes.
  [[nodiscard]] std::uint64_t e_dropped() const;
  [[nodiscard]] std::uint64_t v_dropped() const;
  [[nodiscard]] std::uint64_t e_rejected() const;
  [[nodiscard]] std::uint64_t v_rejected() const;
  [[nodiscard]] std::uint64_t throttled() const noexcept {
    return throttled_.load();
  }
  [[nodiscard]] std::uint64_t shed_records() const noexcept {
    return shed_.load();
  }

 private:
  static std::uint64_t NowNanos() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// One geo-cell lane: a queue pair, their consumers, and the lane's view
  /// of the two modality watermarks.
  struct Lane {
    std::unique_ptr<IngestQueue<ELaneItem>> e_queue;
    std::unique_ptr<IngestQueue<VLaneItem>> v_queue;
    std::atomic<std::int64_t> e_watermark{-1};
    std::atomic<std::int64_t> v_watermark{-1};
    std::thread e_consumer;
    std::thread v_consumer;
  };

  void ConsumeE(Lane& lane);
  void ConsumeV(Lane& lane);
  /// Recomputes the joint watermark and nudges the sealer if it advanced.
  void NoteWatermarks();
  /// Re-evaluates the shedding state against the current V backlog.
  void UpdateShedding(std::size_t backlog);
  void SealerLoop();
  /// One seal batch up to `watermark` (or everything when `all`), run on
  /// the sealer thread: extract -> classify (scheduler tasks when
  /// available) -> commit -> incremental match -> latency accounting.
  void SealBatchTo(Tick watermark, bool all);
  void RecordSealedLatency(std::int64_t horizon_window);
  void JoinConsumers();
  void StopSealer();

  Grid grid_;
  StreamDriverConfig config_;
  obs::MetricsRegistry own_metrics_;  // used when config_.metrics is null
  std::unique_ptr<ThreadPool> pool_;  // v_workers > 0 only
  std::unique_ptr<mapreduce::TaskScheduler> scheduler_;  // with pool_ only
  WindowedScenarioStore store_;
  IncrementalMatcher matcher_;
  AdmissionController admission_;

  std::vector<std::unique_ptr<Lane>> lanes_;

  /// Sealer coordination: consumers publish the newest joint watermark as
  /// seal_target_; the sealer seals up to it and waits for more.
  common::Mutex seal_mutex_;
  common::CondVar seal_cv_;
  std::int64_t seal_target_ EVM_GUARDED_BY(seal_mutex_){-1};
  std::int64_t seal_done_ EVM_GUARDED_BY(seal_mutex_){-1};
  bool seal_stop_ EVM_GUARDED_BY(seal_mutex_){false};
  std::thread sealer_;

  /// Ingest stamps awaiting their window's seal, drained into the
  /// record-to-match latency stat by the sealer. Leaf lock: nothing else is
  /// acquired while held.
  common::Mutex stamps_mutex_;
  std::map<std::size_t, std::vector<std::uint64_t>> pending_stamps_
      EVM_GUARDED_BY(stamps_mutex_);

  /// Load-shedding state: queued V data items across all lanes, and whether
  /// the E-only tier is engaged. Plain atomics — transitions are sampled on
  /// the push/pop paths, never under a lock.
  std::atomic<std::int64_t> v_backlog_{0};
  std::atomic<bool> shedding_{false};
  std::atomic<std::uint64_t> throttled_{0};
  std::atomic<std::uint64_t> shed_{0};

  /// Push-path counter handles, resolved once in the constructor: a
  /// per-record counter(name) would take the registry mutex every push.
  obs::Counter e_records_counter_;
  obs::Counter v_detections_counter_;
  obs::Counter throttled_counter_;
  obs::Counter shed_records_counter_;

  bool started_{false};
  bool drained_{false};
  MatchReport drained_report_;
};

}  // namespace evm::stream
