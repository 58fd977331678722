#include "stream/stream_driver.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "stream/counters.hpp"

namespace evm::stream {

StreamDriver::StreamDriver(const Grid& grid, const VisualOracle& oracle,
                           StreamDriverConfig config)
    : grid_(grid),
      config_([&config] {
        config.store.shards = std::max<std::size_t>(1, config.shards);
        config.shards = config.store.shards;
        return config;
      }()),
      pool_(config_.v_workers > 0
                ? std::make_unique<ThreadPool>(config_.v_workers)
                : nullptr),
      scheduler_(pool_ != nullptr
                     ? std::make_unique<mapreduce::TaskScheduler>(
                           *pool_, mapreduce::SchedulerOptions{}, &metrics(),
                           config_.trace)
                     : nullptr),
      store_(grid, config_.store),
      matcher_(store_, oracle, config_.match, metrics(), config_.trace,
               pool_.get(), scheduler_.get()),
      admission_(config_.admission) {
  obs::MetricsRegistry& reg = metrics();
  e_records_counter_ = reg.counter(kCtrERecords);
  v_detections_counter_ = reg.counter(kCtrVDetections);
  throttled_counter_ = reg.counter(kCtrThrottled);
  shed_records_counter_ = reg.counter(kCtrShedRecords);
  lanes_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    auto lane = std::make_unique<Lane>();
    lane->e_queue = std::make_unique<IngestQueue<ELaneItem>>(
        config_.e_queue, reg.gauge(kGaugeEQueueDepth),
        reg.counter(kCtrEDropped), reg.counter(kCtrERejected));
    lane->v_queue = std::make_unique<IngestQueue<VLaneItem>>(
        config_.v_queue, reg.gauge(kGaugeVQueueDepth),
        reg.counter(kCtrVDropped), reg.counter(kCtrVRejected));
    lanes_.push_back(std::move(lane));
  }
}

StreamDriver::~StreamDriver() { Shutdown(); }

void StreamDriver::Start() {
  EVM_CHECK_MSG(!started_, "StreamDriver::Start called twice");
  started_ = true;
  for (auto& lane : lanes_) {
    Lane* raw = lane.get();
    lane->e_consumer = std::thread([this, raw] { ConsumeE(*raw); });
    lane->v_consumer = std::thread([this, raw] { ConsumeV(*raw); });
  }
  sealer_ = std::thread([this] { SealerLoop(); });
}

PushResult StreamDriver::PushE(const ERecord& record, TenantId tenant) {
  if (!admission_.Admit(tenant, NowNanos())) {
    throttled_.fetch_add(1);
    throttled_counter_.Add();
    return PushResult::kThrottled;
  }
  ELaneItem item;
  item.record = record;
  item.ingest_nanos = NowNanos();
  Lane& lane = *lanes_[store_.ShardOfCell(grid_.CellAt(record.position))];
  const PushResult result = lane.e_queue->Push(std::move(item));
  if (result == PushResult::kAccepted ||
      result == PushResult::kAcceptedDroppedOldest) {
    e_records_counter_.Add();
  }
  return result;
}

PushResult StreamDriver::PushV(const VDetection& detection, TenantId tenant) {
  if (!admission_.Admit(tenant, NowNanos())) {
    throttled_.fetch_add(1);
    throttled_counter_.Add();
    return PushResult::kThrottled;
  }
  if (config_.shed.enabled) {
    UpdateShedding(v_backlog_.load());
    if (shedding_.load()) {
      shed_.fetch_add(1);
      shed_records_counter_.Add();
      return PushResult::kShed;
    }
  }
  VLaneItem item;
  item.detection = detection;
  item.ingest_nanos = NowNanos();
  Lane& lane = *lanes_[store_.ShardOfCell(detection.cell)];
  const PushResult result = lane.v_queue->Push(std::move(item));
  if (result == PushResult::kAccepted) {
    v_backlog_.fetch_add(1);
    v_detections_counter_.Add();
  } else if (result == PushResult::kAcceptedDroppedOldest) {
    // One in, one out: the backlog is unchanged.
    v_detections_counter_.Add();
  }
  return result;
}

void StreamDriver::AdvanceWatermark(Tick tick) {
  // Control pushes are exempt from backpressure and fan out to every lane:
  // dropping data is acceptable under overload, dropping time would stall
  // sealing forever — and an idle lane must still hear the clock, or its
  // stale watermark would pin the joint one (the heartbeat rule, §13).
  for (auto& lane : lanes_) {
    ELaneItem e_mark;
    e_mark.is_mark = true;
    e_mark.mark = tick;
    lane->e_queue->PushControl(std::move(e_mark));
    VLaneItem v_mark;
    v_mark.is_mark = true;
    v_mark.mark = tick;
    lane->v_queue->PushControl(std::move(v_mark));
  }
}

void StreamDriver::ConsumeE(Lane& lane) {
  const std::int64_t wt = config_.store.scenario.window_ticks;
  ELaneItem item;
  while (lane.e_queue->Pop(item)) {
    if (item.is_mark) {
      std::int64_t seen = lane.e_watermark.load();
      while (seen < item.mark.value &&
             !lane.e_watermark.compare_exchange_weak(seen, item.mark.value)) {
      }
      NoteWatermarks();
    } else {
      const auto window =
          static_cast<std::size_t>(item.record.tick.value / wt);
      {
        common::MutexLock lock(stamps_mutex_);
        pending_stamps_[window].push_back(item.ingest_nanos);
      }
      store_.AppendE(item.record);
    }
  }
}

void StreamDriver::ConsumeV(Lane& lane) {
  const std::int64_t wt = config_.store.scenario.window_ticks;
  VLaneItem item;
  while (lane.v_queue->Pop(item)) {
    if (item.is_mark) {
      std::int64_t seen = lane.v_watermark.load();
      while (seen < item.mark.value &&
             !lane.v_watermark.compare_exchange_weak(seen, item.mark.value)) {
      }
      NoteWatermarks();
    } else {
      const std::int64_t backlog = v_backlog_.fetch_sub(1) - 1;
      UpdateShedding(backlog < 0 ? 0 : backlog);
      const auto window =
          static_cast<std::size_t>(item.detection.tick.value / wt);
      {
        common::MutexLock lock(stamps_mutex_);
        pending_stamps_[window].push_back(item.ingest_nanos);
      }
      store_.AppendV(item.detection);
    }
  }
}

void StreamDriver::NoteWatermarks() {
  std::int64_t joint = std::numeric_limits<std::int64_t>::max();
  for (const auto& lane : lanes_) {
    joint = std::min(joint, lane->e_watermark.load());
    joint = std::min(joint, lane->v_watermark.load());
  }
  if (joint < 0) return;  // some lane has not seen a watermark yet
  common::MutexLock lock(seal_mutex_);
  if (joint > seal_target_) {
    seal_target_ = joint;
    lock.Unlock();
    seal_cv_.NotifyOne();
  }
}

void StreamDriver::UpdateShedding(std::size_t backlog) {
  if (!config_.shed.enabled) return;
  if (!shedding_.load()) {
    if (backlog >= config_.shed.high_water) {
      shedding_.store(true);
      metrics().gauge(kGaugeShedding).Set(1.0);
    }
  } else if (backlog <= config_.shed.low_water) {
    shedding_.store(false);
    metrics().gauge(kGaugeShedding).Set(0.0);
  }
}

void StreamDriver::SealerLoop() {
  while (true) {
    std::int64_t target = -1;
    {
      common::MutexLock lock(seal_mutex_);
      while (!seal_stop_ && seal_target_ <= seal_done_) seal_cv_.Wait(lock);
      if (seal_target_ <= seal_done_) break;  // stopping, nothing pending
      target = seal_target_;
    }
    // Seal outside seal_mutex_: watermark advances landing during the batch
    // raise seal_target_ and coalesce into the next iteration — that
    // coalescing is what bounds the number of incremental passes under
    // load.
    SealBatchTo(Tick{target}, /*all=*/false);
    common::MutexLock lock(seal_mutex_);
    seal_done_ = std::max(seal_done_, target);
  }
}

void StreamDriver::SealBatchTo(Tick watermark, bool all) {
  obs::MetricsRegistry& reg = metrics();
  SealResult sealed;
  {
    obs::StageSpan span(config_.trace, "stream.seal", reg.latency(kLatSeal));
    SealBatch batch =
        all ? store_.ExtractAll() : store_.ExtractSealable(watermark);
    std::vector<ShardSealOutput> outputs(batch.inputs.size());
    if (scheduler_ != nullptr && batch.inputs.size() > 1) {
      // One task per dirty shard. The attempt body copies its input so a
      // retried/speculative sibling sees the same bytes (pure up to the
      // commit), and publishes its output slot only on winning the claim.
      std::vector<mapreduce::TaskFn> tasks;
      tasks.reserve(batch.inputs.size());
      for (std::size_t i = 0; i < batch.inputs.size(); ++i) {
        tasks.push_back([&, i](const mapreduce::AttemptContext& ctx) {
          ShardSealOutput out = WindowedScenarioStore::ClassifyShard(
              grid_, config_.store.scenario, ShardSealInput(batch.inputs[i]));
          if (!ctx.ClaimCommit()) return mapreduce::AttemptStatus::kCommitLost;
          outputs[i] = std::move(out);
          return mapreduce::AttemptStatus::kSuccess;
        });
      }
      scheduler_->Run("stream-seal", "classify", tasks);
    } else {
      for (std::size_t i = 0; i < batch.inputs.size(); ++i) {
        outputs[i] = WindowedScenarioStore::ClassifyShard(
            grid_, config_.store.scenario, std::move(batch.inputs[i]));
      }
    }
    sealed = store_.CommitSealed(batch, std::move(outputs));
  }
  reg.counter(kCtrSealBatches).Add();
  if (!sealed.sealed_windows.empty()) {
    reg.counter(kCtrWindowsSealed).Add(sealed.sealed_windows.size());
  }
  reg.gauge(kGaugeOpenWindows)
      .Set(static_cast<double>(store_.open_window_count()));

  // The drain batch always runs the full pipeline; live batches degrade to
  // E-only while the shedder is engaged.
  const bool e_only = !all && shedding_.load();
  matcher_.OnSealed(sealed, e_only);

  // Every record whose window is now at or below the sealed horizon has
  // been incorporated into the provisional results: account its latency.
  if (all) {
    RecordSealedLatency(std::numeric_limits<std::int64_t>::max());
  } else {
    const std::int64_t horizon =
        watermark.value / config_.store.scenario.window_ticks - 1;
    if (horizon >= 0) RecordSealedLatency(horizon);
  }
}

void StreamDriver::RecordSealedLatency(std::int64_t horizon_window) {
  const std::uint64_t now = NowNanos();
  const obs::LatencyStat latency = metrics().latency(kLatRecordToMatch);
  common::MutexLock lock(stamps_mutex_);
  for (auto it = pending_stamps_.begin();
       it != pending_stamps_.end() &&
       static_cast<std::int64_t>(it->first) <= horizon_window;
       it = pending_stamps_.erase(it)) {
    for (const std::uint64_t stamp : it->second) {
      latency.Record(static_cast<double>(now - stamp) * 1e-9);
    }
  }
}

void StreamDriver::JoinConsumers() {
  for (auto& lane : lanes_) {
    lane->e_queue->Close();
    lane->v_queue->Close();
  }
  for (auto& lane : lanes_) {
    if (lane->e_consumer.joinable()) lane->e_consumer.join();
    if (lane->v_consumer.joinable()) lane->v_consumer.join();
  }
}

void StreamDriver::StopSealer() {
  {
    common::MutexLock lock(seal_mutex_);
    seal_stop_ = true;
  }
  seal_cv_.NotifyAll();
  if (sealer_.joinable()) sealer_.join();
}

std::uint64_t StreamDriver::e_dropped() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->e_queue->TotalDropped();
  return total;
}

std::uint64_t StreamDriver::v_dropped() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->v_queue->TotalDropped();
  return total;
}

std::uint64_t StreamDriver::e_rejected() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->e_queue->TotalRejected();
  return total;
}

std::uint64_t StreamDriver::v_rejected() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->v_queue->TotalRejected();
  return total;
}

MatchReport StreamDriver::Drain() {
  EVM_CHECK_MSG(started_, "Drain before Start");
  if (!drained_) {
    JoinConsumers();
    StopSealer();  // finishes any pending watermark batch first
    SealBatchTo(Tick{0}, /*all=*/true);
    drained_report_ = matcher_.Drain();
    drained_ = true;
  }
  return drained_report_;
}

void StreamDriver::Shutdown() {
  if (!started_) return;
  JoinConsumers();
  StopSealer();
}

}  // namespace evm::stream
