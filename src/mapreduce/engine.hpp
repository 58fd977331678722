#pragma once
// The in-process MapReduce engine.
//
// Execution follows the four classic stages the paper describes (Sec. V-A):
// the input is *split* into map tasks, *map* functions emit (key, value)
// pairs, pairs are *shuffled* (serialized, hash-partitioned, sorted and
// grouped by key) and *reduce* functions aggregate each group. A thread pool
// plays the role of the cluster's worker machines; the TaskScheduler
// (scheduler.hpp) owns task placement, retries, deadlines and speculative
// backups, and the in-memory Dfs plays the distributed file system.
//
// Shuffle durability: a committed map task spills its partitioned output to
// the Dfs under "spill/<job>#<run>/map-<m>" (one block per reduce
// partition). Reducers fetch their partition with Dfs::ReadBlock, so a
// failed reduce attempt re-reads the spill instead of re-running maps — the
// paper's framework stores all intermediate data in the underlying DFS for
// exactly this reason.
//
// Determinism: map task m owns spill dataset m, a reducer reads datasets in
// map-task order, so the value order within each key group is (map task,
// input order) — independent of thread interleaving, retries, or which
// attempt wins a speculative race (attempt bodies are pure up to the commit
// gate). Reduce outputs are concatenated in partition order and are
// key-sorted within a partition, so job output is a pure function of
// (inputs, functions, num_reducers).
//
// Requirements: K and V (and Out) need Codec<> specializations; K needs
// operator< (used for the sort phase) and a KeyHash (provided for integral
// ids and strings).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/serde.hpp"
#include "common/thread_pool.hpp"
#include "mapreduce/codec.hpp"
#include "mapreduce/counters.hpp"
#include "mapreduce/dfs.hpp"
#include "mapreduce/injection_env.hpp"
#include "mapreduce/partitioner.hpp"
#include "mapreduce/scheduler.hpp"
#include "mapreduce/task.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace evm::mapreduce {

struct EngineOptions {
  /// Worker threads (the "cluster size"). 0 = hardware concurrency.
  std::size_t workers{0};
  /// Seed for deterministic failure/straggler injection and retry jitter.
  std::uint64_t seed{0};
  /// Probability that a map / reduce task attempt crashes after doing its
  /// work but before committing it (tests re-execution idempotence).
  double map_failure_prob{0.0};
  double reduce_failure_prob{0.0};
  /// Probability that a task's *first* attempt is an injected straggler: it
  /// sleeps straggler_delay before doing its work, giving deadline
  /// relaunches and speculative backups something to beat.
  double map_straggler_prob{0.0};
  double reduce_straggler_prob{0.0};
  std::chrono::milliseconds straggler_delay{60};
  /// Attempts per task before the exhaust policy applies.
  int max_attempts{3};
  /// Number of map tasks; 0 = 4 x workers (capped by the input size).
  std::size_t target_map_tasks{0};
  /// Scheduler tuning (exhaust policy, backoff, deadline, speculation).
  /// seed and max_attempts above override the copies in here.
  SchedulerOptions scheduler{};
  /// Registry the mr.* counters accumulate into; null = an engine-owned
  /// registry (last_counters() works either way).
  obs::MetricsRegistry* metrics{nullptr};
  /// Span recorder for map/shuffle/reduce phase timing; null = no tracing.
  obs::TraceRecorder* trace{nullptr};
};

/// Collects (key, value) emissions of one map task, serialized per reduce
/// partition.
template <typename K, typename V>
class Emitter {
 public:
  Emitter(std::vector<BinaryWriter>& partitions, std::uint64_t& emitted)
      : partitions_(partitions), emitted_(emitted) {}

  void operator()(const K& key, const V& value) {
    BinaryWriter& w = partitions_[PartitionOf(key, partitions_.size())];
    Codec<K>::Encode(w, key);
    Codec<V>::Encode(w, value);
    ++emitted_;
  }

 private:
  std::vector<BinaryWriter>& partitions_;
  std::uint64_t& emitted_;
};

class MapReduceEngine {
 public:
  explicit MapReduceEngine(EngineOptions options = {})
      : options_(WithEnvOverrides(std::move(options))),
        pool_(options_.workers) {
    EVM_CHECK(options_.max_attempts >= 1);
    EVM_CHECK(options_.map_failure_prob >= 0.0 &&
              options_.map_failure_prob < 1.0);
    EVM_CHECK(options_.reduce_failure_prob >= 0.0 &&
              options_.reduce_failure_prob < 1.0);
    EVM_CHECK(options_.map_straggler_prob >= 0.0 &&
              options_.map_straggler_prob < 1.0);
    EVM_CHECK(options_.reduce_straggler_prob >= 0.0 &&
              options_.reduce_straggler_prob < 1.0);
  }

  /// Runs one job. MapFn: void(const In&, Emitter<K, V>&).
  /// ReduceFn: void(const K&, std::vector<V>&&, std::vector<Out>&).
  /// Returns the concatenated reduce outputs (deterministic order). Under
  /// ExhaustPolicy::kQuarantine the output omits quarantined partitions and
  /// the gaps are listed in last_map_report() / last_reduce_report().
  template <typename K, typename V, typename Out, typename In, typename MapFn,
            typename ReduceFn>
  std::vector<Out> Run(const std::string& job_name,
                       const std::vector<In>& inputs, std::size_t num_reducers,
                       MapFn&& map_fn, ReduceFn&& reduce_fn) {
    EVM_CHECK_MSG(num_reducers > 0, "need at least one reducer");
    obs::MetricsRegistry& reg = registry();
    obs::TraceRecorder* const trace = options_.trace;
    const JobCounters before = SnapshotJobCounters(reg);

    obs::StageSpan job_span(trace, "mapreduce:" + job_name);
    obs::AmbientParentScope job_ambient(trace, job_span.id());

    const obs::Counter c_injected_map = reg.counter(kMrInjectedMapFailures);
    const obs::Counter c_injected_reduce =
        reg.counter(kMrInjectedReduceFailures);
    const obs::Counter c_shuffled_records = reg.counter(kMrShuffledRecords);
    const obs::Counter c_shuffled_bytes = reg.counter(kMrShuffledBytes);
    const obs::Counter c_spilled_bytes = reg.counter(kMrSpilledBytes);
    const obs::Counter c_spill_read_bytes = reg.counter(kMrSpillReadBytes);
    const obs::Counter c_output_records = reg.counter(kMrOutputRecords);
    reg.counter(kMrInputRecords).Add(inputs.size());

    // ---- split ----
    std::size_t num_map_tasks =
        options_.target_map_tasks > 0 ? options_.target_map_tasks
                                      : 4 * pool_.size();
    num_map_tasks = std::min(num_map_tasks, inputs.size());
    if (num_map_tasks == 0) num_map_tasks = inputs.empty() ? 0 : 1;

    // One spill dataset per map task, unique per engine run so a job name
    // reused across windows can never read a stale spill.
    const std::string spill_prefix =
        "spill/" + job_name + "#" +
        std::to_string(run_serial_.fetch_add(1, std::memory_order_relaxed));
    const auto spill_name = [&spill_prefix](std::size_t m) {
      return spill_prefix + "/map-" + std::to_string(m);
    };
    // Spill datasets are scratch: drop them however the job ends.
    struct SpillGuard {
      Dfs& dfs;
      const std::string& prefix;
      std::size_t count;
      ~SpillGuard() {
        for (std::size_t m = 0; m < count; ++m) {
          dfs.Remove(prefix + "/map-" + std::to_string(m));
        }
      }
    } spill_guard{dfs_, spill_prefix, num_map_tasks};

    TaskScheduler scheduler(pool_, SchedulerRunOptions(), &reg, trace);

    // ---- map ----
    {
      obs::StageSpan map_phase(trace, "map", reg.latency("mr.map_seconds"));
      obs::AmbientParentScope map_ambient(trace, map_phase.id());
      std::vector<TaskFn> map_tasks;
      map_tasks.reserve(num_map_tasks);
      for (std::size_t m = 0; m < num_map_tasks; ++m) {
        map_tasks.push_back([&, m](const AttemptContext& ctx) {
          MaybeStraggle(job_name, "map-straggler", m, ctx,
                        options_.map_straggler_prob);
          const std::size_t begin = m * inputs.size() / num_map_tasks;
          const std::size_t end = (m + 1) * inputs.size() / num_map_tasks;
          std::vector<BinaryWriter> parts(num_reducers);
          std::uint64_t emitted = 0;
          Emitter<K, V> emitter(parts, emitted);
          for (std::size_t i = begin; i < end; ++i) map_fn(inputs[i], emitter);
          if (InjectFailure(job_name, "map", m, ctx.attempt(),
                            options_.map_failure_prob)) {
            c_injected_map.Add();
            return AttemptStatus::kFailed;  // uncommitted output is discarded
          }
          if (!ctx.ClaimCommit()) return AttemptStatus::kCommitLost;
          std::vector<Block> blocks(num_reducers);
          std::uint64_t bytes = 0;
          for (std::size_t r = 0; r < num_reducers; ++r) {
            blocks[r] = parts[r].Take();
            bytes += blocks[r].size();
          }
          dfs_.Write(spill_name(m), std::move(blocks));
          c_shuffled_bytes.Add(bytes);
          c_spilled_bytes.Add(bytes);
          c_shuffled_records.Add(emitted);
          return AttemptStatus::kSuccess;
        });
      }
      last_map_report_ = scheduler.Run(job_name, "map", map_tasks);
    }

    // ---- shuffle + sort + reduce ----
    std::vector<std::vector<Out>> outputs(num_reducers);
    {
      obs::StageSpan reduce_phase(trace, "reduce",
                                  reg.latency("mr.reduce_seconds"));
      obs::AmbientParentScope reduce_ambient(trace, reduce_phase.id());
      std::vector<TaskFn> reduce_tasks;
      reduce_tasks.reserve(num_reducers);
      for (std::size_t r = 0; r < num_reducers; ++r) {
        reduce_tasks.push_back([&, r](const AttemptContext& ctx) {
          MaybeStraggle(job_name, "reduce-straggler", r, ctx,
                        options_.reduce_straggler_prob);
          std::vector<std::pair<K, V>> records;
          std::uint64_t read_bytes = 0;
          {
            obs::StageSpan shuffle_span(trace, "shuffle");
            for (std::size_t m = 0; m < num_map_tasks; ++m) {
              // A quarantined map task has no spill; its records are the
              // job's explicit degradation gap.
              const auto block = dfs_.ReadBlock(spill_name(m), r);
              if (!block) continue;
              read_bytes += block->size();
              BinaryReader reader(block->data(), block->size());
              while (!reader.AtEnd()) {
                K key = Codec<K>::Decode(reader);
                V value = Codec<V>::Decode(reader);
                records.emplace_back(std::move(key), std::move(value));
              }
            }
            std::stable_sort(records.begin(), records.end(),
                             [](const auto& a, const auto& b) {
                               return a.first < b.first;
                             });
          }
          std::vector<Out> out;
          std::size_t i = 0;
          while (i < records.size()) {
            std::size_t j = i;
            std::vector<V> values;
            // equal keys are adjacent after the sort
            while (j < records.size() &&
                   !(records[i].first < records[j].first)) {
              values.push_back(std::move(records[j].second));
              ++j;
            }
            reduce_fn(records[i].first, std::move(values), out);
            i = j;
          }
          if (InjectFailure(job_name, "reduce", r, ctx.attempt(),
                            options_.reduce_failure_prob)) {
            c_injected_reduce.Add();
            return AttemptStatus::kFailed;
          }
          if (!ctx.ClaimCommit()) return AttemptStatus::kCommitLost;
          outputs[r] = std::move(out);
          c_spill_read_bytes.Add(read_bytes);
          return AttemptStatus::kSuccess;
        });
      }
      last_reduce_report_ = scheduler.Run(job_name, "reduce", reduce_tasks);
    }

    std::vector<Out> result;
    for (auto& partition : outputs) {
      c_output_records.Add(partition.size());
      result.insert(result.end(), std::make_move_iterator(partition.begin()),
                    std::make_move_iterator(partition.end()));
    }
    last_counters_ = DeltaJobCounters(before, SnapshotJobCounters(reg));
    return result;
  }

  /// Convenience: shuffle-only job that groups every emitted value by key.
  /// Returns (key, values) pairs, key-sorted within each partition.
  template <typename K, typename V, typename In, typename MapFn>
  std::vector<std::pair<K, std::vector<V>>> GroupBy(
      const std::string& job_name, const std::vector<In>& inputs,
      std::size_t num_reducers, MapFn&& map_fn) {
    using Out = std::pair<K, std::vector<V>>;
    return Run<K, V, Out>(job_name, inputs, num_reducers,
                          std::forward<MapFn>(map_fn),
                          [](const K& key, std::vector<V>&& values,
                             std::vector<Out>& out) {
                            out.emplace_back(key, std::move(values));
                          });
  }

  /// Runs caller-provided tasks (no map/reduce framing) through the
  /// engine's scheduler with the engine's fault-tolerance options — how
  /// pipeline stages outside the MapReduce template (e.g. the V-side filter)
  /// get retries, speculation and degradation. The map-stage injection
  /// knobs apply to every attempt before its body runs: a seeded
  /// first-attempt straggler sleep, then a seeded failure counted in
  /// mr.injected_map_failures. Counters land under "mr.<stage>_*" in
  /// registry().
  SchedulerReport RunTasks(const std::string& job, const std::string& stage,
                           const std::vector<TaskFn>& tasks) {
    const obs::Counter c_injected = registry().counter(kMrInjectedMapFailures);
    const std::string straggler_stream = stage + "-straggler";
    std::vector<TaskFn> injected;
    injected.reserve(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      injected.push_back([&, t](const AttemptContext& ctx) {
        MaybeStraggle(job, straggler_stream.c_str(), t, ctx,
                      options_.map_straggler_prob);
        if (InjectFailure(job, stage.c_str(), t, ctx.attempt(),
                          options_.map_failure_prob)) {
          c_injected.Add();
          return AttemptStatus::kFailed;
        }
        return tasks[t](ctx);
      });
    }
    TaskScheduler scheduler(pool_, SchedulerRunOptions(), &registry(),
                            options_.trace);
    return scheduler.Run(job, stage, injected);
  }

  [[nodiscard]] const JobCounters& last_counters() const noexcept {
    return last_counters_;
  }
  /// Scheduler accounting for the last Run()'s map / reduce stage.
  [[nodiscard]] const SchedulerReport& last_map_report() const noexcept {
    return last_map_report_;
  }
  [[nodiscard]] const SchedulerReport& last_reduce_report() const noexcept {
    return last_reduce_report_;
  }
  [[nodiscard]] std::size_t workers() const noexcept { return pool_.size(); }
  [[nodiscard]] ThreadPool& pool() noexcept { return pool_; }
  /// The engine's distributed-file-system stand-in (shuffle spill lives
  /// here during a Run).
  [[nodiscard]] Dfs& dfs() noexcept { return dfs_; }
  [[nodiscard]] const EngineOptions& options() const noexcept {
    return options_;
  }
  /// Registry the engine accumulates mr.* counters into (the configured one,
  /// or the engine-owned fallback).
  [[nodiscard]] obs::MetricsRegistry& registry() noexcept {
    return options_.metrics != nullptr ? *options_.metrics : own_metrics_;
  }

 private:
  /// Applies EVM_MR_INJECT_* environment overrides (injection_env.hpp).
  [[nodiscard]] static EngineOptions WithEnvOverrides(EngineOptions options) {
    const InjectionOverrides env = ReadInjectionEnv();
    if (env.map_failure_prob) options.map_failure_prob = *env.map_failure_prob;
    if (env.reduce_failure_prob) {
      options.reduce_failure_prob = *env.reduce_failure_prob;
    }
    if (env.map_straggler_prob) {
      options.map_straggler_prob = *env.map_straggler_prob;
    }
    if (env.reduce_straggler_prob) {
      options.reduce_straggler_prob = *env.reduce_straggler_prob;
    }
    if (env.straggler_delay_ms) {
      options.straggler_delay = std::chrono::milliseconds(
          static_cast<std::int64_t>(*env.straggler_delay_ms));
    }
    if (env.seed) options.seed = *env.seed;
    if (env.max_attempts) options.max_attempts = *env.max_attempts;
    if (env.speculation) options.scheduler.speculation = *env.speculation;
    return options;
  }

  /// Scheduler options for one stage run: the sub-struct, with the engine's
  /// seed / attempt budget taking precedence.
  [[nodiscard]] SchedulerOptions SchedulerRunOptions() const {
    SchedulerOptions scheduler = options_.scheduler;
    scheduler.seed = options_.seed;
    scheduler.max_attempts = options_.max_attempts;
    return scheduler;
  }

  [[nodiscard]] bool InjectFailure(const std::string& job, const char* stage,
                                   std::size_t task, int attempt,
                                   double prob) const {
    if (prob <= 0.0) return false;
    Rng rng(DeriveSeed(options_.seed ^ std::hash<std::string>{}(job), stage,
                       task * 1024 + static_cast<std::uint64_t>(attempt)));
    return rng.NextDouble() < prob;
  }

  /// Injected straggler: first attempts drawn by the seeded schedule sleep
  /// before working. Retries and speculative backups of the same task run
  /// at full speed, so a backup can win the commit race — the output is
  /// byte-identical either way because attempt bodies are pure.
  void MaybeStraggle(const std::string& job, const char* stream,
                     std::size_t task, const AttemptContext& ctx,
                     double prob) const {
    if (prob <= 0.0 || ctx.attempt() != 1) return;
    Rng rng(DeriveSeed(options_.seed ^ std::hash<std::string>{}(job), stream,
                       task));
    if (rng.NextDouble() < prob) {
      std::this_thread::sleep_for(options_.straggler_delay);
    }
  }

  EngineOptions options_;
  obs::MetricsRegistry own_metrics_;  // used when options_.metrics is null
  ThreadPool pool_;
  Dfs dfs_;
  std::atomic<std::uint64_t> run_serial_{0};
  JobCounters last_counters_;
  SchedulerReport last_map_report_;
  SchedulerReport last_reduce_report_;
};

}  // namespace evm::mapreduce
