#include "mapreduce/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace evm::mapreduce {
namespace {

using WordCount = std::pair<std::string, std::uint64_t>;

std::vector<WordCount> RunWordCount(MapReduceEngine& engine,
                                    const std::vector<std::string>& lines,
                                    std::size_t reducers) {
  return engine.Run<std::string, std::uint64_t, WordCount>(
      "wordcount", lines, reducers,
      [](const std::string& line, Emitter<std::string, std::uint64_t>& emit) {
        std::istringstream is(line);
        std::string word;
        while (is >> word) emit(word, 1);
      },
      [](const std::string& word, std::vector<std::uint64_t>&& counts,
         std::vector<WordCount>& out) {
        std::uint64_t total = 0;
        for (const auto c : counts) total += c;
        out.emplace_back(word, total);
      });
}

TEST(EngineTest, WordCountIsCorrect) {
  MapReduceEngine engine({.workers = 4});
  const std::vector<std::string> lines = {
      "the quick brown fox", "the lazy dog", "the fox"};
  auto result = RunWordCount(engine, lines, 3);
  std::map<std::string, std::uint64_t> counts(result.begin(), result.end());
  EXPECT_EQ(counts["the"], 3u);
  EXPECT_EQ(counts["fox"], 2u);
  EXPECT_EQ(counts["dog"], 1u);
  EXPECT_EQ(counts.size(), 6u);
}

TEST(EngineTest, OutputIsDeterministicAcrossWorkerCounts) {
  std::vector<std::string> lines;
  for (int i = 0; i < 200; ++i) {
    lines.push_back("w" + std::to_string(i % 17) + " w" +
                    std::to_string(i % 5));
  }
  std::vector<std::vector<WordCount>> results;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    MapReduceEngine engine({.workers = workers});
    results.push_back(RunWordCount(engine, lines, 4));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(EngineTest, EmptyInputYieldsEmptyOutput) {
  MapReduceEngine engine({.workers = 2});
  EXPECT_TRUE(RunWordCount(engine, {}, 2).empty());
}

TEST(EngineTest, CountersReflectExecution) {
  MapReduceEngine engine({.workers = 2, .target_map_tasks = 3});
  const std::vector<std::string> lines = {"a b", "b c", "c d", "d e"};
  RunWordCount(engine, lines, 2);
  const JobCounters& counters = engine.last_counters();
  EXPECT_EQ(counters.input_records, 4u);
  EXPECT_EQ(counters.map_tasks, 3u);
  EXPECT_EQ(counters.reduce_tasks, 2u);
  EXPECT_EQ(counters.shuffled_records, 8u);
  EXPECT_EQ(counters.output_records, 5u);  // a b c d e
  EXPECT_GT(counters.shuffled_bytes, 0u);
  EXPECT_EQ(counters.injected_failures, 0u);
}

TEST(EngineTest, ValuesWithinKeyKeepMapTaskOrder) {
  MapReduceEngine engine({.workers = 8, .target_map_tasks = 4});
  std::vector<std::uint64_t> inputs;
  for (std::uint64_t i = 0; i < 100; ++i) inputs.push_back(i);
  // All inputs map to one key; values must arrive in input order because
  // map task m owns slot [r][m] and tasks get contiguous input ranges.
  auto result = engine.Run<std::uint64_t, std::uint64_t,
                           std::vector<std::uint64_t>>(
      "order", inputs, 1,
      [](const std::uint64_t& v, Emitter<std::uint64_t, std::uint64_t>& emit) {
        emit(0, v);
      },
      [](const std::uint64_t&, std::vector<std::uint64_t>&& values,
         std::vector<std::vector<std::uint64_t>>& out) {
        out.push_back(std::move(values));
      });
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], inputs);
}

TEST(EngineTest, FailureInjectionRetriesAndSucceeds) {
  MapReduceEngine engine({.workers = 4,
                          .seed = 99,
                          .map_failure_prob = 0.4,
                          .reduce_failure_prob = 0.3,
                          .max_attempts = 20});
  const std::vector<std::string> lines = {"x y", "y z", "z x", "x x"};
  auto result = RunWordCount(engine, lines, 3);
  std::map<std::string, std::uint64_t> counts(result.begin(), result.end());
  EXPECT_EQ(counts["x"], 4u);
  EXPECT_EQ(counts["y"], 2u);
  EXPECT_EQ(counts["z"], 2u);
  const JobCounters& c = engine.last_counters();
  EXPECT_GT(c.injected_failures, 0u);
  EXPECT_GT(c.map_attempts + c.reduce_attempts,
            c.map_tasks + c.reduce_tasks);
}

TEST(EngineTest, FailureInjectionMatchesResultWithoutFailures) {
  std::vector<std::string> lines;
  for (int i = 0; i < 50; ++i) lines.push_back("k" + std::to_string(i % 7));
  MapReduceEngine clean({.workers = 3});
  MapReduceEngine flaky({.workers = 3,
                         .seed = 5,
                         .map_failure_prob = 0.5,
                         .max_attempts = 30});
  EXPECT_EQ(RunWordCount(clean, lines, 4), RunWordCount(flaky, lines, 4));
}

TEST(EngineTest, MapFailureCountersBalanceExactly) {
  // With only map failures injected, every extra map attempt is accounted
  // for by an injected failure, and the reduce side is untouched.
  MapReduceEngine engine({.workers = 4,
                          .seed = 21,
                          .map_failure_prob = 0.5,
                          .max_attempts = 30});
  std::vector<std::string> lines;
  for (int i = 0; i < 60; ++i) lines.push_back("w" + std::to_string(i % 9));
  RunWordCount(engine, lines, 4);
  const JobCounters& c = engine.last_counters();
  EXPECT_GT(c.injected_map_failures, 0u);
  EXPECT_EQ(c.map_attempts, c.map_tasks + c.injected_map_failures);
  EXPECT_EQ(c.injected_reduce_failures, 0u);
  EXPECT_EQ(c.reduce_attempts, c.reduce_tasks);
  EXPECT_EQ(c.injected_failures,
            c.injected_map_failures + c.injected_reduce_failures);
}

TEST(EngineTest, MapAndReduceFailureCountersBalanceIndependently) {
  MapReduceEngine engine({.workers = 4,
                          .seed = 2,  // injects on both sides (deterministic)
                          .map_failure_prob = 0.4,
                          .reduce_failure_prob = 0.4,
                          .max_attempts = 30});
  std::vector<std::string> lines;
  for (int i = 0; i < 60; ++i) lines.push_back("w" + std::to_string(i % 9));
  RunWordCount(engine, lines, 4);
  const JobCounters& c = engine.last_counters();
  EXPECT_GT(c.injected_map_failures, 0u);
  EXPECT_GT(c.injected_reduce_failures, 0u);
  EXPECT_EQ(c.map_attempts, c.map_tasks + c.injected_map_failures);
  EXPECT_EQ(c.reduce_attempts, c.reduce_tasks + c.injected_reduce_failures);
}

TEST(EngineTest, ShuffleCountersUnaffectedByRetries) {
  // A crashed attempt's uncommitted shuffle output must be discarded: the
  // committed record/byte counts are identical with and without failures.
  std::vector<std::string> lines;
  for (int i = 0; i < 80; ++i) lines.push_back("k" + std::to_string(i % 11));
  MapReduceEngine clean({.workers = 3, .target_map_tasks = 6});
  RunWordCount(clean, lines, 4);
  MapReduceEngine flaky({.workers = 3,
                         .seed = 13,
                         .map_failure_prob = 0.5,
                         .reduce_failure_prob = 0.3,
                         .max_attempts = 30,
                         .target_map_tasks = 6});
  RunWordCount(flaky, lines, 4);
  const JobCounters& a = clean.last_counters();
  const JobCounters& b = flaky.last_counters();
  EXPECT_GT(b.injected_failures, 0u);
  EXPECT_EQ(a.shuffled_records, b.shuffled_records);
  EXPECT_EQ(a.shuffled_bytes, b.shuffled_bytes);
  EXPECT_EQ(a.input_records, b.input_records);
  EXPECT_EQ(a.output_records, b.output_records);
}

TEST(EngineTest, OutputIdenticalAcrossRetrySchedules) {
  // Different failure seeds produce different retry schedules; the job
  // output must be byte-identical regardless.
  std::vector<std::string> lines;
  for (int i = 0; i < 100; ++i) {
    lines.push_back("a" + std::to_string(i % 13) + " b" +
                    std::to_string(i % 4));
  }
  std::vector<std::vector<WordCount>> results;
  for (const std::uint64_t seed : {2u, 77u, 4242u}) {
    MapReduceEngine engine({.workers = 4,
                            .seed = seed,
                            .map_failure_prob = 0.45,
                            .reduce_failure_prob = 0.25,
                            .max_attempts = 40});
    results.push_back(RunWordCount(engine, lines, 5));
    EXPECT_GT(engine.last_counters().injected_failures, 0u);
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(EngineTest, CountersAccumulateIntoSharedRegistry) {
  // When a registry is injected, mr.* counters accumulate across jobs while
  // last_counters() still reports the per-job delta.
  obs::MetricsRegistry registry;
  MapReduceEngine engine(
      {.workers = 2, .target_map_tasks = 3, .metrics = &registry});
  const std::vector<std::string> lines = {"a b", "b c", "c d", "d e"};
  RunWordCount(engine, lines, 2);
  EXPECT_EQ(engine.last_counters().map_tasks, 3u);
  RunWordCount(engine, lines, 2);
  EXPECT_EQ(engine.last_counters().map_tasks, 3u);  // per-job, not total
  EXPECT_EQ(registry.CounterValue(kMrMapTasks), 6u);  // accumulated
  EXPECT_EQ(registry.CounterValue(kMrInputRecords), 8u);
}

TEST(EngineTest, ExhaustedAttemptsThrows) {
  MapReduceEngine engine({.workers = 2,
                          .seed = 1,
                          .map_failure_prob = 0.95,
                          .max_attempts = 2});
  const std::vector<std::string> lines(20, "a");
  EXPECT_THROW(RunWordCount(engine, lines, 2), Error);
}

TEST(EngineTest, GroupByGroupsAllValues) {
  MapReduceEngine engine({.workers = 4});
  std::vector<std::uint64_t> inputs;
  for (std::uint64_t i = 0; i < 30; ++i) inputs.push_back(i);
  auto groups = engine.GroupBy<std::uint64_t, std::uint64_t>(
      "mod3", inputs, 2,
      [](const std::uint64_t& v, Emitter<std::uint64_t, std::uint64_t>& emit) {
        emit(v % 3, v);
      });
  ASSERT_EQ(groups.size(), 3u);
  std::size_t total = 0;
  for (const auto& [key, values] : groups) {
    EXPECT_LT(key, 3u);
    for (const auto v : values) EXPECT_EQ(v % 3, key);
    total += values.size();
  }
  EXPECT_EQ(total, 30u);
}

TEST(EngineTest, VectorKeysShuffleCorrectly) {
  MapReduceEngine engine({.workers = 4});
  using Key = std::vector<std::uint64_t>;
  std::vector<std::uint64_t> inputs;
  for (std::uint64_t i = 0; i < 40; ++i) inputs.push_back(i);
  auto groups = engine.GroupBy<Key, std::uint64_t>(
      "veckey", inputs, 3,
      [](const std::uint64_t& v, Emitter<Key, std::uint64_t>& emit) {
        emit(Key{v % 2, v % 3}, v);
      });
  EXPECT_EQ(groups.size(), 6u);  // 2 x 3 distinct keys
}

TEST(EngineTest, RejectsZeroReducers) {
  MapReduceEngine engine({.workers = 1});
  const std::vector<std::string> lines = {"a"};
  EXPECT_THROW(RunWordCount(engine, lines, 0), Error);
}

TEST(EngineTest, ManyReducersWithFewKeysIsFine) {
  MapReduceEngine engine({.workers = 2});
  const std::vector<std::string> lines = {"only one key here: a a a"};
  auto result = RunWordCount(engine, lines, 16);
  EXPECT_FALSE(result.empty());
}

TEST(EngineTest, ReducerFailureRecoversFromSpillWithoutMapReexecution) {
  // A failed reduce attempt must re-read the Dfs spill, not re-run maps:
  // with only reduce failures injected, every input passes through map_fn
  // exactly once while the spill is read more than once.
  std::atomic<std::uint64_t> map_calls{0};
  MapReduceEngine engine({.workers = 3,
                          .seed = 17,
                          .reduce_failure_prob = 0.6,
                          .max_attempts = 30,
                          .target_map_tasks = 5});
  std::vector<std::uint64_t> inputs;
  for (std::uint64_t i = 0; i < 90; ++i) inputs.push_back(i);
  auto groups = engine.GroupBy<std::uint64_t, std::uint64_t>(
      "spill-recovery", inputs, 4,
      [&map_calls](const std::uint64_t& v,
                   Emitter<std::uint64_t, std::uint64_t>& emit) {
        map_calls.fetch_add(1);
        emit(v % 6, v);
      });
  EXPECT_EQ(groups.size(), 6u);
  const JobCounters& c = engine.last_counters();
  EXPECT_GT(c.injected_reduce_failures, 0u);
  EXPECT_EQ(map_calls.load(), inputs.size());
  EXPECT_EQ(c.map_attempts, c.map_tasks);  // maps never re-ran
  EXPECT_EQ(c.reduce_retries, c.injected_reduce_failures);
  EXPECT_GT(c.spilled_bytes, 0u);
  // Committed reducers read each spill once; the retried attempts' reads
  // are uncommitted and never counted, so read == spilled exactly.
  EXPECT_EQ(c.spill_read_bytes, c.spilled_bytes);
}

TEST(EngineTest, SpillIsCleanedUpAfterRun) {
  MapReduceEngine engine({.workers = 2});
  const std::vector<std::string> lines = {"a b", "c d"};
  RunWordCount(engine, lines, 2);
  EXPECT_TRUE(engine.dfs().List().empty());
}

TEST(EngineTest, QuarantineDegradesGracefullyInsteadOfAborting) {
  // Same flaky configuration that throws under kFailJob completes under
  // kQuarantine, reporting the gap instead.
  const std::vector<std::string> lines(20, "a");
  const EngineOptions flaky{.workers = 2,
                            .seed = 1,
                            .map_failure_prob = 0.95,
                            .max_attempts = 2,
                            .target_map_tasks = 8};
  {
    MapReduceEngine engine(flaky);
    EXPECT_THROW(RunWordCount(engine, lines, 2), Error);
  }
  EngineOptions degraded = flaky;
  degraded.scheduler.exhaust = ExhaustPolicy::kQuarantine;
  MapReduceEngine engine(degraded);
  auto result = RunWordCount(engine, lines, 2);
  const SchedulerReport& map_report = engine.last_map_report();
  EXPECT_FALSE(map_report.quarantined.empty());
  EXPECT_EQ(engine.last_counters().quarantined_tasks,
            map_report.quarantined.size());
  // Quarantined map partitions are absent from the output; the surviving
  // ones still aggregate (all-quarantined yields an empty result).
  std::uint64_t seen = 0;
  for (const auto& [word, count] : result) seen += count;
  EXPECT_LT(seen, lines.size());
}

TEST(EngineTest, SpeculationProducesIdenticalOutputAndBalancedCounters) {
  std::vector<std::string> lines;
  for (int i = 0; i < 60; ++i) lines.push_back("s" + std::to_string(i % 8));
  MapReduceEngine clean({.workers = 4, .target_map_tasks = 10});
  const auto expected = RunWordCount(clean, lines, 3);
  EngineOptions slow{.workers = 4,
                     .seed = 3,
                     .map_straggler_prob = 0.2,
                     .straggler_delay = std::chrono::milliseconds(200),
                     .target_map_tasks = 10};
  slow.scheduler.speculation = true;
  slow.scheduler.speculation_min_completed = 0.3;
  MapReduceEngine engine(slow);
  EXPECT_EQ(RunWordCount(engine, lines, 3), expected);
  const JobCounters& c = engine.last_counters();
  EXPECT_EQ(c.map_attempts, c.map_tasks + c.map_retries + c.map_speculative);
  EXPECT_EQ(c.reduce_attempts,
            c.reduce_tasks + c.reduce_retries + c.reduce_speculative);
  const SchedulerReport& map_report = engine.last_map_report();
  EXPECT_EQ(map_report.speculative_launched, c.map_speculative);
}

TEST(EngineTest, OutputIdenticalAcrossSeedsAndFaultModes) {
  // The PR's determinism contract: byte-identical output across seeds in
  // each fault mode — clean, injected failures, stragglers + speculation.
  std::vector<std::string> lines;
  for (int i = 0; i < 120; ++i) {
    lines.push_back("t" + std::to_string(i % 19) + " u" +
                    std::to_string(i % 6));
  }
  MapReduceEngine reference({.workers = 4});
  const auto expected = RunWordCount(reference, lines, 5);
  for (const std::uint64_t seed : {3u, 41u, 909u}) {
    MapReduceEngine clean({.workers = 2, .seed = seed});
    EXPECT_EQ(RunWordCount(clean, lines, 5), expected) << "seed " << seed;

    MapReduceEngine faulty({.workers = 4,
                            .seed = seed,
                            .map_failure_prob = 0.4,
                            .reduce_failure_prob = 0.3,
                            .max_attempts = 40});
    EXPECT_EQ(RunWordCount(faulty, lines, 5), expected) << "seed " << seed;

    EngineOptions straggly{.workers = 4,
                           .seed = seed,
                           .map_straggler_prob = 0.15,
                           .reduce_straggler_prob = 0.15,
                           .straggler_delay = std::chrono::milliseconds(60)};
    straggly.scheduler.speculation = true;
    straggly.scheduler.speculation_min_completed = 0.3;
    MapReduceEngine spec(straggly);
    EXPECT_EQ(RunWordCount(spec, lines, 5), expected) << "seed " << seed;
  }
}

TEST(EngineTest, RunTasksExposesSchedulerWithEngineOptions) {
  MapReduceEngine engine({.workers = 2, .seed = 4, .max_attempts = 5});
  std::vector<std::uint64_t> out(6, 0);
  std::vector<TaskFn> tasks;
  for (std::size_t t = 0; t < out.size(); ++t) {
    tasks.push_back([&out, t](const AttemptContext& ctx) {
      if (t == 2 && ctx.attempt() < 3) return AttemptStatus::kFailed;
      if (!ctx.ClaimCommit()) return AttemptStatus::kCommitLost;
      out[t] = t + 1;
      return AttemptStatus::kSuccess;
    });
  }
  const SchedulerReport report = engine.RunTasks("side-job", "filter", tasks);
  for (std::size_t t = 0; t < out.size(); ++t) EXPECT_EQ(out[t], t + 1);
  EXPECT_EQ(report.retries, 2u);
  EXPECT_EQ(engine.registry().CounterValue("mr.filter_tasks"), 6u);
  EXPECT_EQ(engine.registry().CounterValue("mr.filter_attempts"), 8u);
}

TEST(EngineTest, RunTasksAppliesMapInjection) {
  // RunTasks attempts roll the engine's map-stage failure and straggler
  // schedule before their bodies run: retries absorb the failures, the
  // outputs equal a clean run's, and an exhausted budget throws.
  const auto run = [](EngineOptions options, std::vector<std::uint64_t>& out,
                      std::atomic<std::uint64_t>& bodies) {
    MapReduceEngine engine(options);
    std::vector<TaskFn> tasks;
    for (std::size_t t = 0; t < out.size(); ++t) {
      tasks.push_back([&out, &bodies, t](const AttemptContext& ctx) {
        bodies.fetch_add(1, std::memory_order_relaxed);
        if (!ctx.ClaimCommit()) return AttemptStatus::kCommitLost;
        out[t] = t * t + 1;
        return AttemptStatus::kSuccess;
      });
    }
    (void)engine.RunTasks("inject-job", "filter", tasks);
    return engine.registry().CounterValue(kMrInjectedMapFailures);
  };

  std::vector<std::uint64_t> clean(32, 0);
  std::atomic<std::uint64_t> clean_bodies{0};
  EXPECT_EQ(run({.workers = 2, .seed = 8}, clean, clean_bodies), 0u);

  std::vector<std::uint64_t> flaky(32, 0);
  std::atomic<std::uint64_t> flaky_bodies{0};
  const std::uint64_t injected =
      run({.workers = 2,
           .seed = 8,
           .map_failure_prob = 0.4,
           .map_straggler_prob = 0.1,
           .straggler_delay = std::chrono::milliseconds(5),
           .max_attempts = 40},
          flaky, flaky_bodies);
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(flaky, clean);
  // Injected failures strike before the body: only surviving attempts ran.
  EXPECT_EQ(flaky_bodies.load(), clean_bodies.load());

  std::vector<std::uint64_t> doomed(32, 0);
  std::atomic<std::uint64_t> doomed_bodies{0};
  EXPECT_THROW((void)run({.workers = 2,
                          .seed = 8,
                          .map_failure_prob = 0.97,
                          .max_attempts = 2},
                         doomed, doomed_bodies),
               Error);
}

}  // namespace
}  // namespace evm::mapreduce
