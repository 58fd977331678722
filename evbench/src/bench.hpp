#pragma once
// Shared plumbing of the end-to-end benchmark: command-line arguments,
// timing and order statistics, the result record every workload fills, and
// the span log the traced mode records around calls into the program.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace evbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
[[nodiscard]] inline double Seconds(Clock::time_point from,
                                    Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Process start, captured during static initialisation: set-up time is
/// measured from here.
[[nodiscard]] Clock::time_point ProcessStart();

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
};

/// Derives an independent sub-seed (SplitMix64 of seed and a stream tag).
[[nodiscard]] std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream);

/// Quantile with linear interpolation between closest ranks (q in [0, 1]).
[[nodiscard]] double Quantile(std::vector<double> values, double q);
[[nodiscard]] inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}
[[nodiscard]] double Sum(const std::vector<double>& values);

/// Peak resident set of this process so far, in MB. Workloads read it
/// right after their timed phase, before the output checks allocate.
[[nodiscard]] double PeakRssMb();

/// Sum of the peak resident sets of this process's running children, in
/// MB, from /proc/<pid>/status VmHWM. The peak is that of the child's own
/// program image: getrusage(RUSAGE_CHILDREN) would also count the parent
/// pages a forked child held before exec.
[[nodiscard]] double ChildrenPeakRssMb();

/// Whole operations a run performs: `per_second` times the measuring budget,
/// rounded up, at least `minimum`. The count depends on --seconds only, so
/// every run with the same arguments does the same work.
[[nodiscard]] std::size_t OpsFor(const Args& args, double per_second,
                                 std::size_t minimum);

/// Everything one run reports. `Check` records a failed output check; any
/// failed check makes the run incorrect.
class Result {
 public:
  void Check(bool ok, const std::string& what);
  void Metric(const std::string& name, double value, const std::string& unit);

  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  /// Per-layer values of a traced run, by metric name; main() reports every
  /// per-layer metric, with 0 for layers this workload does not reach.
  std::map<std::string, double> layers;

  [[nodiscard]] bool correct() const noexcept { return failures_ == 0; }
  /// The final JSON line.
  [[nodiscard]] std::string Json() const;

 private:
  std::size_t failures_{0};
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Per-layer span log of the traced mode. Spans are recorded by the
/// benchmark thread around calls into public entry points; a span's self
/// time is its duration minus the time its direct children cover. Work that
/// runs on the program's own threads (map tasks, filter tasks) is charged
/// through `ThreadTotal` accumulators instead.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration so far, seconds.
    [[nodiscard]] double Elapsed() const;

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  /// Per-layer self seconds, summed over all spans of that name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> SelfSeconds() const;
  [[nodiscard]] double TotalSeconds(const std::string& name) const;
  /// Seconds covered by root spans.
  [[nodiscard]] double RootSeconds() const;

 private:
  struct Span {
    const char* name;
    std::size_t parent;  // npos for roots
    Clock::time_point start;
    Clock::time_point end;
  };
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  std::vector<Span> spans_;
  std::size_t open_{kNoParent};
};

/// Nanoseconds summed across threads (relaxed atomics).
class ThreadTotal {
 public:
  void Add(Clock::time_point from, Clock::time_point to) {
    nanos_.fetch_add(static_cast<std::uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             to - from)
                             .count()),
                     std::memory_order_relaxed);
  }
  void AddMax(Clock::time_point from, Clock::time_point to);
  [[nodiscard]] double Seconds() const {
    return static_cast<double>(nanos_.load()) * 1e-9;
  }
  [[nodiscard]] double MaxSeconds() const {
    return static_cast<double>(max_nanos_.load()) * 1e-9;
  }

 private:
  std::atomic<std::uint64_t> nanos_{0};
  std::atomic<std::uint64_t> max_nanos_{0};
};

/// Prints the per-layer table: self time per layer, the part of `total_s`
/// no span covers, and the tracing overhead (traced against untraced value
/// of the workload's headline operation).
void PrintLayerTable(const std::string& workload, const SpanLog& log,
                     double total_s, double traced_op, double untraced_op);

}  // namespace evbench
