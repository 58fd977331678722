#include "bench.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

namespace evbench {
namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

Clock::time_point ProcessStart() { return kProcessStart; }

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double PeakRssMb() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

double ChildrenPeakRssMb() {
  const auto parent = static_cast<unsigned long>(getpid());
  double total_kb = 0.0;
  DIR* proc = opendir("/proc");
  if (proc == nullptr) return 0.0;
  while (const dirent* entry = readdir(proc)) {
    const std::string pid = entry->d_name;
    if (pid.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream status("/proc/" + pid + "/status");
    std::string line;
    bool child = false;
    double hwm_kb = 0.0;
    while (std::getline(status, line)) {
      if (line.rfind("PPid:", 0) == 0) {
        child = std::strtoul(line.c_str() + 5, nullptr, 10) == parent;
      } else if (line.rfind("VmHWM:", 0) == 0) {
        hwm_kb = std::strtod(line.c_str() + 6, nullptr);
      }
    }
    if (child) total_kb += hwm_kb;
  }
  closedir(proc);
  return total_kb / 1024.0;
}

std::size_t OpsFor(const Args& args, double per_second, std::size_t minimum) {
  const auto ops =
      static_cast<std::size_t>(std::ceil(args.seconds * per_second));
  return std::max(ops, minimum);
}

void Result::Check(bool ok, const std::string& what) {
  if (ok) return;
  if (failures_ < 20) std::cerr << "evbench: check failed: " << what << "\n";
  ++failures_;
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.emplace_back(name, std::make_pair(value, unit));
}

std::string Result::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, entry] = metrics_[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(entry.first) ? entry.first : 0.0);
    out << (i == 0 ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << entry.second << "\"}";
  }
  out << "}}";
  return out.str();
}

SpanLog::Scope::Scope(SpanLog& log, const char* name)
    : log_(log), index_(log.spans_.size()) {
  log_.spans_.push_back(Span{name, log_.open_, Clock::now(), {}});
  log_.open_ = index_;
}

SpanLog::Scope::~Scope() {
  log_.spans_[index_].end = Clock::now();
  log_.open_ = log_.spans_[index_].parent;
}

double SpanLog::Scope::Elapsed() const {
  return evbench::Seconds(log_.spans_[index_].start, Clock::now());
}

std::vector<std::pair<std::string, double>> SpanLog::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = evbench::Seconds(spans_[i].start, spans_[i].end);
  }
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      self[span.parent] -= evbench::Seconds(span.start, span.end);
    }
  }
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto it = std::find_if(out.begin(), out.end(), [&](const auto& e) {
      return e.first == spans_[i].name;
    });
    if (it == out.end()) {
      out.emplace_back(spans_[i].name, self[i]);
    } else {
      it->second += self[i];
    }
  }
  return out;
}

double SpanLog::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (name == span.name) total += evbench::Seconds(span.start, span.end);
  }
  return total;
}

double SpanLog::RootSeconds() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == kNoParent) {
      total += evbench::Seconds(span.start, span.end);
    }
  }
  return total;
}

void ThreadTotal::AddMax(Clock::time_point from, Clock::time_point to) {
  const auto nanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
  nanos_.fetch_add(nanos, std::memory_order_relaxed);
  std::uint64_t seen = max_nanos_.load(std::memory_order_relaxed);
  while (seen < nanos && !max_nanos_.compare_exchange_weak(seen, nanos)) {
  }
}

void PrintLayerTable(const std::string& workload, const SpanLog& log,
                     double total_s, double traced_op, double untraced_op) {
  std::printf("layer table: %s (traced path, %.4f s)\n", workload.c_str(),
              total_s);
  std::printf("  %-34s %12s %8s\n", "layer (self time)", "seconds", "share");
  double covered = 0.0;
  for (const auto& [name, seconds] : log.SelfSeconds()) {
    covered += seconds;
    std::printf("  %-34s %12.6f %7.2f%%\n", name.c_str(), seconds,
                total_s > 0 ? 100.0 * seconds / total_s : 0.0);
  }
  const double uncovered = total_s - covered;
  std::printf("  %-34s %12.6f %7.2f%%\n", "(no span)", uncovered,
              total_s > 0 ? 100.0 * uncovered / total_s : 0.0);
  std::printf("  tracing overhead: traced %.6g vs untraced %.6g (%+.2f%%)\n",
              traced_op, untraced_op,
              untraced_op > 0 ? 100.0 * (traced_op / untraced_op - 1.0) : 0.0);
}

}  // namespace evbench
