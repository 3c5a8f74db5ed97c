// Shared plumbing of the benchmark program: options, the result report, the
// seeded input generator's random source, timing and memory helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// The paper's K sweep: K = fraction x max-misses.
inline constexpr double kFractions[] = {0.05, 0.10, 0.15, 0.20};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;     // traced run: per-layer metrics instead of e2e
  std::string dir;        // the workload's input directory
  bool corrupt = false;   // corrupt one answer before checking (self-test)
  std::string trace_out;  // Chrome trace-event file written by a traced run
};

// What one run prints: operations attempted and failed, correctness
// violations, and metrics in insertion order.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Error(const std::string& message);
  double Get(const std::string& name) const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // {"correct":..,"attempted":..,"failed":..,"metrics":{..},"errors":[..]}
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

// splitmix64: the benchmark's own seeded source, so the inputs never
// depend on a generator inside the program under test.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

template <typename T>
void Shuffle(std::vector<T>& items, SeedRng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }
}

double Median(std::vector<double> values);

// Peak resident set of this process, in MiB (getrusage).
double PeakRssMb();
// Peak resident set (VmHWM) of another process, in MiB; 0 if unreadable.
double ProcessPeakRssMb(int pid);

// Reads "key value..." lines written by the set-up step.
std::vector<std::vector<std::string>> ReadTable(const std::string& path);

}  // namespace perfbench
