// The timed loops shared by the workloads.
#include <cstdio>
#include <exception>

#include "bench.hpp"

namespace perfbench {

void MeasureRounds(std::uint64_t seed, std::size_t items, double seconds,
                   const std::function<Sample(std::size_t, std::uint64_t)>&
                       explore,
                   Report& report) {
  SeedRng rng(seed);
  std::vector<std::size_t> order(items);
  for (std::size_t i = 0; i < items; ++i) order[i] = i;
  std::vector<double> round_latencies, round_rates;
  std::uint64_t op = 0;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point round_start = Clock::now();
    std::uint64_t refs = 0;
    std::vector<double> latencies;
    Shuffle(order, rng);
    for (std::size_t item : order) {
      ++report.attempted;
      try {
        const Sample sample = explore(item, ++op);
        latencies.push_back(sample.latency_ms);
        refs += sample.refs;
      } catch (const std::exception& e) {
        ++report.failed;
        std::fprintf(stderr, "perfbench: operation on input %zu: %s\n", item,
                     e.what());
      }
    }
    round_rates.push_back(static_cast<double>(refs) /
                          SecondsBetween(round_start, Clock::now()));
    round_latencies.push_back(Median(latencies));
  } while (SecondsBetween(start, Clock::now()) < seconds);
  report.Set("peak_rss_mb", PeakRssMb(), "MiB");
  report.Set("refs_per_s", Median(round_rates), "1/s");
  report.Set("explore_ms_p50", Median(round_latencies), "ms");
}

void MeasureMaybeTraced(const Options& options, Tracing& tracing,
                        const std::function<void(double, Report&)>& measure,
                        Report& report) {
  if (!options.trace) {
    measure(options.seconds, report);
    return;
  }
  Report untraced, traced;
  measure(options.seconds / 2, untraced);
  tracing.active = &tracing.sink;
  measure(options.seconds / 2, traced);
  tracing.active = nullptr;
  report.attempted = untraced.attempted + traced.attempted;
  report.failed = untraced.failed + traced.failed;
  report.Set("tracing.refs_per_s_overhead_pct",
             (untraced.Get("refs_per_s") / traced.Get("refs_per_s") - 1) * 100,
             "%");
  report.Set("tracing.explore_ms_p50_overhead_pct",
             (traced.Get("explore_ms_p50") / untraced.Get("explore_ms_p50") -
              1) * 100,
             "%");
}

}  // namespace perfbench
