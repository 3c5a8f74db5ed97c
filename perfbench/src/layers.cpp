// Per-layer probes of the traced run. Each calls one layer's public entry
// point directly and times it, over one pass of the workload's inputs:
//   trace     Strip(view)
//   analytic  ComputeMissProfilesFused, split at its after_setup hook, at
//             jobs=1 and on a 2-thread pool; Explorer construction with and
//             without a registry; the K sweep
//   explore   ExploreJoint and EvaluateJointConfig on its front
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "analytic/explorer.hpp"
#include "analytic/fast.hpp"
#include "bench.hpp"
#include "cache/stack.hpp"
#include "explore/joint.hpp"
#include "support/metrics.hpp"
#include "support/pool.hpp"
#include "trace/strip.hpp"
#include "trace/trace_view.hpp"

namespace perfbench {
namespace {

struct PreludeTimes {
  double setup_s = 0.0;
  double traverse_s = 0.0;
};

std::vector<ces::cache::StackProfile> TimedPrelude(
    const ces::trace::StrippedTrace& stripped, std::uint32_t bits,
    ces::support::ThreadPool* pool, ces::support::MetricsRegistry* metrics,
    PreludeTimes& times) {
  ces::analytic::FusedPreludeOptions fused;
  fused.pool = pool;
  fused.metrics = metrics;
  const Clock::time_point start = Clock::now();
  Clock::time_point hook = start;
  fused.after_setup = [&hook] { hook = Clock::now(); };
  std::vector<ces::cache::StackProfile> profiles =
      ces::analytic::ComputeMissProfilesFused(stripped, bits, fused);
  const Clock::time_point end = Clock::now();
  times.setup_s += SecondsBetween(start, hook);
  times.traverse_s += SecondsBetween(hook, end);
  return profiles;
}

double TimedExplorer(const ces::trace::TraceView& view,
                     ces::analytic::ExplorerOptions options) {
  const Clock::time_point start = Clock::now();
  const ces::analytic::Explorer explorer(view, options);
  return SecondsBetween(start, Clock::now());
}

}  // namespace

void ProbeAnalytic(const std::vector<std::string>& paths,
                   std::uint32_t max_index_bits, Report& report) {
  double strip_s = 0.0, metrics_s = 0.0, solve_s = 0.0;
  std::uint64_t refs = 0, unique = 0, work_w = 0;
  PreludeTimes serial, pooled;
  ces::support::MetricsRegistry counters;
  ces::support::ThreadPool pool(2);
  for (const std::string& path : paths) {
    const std::unique_ptr<ces::trace::TraceView> view =
        ces::trace::TryOpenMmap(path);
    if (view == nullptr) throw std::runtime_error(path + ": not CTRC");
    Clock::time_point start = Clock::now();
    const ces::trace::StrippedTrace stripped = ces::trace::Strip(*view);
    strip_s += SecondsBetween(start, Clock::now());
    refs += stripped.size();
    unique += stripped.unique_count();

    const std::uint32_t bits = std::min(
        max_index_bits, ces::trace::SignificantAddressBits(stripped));
    const auto profiles =
        TimedPrelude(stripped, bits, nullptr, &counters, serial);
    ces::support::MetricsRegistry discard;
    TimedPrelude(stripped, bits, &pool, &discard, pooled);
    // W = sum over levels of the stack distances of every warm occurrence.
    for (const ces::cache::StackProfile& profile : profiles) {
      for (std::size_t d = 0; d < profile.hist.size(); ++d) {
        work_w += d * profile.hist[d];
      }
    }

    ces::analytic::ExplorerOptions options;
    options.jobs = 1;
    options.max_index_bits = max_index_bits;
    const double bare = TimedExplorer(*view, options);
    ces::support::MetricsRegistry registry;
    options.metrics = &registry;
    metrics_s += TimedExplorer(*view, options) - bare;

    options.metrics = nullptr;
    const ces::analytic::Explorer explorer(*view, options);
    start = Clock::now();
    for (double fraction : kFractions) explorer.SolveFraction(fraction);
    solve_s += SecondsBetween(start, Clock::now());
  }
  report.Set("trace.strip_ms", strip_s * 1e3, "ms");
  report.Set("trace.refs", static_cast<double>(refs), "count");
  report.Set("trace.unique_refs", static_cast<double>(unique), "count");
  report.Set("analytic.setup_ms", serial.setup_s * 1e3, "ms");
  report.Set("analytic.traverse_ms", serial.traverse_s * 1e3, "ms");
  report.Set("analytic.traverse_refs_per_s",
             static_cast<double>(refs) / serial.traverse_s, "1/s");
  report.Set("analytic.traverse_ms_j2", pooled.traverse_s * 1e3, "ms");
  report.Set("analytic.fused_refs",
             static_cast<double>(counters.counter("explore.fused_refs")),
             "count");
  report.Set("analytic.fused_nodes",
             static_cast<double>(counters.counter("explore.fused_nodes")),
             "count");
  report.Set("analytic.work_w", static_cast<double>(work_w), "count");
  report.Set("analytic.metrics_ms", metrics_s * 1e3, "ms");
  report.Set("analytic.solve_us", solve_s * 1e6, "us");
}

void ProbeJoint(const std::vector<ces::trace::AccessSequence>& pairs,
                Report& report) {
  const ces::explore::JointSpace space = ces::explore::JointSpace::Default();
  double evaluate_s = 0.0;
  std::uint64_t evaluated = 0, pruned = 0, front = 0;
  for (const ces::trace::AccessSequence& accesses : pairs) {
    ces::explore::JointOptions options;
    options.jobs = 1;
    const ces::explore::JointResult result =
        ces::explore::ExploreJoint(accesses, space, options);
    evaluated += result.evaluated_configs;
    pruned += result.pruned_configs;
    front += result.front.size();
    const Clock::time_point start = Clock::now();
    for (const ces::explore::JointPoint& point : result.front) {
      ces::explore::EvaluateJointConfig(accesses, point.config);
    }
    evaluate_s += SecondsBetween(start, Clock::now());
  }
  report.Set("explore.evaluate_ms", evaluate_s * 1e3, "ms");
  report.Set("explore.joint_evaluated", static_cast<double>(evaluated),
             "count");
  report.Set("explore.joint_pruned", static_cast<double>(pruned), "count");
  report.Set("explore.joint_front", static_cast<double>(front), "count");
}

ces::trace::AccessSequence ProbePair(const ces::trace::Trace& data,
                                     std::size_t limit) {
  ces::trace::Trace head = data;
  if (head.refs.size() > limit) head.refs.resize(limit);
  // An instruction-fetch stream as long as the data stream: a 64-word loop
  // body stepping through a 4,096-word code region.
  ces::trace::Trace instr;
  instr.kind = ces::trace::StreamKind::kInstruction;
  instr.address_bits = 20;
  for (std::uint32_t i = 0; instr.refs.size() < head.refs.size(); ++i) {
    instr.refs.push_back(((i / 1024) * 64 + i % 64) % 4096);
  }
  head.kind = ces::trace::StreamKind::kData;
  return ces::explore::InterleaveProportional(instr, head);
}

}  // namespace perfbench
