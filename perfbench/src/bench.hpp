// The benchmark's workloads, their set-up steps and the per-layer probes.
//
// Each workload has a set-up step (run in its own process, timed from
// outside as setup_s) that writes its inputs under Options::dir, and a
// measured run that reads them, drives the library for Options::seconds in
// whole rounds, checks every answer and fills the Report. A traced run
// (Options::trace) measures half the time untraced and half traced, then
// runs the layer probes, and reports per-layer metrics only.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "oracle.hpp"
#include "support/trace_event.hpp"
#include "trace/trace.hpp"

namespace ces::analytic {
struct ExplorationResult;
}  // namespace ces::analytic

namespace perfbench {

// The traced run's spans. The benchmark wraps each call into a layer in a
// span on `sink`, named "<layer.call> op=<id>" so the spans of one
// exploration (or one service cycle) share the id; `active` is null while
// tracing is off, and a span then records nothing. The sink is written as
// Chrome trace-event JSON when the run ends.
struct Tracing {
  ces::support::TraceSink sink;
  ces::support::TraceSink* active = nullptr;
};

inline ces::support::ScopedTraceSpan LayerSpan(const Tracing& tracing,
                                               const char* name,
                                               std::uint64_t op) {
  return ces::support::ScopedTraceSpan(
      tracing.active == nullptr
          ? std::string()
          : std::string(name) + " op=" + std::to_string(op),
      tracing.active);
}

// ---- inputs.cpp ---------------------------------------------------------

// One trace file written by a set-up step.
struct InputFile {
  std::string program;  // PowerStone program or synthetic trace name
  std::string kind;     // "i" (instruction) or "d" (data)
  std::string path;
  std::uint64_t refs = 0;
};

// Runs the 12 MR32 PowerStone programs and writes their 24 traces as CTRC
// files (powerstone, joint, service); writes the seeded sparse wide-address
// traces (wide); for service, then starts the daemon up to a healthy reply
// and stops it. Records workloads.run_s when it ran the MR32 programs.
void Setup(const Options& options, Report& report);

std::vector<InputFile> ReadInputs(const std::string& dir);

// Seeded synthetic reference stream: `lines` distinct random word addresses
// below 2^address_bits, visited as short loops over runs of them (reuse at
// short and long distances), `refs` references long.
ces::trace::Trace LoopMixTrace(std::uint64_t seed, std::uint32_t refs,
                               std::uint32_t lines,
                               std::uint32_t address_bits,
                               const std::string& name);

// The MR32 runs alone (the workloads layer), in seconds.
double RunPowerstonePrograms(Report& report,
                             std::vector<ces::trace::Trace>* traces);

// ---- answers ------------------------------------------------------------

std::vector<oracle::Answer> ToOracle(
    const std::vector<ces::analytic::ExplorationResult>& results,
    const double* fractions);

// Runs the checker on `answers` for `refs`; every violation is appended to
// `errors`, prefixed with `label`. With options.corrupt the first answer is
// corrupted first, to show that a wrong answer fails the run.
void CheckWithOracle(const Options& options, const std::string& label,
                     const std::vector<std::uint32_t>& refs,
                     std::uint32_t max_index_bits,
                     std::vector<oracle::Answer> answers,
                     std::vector<std::string>& errors);

// The checker's self-test: a corrupted copy of a known-good answer must be
// rejected, or an error is appended.
void SelfTestOracle(const std::vector<std::uint32_t>& refs,
                    std::uint32_t max_index_bits,
                    const std::vector<oracle::Answer>& good,
                    std::vector<std::string>& errors);

// ---- timed loops (loop.cpp) ---------------------------------------------

// One cold exploration: its latency and the references it explored.
struct Sample {
  double latency_ms = 0.0;
  std::uint64_t refs = 0;
};

// Whole rounds over items 0..items-1, in a seeded order per round, until
// `seconds` have passed. `explore(item, op)` runs one operation; an
// exception counts it as failed. Fills attempted/failed and the offline
// end-to-end metrics: peak_rss_mb, refs_per_s (the median of the per-round
// rates, which a burst of host noise in one round cannot move) and
// explore_ms_p50 (the median of the per-round median latencies). Every
// round explores the same mix of inputs; with an even count (24 traces, 12
// pairs) the median of all samples pooled falls between two inputs, where
// the slowest sample of one and the fastest of the next set it: the
// extremes that host noise moves most.
void MeasureRounds(std::uint64_t seed, std::size_t items, double seconds,
                   const std::function<Sample(std::size_t, std::uint64_t)>&
                       explore,
                   Report& report);

// An untraced run of `measure` for options.seconds; in a traced run, half
// the time untraced and half with `tracing` on, reporting the difference as
// the tracing.* overhead metrics instead of the end-to-end metrics. The
// halves' own reports are dropped, so `measure` records correctness errors
// in `report`, not in the report it is handed.
void MeasureMaybeTraced(const Options& options, Tracing& tracing,
                        const std::function<void(double, Report&)>& measure,
                        Report& report);

// ---- workloads ----------------------------------------------------------

void RunOffline(const Options& options, Report& report);  // powerstone, wide
void RunJoint(const Options& options, Report& report);
void RunService(const Options& options, Report& report);

// ---- per-layer probes (traced runs) -------------------------------------

// trace.* and analytic.* over one pass of the given CTRC files.
void ProbeAnalytic(const std::vector<std::string>& paths,
                   std::uint32_t max_index_bits, Report& report);

// explore.* over one ExploreJoint call per pair (default space, jobs=1).
void ProbeJoint(const std::vector<ces::trace::AccessSequence>& pairs,
                Report& report);

// A joint input for workloads without instruction streams: the data trace
// (first `limit` references) with a fixed instruction-fetch loop.
ces::trace::AccessSequence ProbePair(const ces::trace::Trace& data,
                                     std::size_t limit);

// service.* from one client running the upload/explore cycle on `traces`
// against a freshly started daemon.
void ProbeService(const Options& options,
                  const std::vector<ces::trace::Trace>& traces,
                  Report& report);

// Starts the daemon, waits for a healthy reply, then shuts it down.
void StartStopDaemon(const Options& options);

}  // namespace perfbench
