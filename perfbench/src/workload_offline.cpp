// The offline workloads: powerstone (the paper's 24 PowerStone traces) and
// wide (sparse wide-address traces explored deep with a metrics registry).
// Each exploration opens its CTRC file the way `cachedse explore` does —
// mmap view, streaming strip, fused prelude, jobs=1 — and solves the K
// sweep.
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "analytic/explorer.hpp"
#include "bench.hpp"
#include "support/metrics.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_view.hpp"

namespace perfbench {
namespace {

struct Shape {
  std::uint32_t max_index_bits = 16;
  bool registry = false;  // attach a MetricsRegistry, as the CLI and daemon do
};

Shape ShapeOf(const std::string& workload) {
  return workload == "wide" ? Shape{22, true} : Shape{16, false};
}

using Results = std::vector<ces::analytic::ExplorationResult>;

bool SameAnswers(const Results& a, const Results& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].k != b[i].k || a[i].points != b[i].points) return false;
  }
  return true;
}

// One cold exploration; `latency_ms` runs from opening the file to the
// first solve.
Results ExploreFile(const InputFile& input, const Shape& shape,
                    const Tracing& tracing, std::uint64_t op,
                    double* latency_ms) {
  const auto whole = LayerSpan(tracing, "bench.exploration", op);
  const Clock::time_point start = Clock::now();
  ces::support::MetricsRegistry registry;
  ces::support::MetricsRegistry* metrics = shape.registry ? &registry : nullptr;
  std::unique_ptr<ces::trace::TraceView> view;
  {
    const auto span = LayerSpan(tracing, "trace.open", op);
    view = ces::trace::TryOpenMmap(input.path, metrics);
  }
  if (view == nullptr) throw std::runtime_error(input.path + ": not CTRC");
  ces::analytic::ExplorerOptions options;
  options.jobs = 1;
  options.max_index_bits = shape.max_index_bits;
  options.metrics = metrics;
  std::optional<ces::analytic::Explorer> explorer;
  {
    const auto span = LayerSpan(tracing, "analytic.explorer", op);
    explorer.emplace(*view, options);
  }
  Results results;
  for (double fraction : kFractions) {
    const auto span = LayerSpan(tracing, "analytic.solve", op);
    results.push_back(explorer->SolveFraction(fraction));
    if (results.size() == 1) {
      *latency_ms = SecondsBetween(start, Clock::now()) * 1e3;
    }
  }
  return results;
}

}  // namespace

void RunOffline(const Options& options, Report& report) {
  const Shape shape = ShapeOf(options.workload);
  const std::vector<InputFile> inputs = ReadInputs(options.dir);
  std::vector<Results> first(inputs.size());
  Tracing tracing;
  MeasureMaybeTraced(
      options, tracing,
      [&](double seconds, Report& into) {
        MeasureRounds(
            options.seed, inputs.size(), seconds,
            [&](std::size_t index, std::uint64_t op) {
              Sample sample;
              Results results = ExploreFile(inputs[index], shape, tracing, op,
                                            &sample.latency_ms);
              sample.refs = inputs[index].refs;
              if (first[index].empty()) {
                first[index] = std::move(results);
              } else if (!SameAnswers(first[index], results)) {
                report.Error(inputs[index].path +
                           ": answers differ between explorations");
              }
              return sample;
            },
            into);
      },
      report);

  // Every distinct trace's answers against the independent checker, on up
  // to 4 threads (the timed phase is over).
  std::size_t smallest = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].refs < inputs[smallest].refs) smallest = i;
  }
  std::vector<std::vector<std::string>> found(inputs.size());
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t i = w; i < inputs.size(); i += 4) {
        if (first[i].empty()) {
          found[i].push_back(inputs[i].path + ": no answer to check");
          continue;
        }
        try {
          const std::vector<std::uint32_t> refs =
              oracle::ReadCtrc(inputs[i].path);
          const std::vector<oracle::Answer> answers =
              ToOracle(first[i], kFractions);
          CheckWithOracle(options, inputs[i].path, refs, shape.max_index_bits,
                          answers, found[i]);
          if (i == smallest) {
            SelfTestOracle(refs, shape.max_index_bits, answers, found[i]);
          }
        } catch (const std::exception& e) {
          found[i].push_back(inputs[i].path + ": " + e.what());
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const auto& errors : found) {
    for (const std::string& error : errors) report.Error(error);
  }

  if (options.trace) {
    std::vector<std::string> paths;
    for (const InputFile& input : inputs) paths.push_back(input.path);
    ProbeAnalytic(paths, shape.max_index_bits, report);
    const ces::trace::Trace probe =
        ces::trace::LoadFromFile(inputs[smallest].path);
    ProbeJoint({ProbePair(probe, 100'000)}, report);
    ProbeService(options, {probe}, report);
    if (!options.trace_out.empty()) {
      tracing.sink.WriteJsonFile(options.trace_out);
    }
  }
}

}  // namespace perfbench
