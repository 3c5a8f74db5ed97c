// The joint workload: explore::ExploreJoint over the 12 PowerStone
// instruction/data pairs (default 1296-configuration space, pruning on,
// jobs=1). Fronts are checked against the repository's hierarchy simulator
// and for mutual non-domination.
#include <map>

#include "bench.hpp"
#include "cache/hierarchy.hpp"
#include "explore/joint.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {
namespace {

struct Pair {
  std::string program;
  std::uint64_t refs = 0;  // both streams
  ces::trace::AccessSequence accesses;
};

using Front = std::vector<ces::explore::JointPoint>;

bool Dominates(const ces::explore::JointMetrics& a,
               const ces::explore::JointMetrics& b) {
  const bool no_worse = a.misses <= b.misses && a.amat_ns <= b.amat_ns &&
                        a.energy_nj <= b.energy_nj;
  const bool better = a.misses < b.misses || a.amat_ns < b.amat_ns ||
                      a.energy_nj < b.energy_nj;
  return no_worse && better;
}

std::vector<std::string> CheckFront(const ces::trace::AccessSequence& accesses,
                                    const Front& front) {
  std::vector<std::string> errors;
  if (front.empty()) errors.push_back("empty front");
  for (const ces::explore::JointPoint& point : front) {
    const std::string key = ces::explore::JointConfigKey(point.config);
    const ces::cache::HierarchyStats sim =
        ces::cache::SimulateHierarchy(accesses, point.config);
    const ces::explore::JointMetrics& m = point.metrics;
    if (m.l1i_misses != sim.l1i.misses || m.l1d_misses != sim.l1d.misses ||
        m.l2_misses != sim.l2.misses ||
        m.misses != sim.l1i.misses + sim.l1d.misses + sim.l2.misses) {
      errors.push_back(key + ": misses " + std::to_string(m.l1i_misses) + "/" +
                       std::to_string(m.l1d_misses) + "/" +
                       std::to_string(m.l2_misses) + ", simulator " +
                       std::to_string(sim.l1i.misses) + "/" +
                       std::to_string(sim.l1d.misses) + "/" +
                       std::to_string(sim.l2.misses));
    }
  }
  for (std::size_t i = 0; i < front.size(); ++i) {
    for (std::size_t j = 0; j < front.size(); ++j) {
      if (i != j && Dominates(front[i].metrics, front[j].metrics)) {
        errors.push_back(ces::explore::JointConfigKey(front[i].config) +
                         " dominates front point " +
                         ces::explore::JointConfigKey(front[j].config));
      }
    }
  }
  return errors;
}

bool SameFront(const Front& a, const Front& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ces::explore::JointConfigKey(a[i].config) !=
            ces::explore::JointConfigKey(b[i].config) ||
        a[i].metrics.misses != b[i].metrics.misses) {
      return false;
    }
  }
  return true;
}

std::vector<Pair> LoadPairs(const std::string& dir) {
  std::map<std::string, std::pair<ces::trace::Trace, ces::trace::Trace>> split;
  for (const InputFile& input : ReadInputs(dir)) {
    auto& slot = split[input.program];
    (input.kind == "i" ? slot.first : slot.second) =
        ces::trace::LoadFromFile(input.path);
  }
  std::vector<Pair> pairs;
  for (auto& [program, streams] : split) {
    pairs.push_back({program, streams.first.size() + streams.second.size(),
                     ces::explore::InterleaveProportional(streams.first,
                                                          streams.second)});
  }
  return pairs;
}

}  // namespace

void RunJoint(const Options& options, Report& report) {
  const std::vector<Pair> pairs = LoadPairs(options.dir);
  std::vector<Front> first(pairs.size());
  const ces::explore::JointSpace space = ces::explore::JointSpace::Default();
  ces::explore::JointOptions joint;
  joint.jobs = 1;
  joint.prune = true;
  Tracing tracing;
  MeasureMaybeTraced(
      options, tracing,
      [&](double seconds, Report& into) {
        MeasureRounds(
            options.seed, pairs.size(), seconds,
            [&](std::size_t index, std::uint64_t op) {
              const Clock::time_point start = Clock::now();
              ces::explore::JointResult result;
              {
                const auto span = LayerSpan(tracing, "explore.joint", op);
                result = ces::explore::ExploreJoint(pairs[index].accesses,
                                                    space, joint);
              }
              const Sample sample{SecondsBetween(start, Clock::now()) * 1e3,
                                  pairs[index].refs};
              if (first[index].empty()) {
                first[index] = std::move(result.front);
              } else if (!SameFront(first[index], result.front)) {
                report.Error(pairs[index].program +
                           ": fronts differ between explorations");
              }
              return sample;
            },
            into);
      },
      report);

  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (first[i].empty()) {
      report.Error(pairs[i].program + ": no front to check");
      continue;
    }
    Front front = first[i];
    if (options.corrupt && i == 0) ++front.front().metrics.l2_misses;
    for (const std::string& error : CheckFront(pairs[i].accesses, front)) {
      report.Error(pairs[i].program + ": " + error);
    }
  }
  // Self-test: a front point with a wrong miss count must be caught.
  if (!first.empty() && !first[0].empty()) {
    Front bad = first[0];
    ++bad.front().metrics.l1d_misses;
    if (CheckFront(pairs[0].accesses, bad).empty()) {
      report.Error("checker self-test: a corrupted front was accepted");
    }
  }

  if (options.trace) {
    std::vector<std::string> paths;
    for (const InputFile& input : ReadInputs(options.dir)) {
      paths.push_back(input.path);
    }
    ProbeAnalytic(paths, 16, report);
    std::vector<ces::trace::AccessSequence> accesses;
    for (const Pair& pair : pairs) accesses.push_back(pair.accesses);
    ProbeJoint(accesses, report);
    ProbeService(options, {ces::trace::LoadFromFile(paths.front())}, report);
    if (!options.trace_out.empty()) {
      tracing.sink.WriteJsonFile(options.trace_out);
    }
  }
}

}  // namespace perfbench
