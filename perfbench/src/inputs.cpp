// Set-up steps, seeded input generation and the bridge to the checker.
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <unordered_set>

#include "analytic/explorer.hpp"
#include "bench.hpp"
#include "trace/trace_io.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

constexpr char kManifest[] = "inputs.txt";

// The wide workload: sparse traces of ~40k references over ~4,000 lines
// at random 26-bit addresses.
constexpr std::uint32_t kWideTraces = 4;
constexpr std::uint32_t kWideRefs = 40'000;
constexpr std::uint32_t kWideLines = 4'000;
constexpr std::uint32_t kWideBits = 26;

void WriteManifest(const std::string& dir,
                   const std::vector<InputFile>& inputs) {
  std::ofstream out(dir + "/" + kManifest);
  for (const InputFile& input : inputs) {
    out << input.program << ' ' << input.kind << ' ' << input.path << ' '
        << input.refs << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + dir + "/" + kManifest);
}

InputFile Save(const std::string& dir, const ces::trace::Trace& trace,
               const std::string& program, const std::string& kind) {
  InputFile input{program, kind, dir + "/" + program + "." + kind + ".ctr",
                  trace.refs.size()};
  ces::trace::SaveToFile(input.path, trace);
  return input;
}

}  // namespace

double RunPowerstonePrograms(Report& report,
                             std::vector<ces::trace::Trace>* traces) {
  const Clock::time_point start = Clock::now();
  for (const ces::workloads::Workload& workload :
       ces::workloads::AllWorkloads()) {
    ces::workloads::WorkloadRun run = ces::workloads::Run(workload);
    if (!run.output_matches) {
      report.Error("MR32 run of " + workload.name +
                   " disagrees with its golden model");
    }
    if (traces != nullptr) {
      run.instruction_trace.name = workload.name;
      run.data_trace.name = workload.name;
      traces->push_back(std::move(run.instruction_trace));
      traces->push_back(std::move(run.data_trace));
    }
  }
  return SecondsBetween(start, Clock::now());
}

void Setup(const Options& options, Report& report) {
  // Fresh files: rewriting a file in place makes ext4 start its write-back
  // on close (auto_da_alloc), a disk wait that would set the set-up time.
  std::filesystem::remove_all(options.dir);
  std::filesystem::create_directories(options.dir);
  std::vector<InputFile> inputs;
  if (options.workload == "wide") {
    for (std::uint32_t i = 0; i < kWideTraces; ++i) {
      const std::string name = "wide" + std::to_string(i);
      inputs.push_back(Save(options.dir,
                            LoopMixTrace(options.seed * 8 + i, kWideRefs,
                                         kWideLines, kWideBits, name),
                            name, "d"));
    }
    // Traced runs measure the workloads layer on every workload.
    if (options.trace) {
      report.Set("workloads.run_s", RunPowerstonePrograms(report, nullptr),
                 "s");
    }
  } else if (options.workload == "powerstone" || options.workload == "joint" ||
             options.workload == "service") {
    std::vector<ces::trace::Trace> traces;
    report.Set("workloads.run_s", RunPowerstonePrograms(report, &traces), "s");
    for (std::size_t i = 0; i < traces.size(); ++i) {
      inputs.push_back(
          Save(options.dir, traces[i], traces[i].name, i % 2 ? "d" : "i"));
    }
    if (options.workload == "service") StartStopDaemon(options);
  } else {
    throw std::invalid_argument("unknown workload " + options.workload);
  }
  WriteManifest(options.dir, inputs);
}

std::vector<InputFile> ReadInputs(const std::string& dir) {
  std::vector<InputFile> inputs;
  for (const auto& row : ReadTable(dir + "/" + kManifest)) {
    if (row.size() != 4) throw std::runtime_error("malformed input manifest");
    inputs.push_back({row[0], row[1], row[2], std::stoull(row[3])});
  }
  return inputs;
}

ces::trace::Trace LoopMixTrace(std::uint64_t seed, std::uint32_t refs,
                               std::uint32_t lines,
                               std::uint32_t address_bits,
                               const std::string& name) {
  SeedRng rng(seed);
  const std::uint64_t space = std::uint64_t{1} << address_bits;
  std::vector<std::uint32_t> pool;
  std::unordered_set<std::uint32_t> taken;
  while (pool.size() < lines) {
    const auto address = static_cast<std::uint32_t>(rng.Below(space));
    if (taken.insert(address).second) pool.push_back(address);
  }
  ces::trace::Trace trace;
  trace.name = name;
  trace.kind = ces::trace::StreamKind::kData;
  trace.address_bits = address_bits;
  trace.refs.reserve(refs);
  while (trace.refs.size() < refs) {
    // A loop over a run of 4..67 lines, repeated 1..4 times.
    const std::uint32_t length = 4 + static_cast<std::uint32_t>(rng.Below(64));
    const std::uint32_t first =
        static_cast<std::uint32_t>(rng.Below(lines - length));
    const std::uint32_t repeats = 1 + static_cast<std::uint32_t>(rng.Below(4));
    for (std::uint32_t r = 0; r < repeats; ++r) {
      for (std::uint32_t i = 0; i < length && trace.refs.size() < refs; ++i) {
        trace.refs.push_back(pool[first + i]);
      }
    }
  }
  return trace;
}

std::vector<oracle::Answer> ToOracle(
    const std::vector<ces::analytic::ExplorationResult>& results,
    const double* fractions) {
  std::vector<oracle::Answer> answers;
  for (std::size_t i = 0; i < results.size(); ++i) {
    oracle::Answer answer;
    answer.fraction = fractions[i];
    answer.k = results[i].k;
    for (const ces::analytic::DesignPoint& point : results[i].points) {
      answer.points.push_back({point.depth, point.assoc, point.warm_misses});
    }
    answers.push_back(std::move(answer));
  }
  return answers;
}

void CheckWithOracle(const Options& options, const std::string& label,
                     const std::vector<std::uint32_t>& refs,
                     std::uint32_t max_index_bits,
                     std::vector<oracle::Answer> answers,
                     std::vector<std::string>& errors) {
  if (options.corrupt && !answers.empty()) {
    answers.front() = oracle::Corrupt(answers.front());
  }
  for (const std::string& error :
       oracle::CheckAnswers(refs, max_index_bits, answers)) {
    errors.push_back(label + ": " + error);
  }
}

void SelfTestOracle(const std::vector<std::uint32_t>& refs,
                    std::uint32_t max_index_bits,
                    const std::vector<oracle::Answer>& good,
                    std::vector<std::string>& errors) {
  std::vector<oracle::Answer> bad = good;
  bad.front() = oracle::Corrupt(bad.front());
  if (oracle::CheckAnswers(refs, max_index_bits, bad).empty()) {
    errors.push_back("checker self-test: a corrupted answer was accepted");
  }
}

}  // namespace perfbench
