// perfbench — the repository benchmark program.
//
//   perfbench setup   --workload=W --seed=N --dir=D [--trace=0|1]
//   perfbench measure --workload=W --seed=N --seconds=T --dir=D
//                     [--trace=0|1] [--trace-out=F] [--corrupt]
//
// `setup` writes the workload's inputs under D; `measure` runs the timed
// loop on them, checks every answer and prints one JSON line. perfbench/
// run.py times the set-up steps and assembles the benchmark's result; see
// perfbench/README.md.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench setup|measure --workload=W --seed=N "
               "--dir=D [--seconds=T] [--trace=0|1] [--trace-out=F] "
               "[--corrupt]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  perfbench::Options options;
  for (int i = 2; i < argc; ++i) {
    std::string value;
    if (Flag(argv[i], "--workload", &value)) {
      options.workload = value;
    } else if (Flag(argv[i], "--seed", &value)) {
      options.seed = std::stoull(value);
    } else if (Flag(argv[i], "--seconds", &value)) {
      options.seconds = std::stod(value);
    } else if (Flag(argv[i], "--trace", &value)) {
      options.trace = value == "1";
    } else if (Flag(argv[i], "--dir", &value)) {
      options.dir = value;
    } else if (Flag(argv[i], "--trace-out", &value)) {
      options.trace_out = value;
    } else if (std::strcmp(argv[i], "--corrupt") == 0) {
      options.corrupt = true;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.dir.empty()) return Usage();

  perfbench::Report report;
  try {
    if (command == "setup") {
      perfbench::Setup(options, report);
    } else if (command != "measure") {
      return Usage();
    } else if (options.workload == "powerstone" || options.workload == "wide") {
      perfbench::RunOffline(options, report);
    } else if (options.workload == "joint") {
      perfbench::RunJoint(options, report);
    } else if (options.workload == "service") {
      perfbench::RunService(options, report);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
