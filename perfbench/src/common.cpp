#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "support/json.hpp"

namespace perfbench {

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Error(const std::string& message) { errors_.push_back(message); }

double Report::Get(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"correct\":" << (errors_.empty() ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    out << (i ? "," : "") << '"' << metrics_[i].name << "\":{\"value\":"
        << value << ",\"unit\":\"" << metrics_[i].unit << "\"}";
  }
  out << "},\"errors\":[";
  for (std::size_t i = 0; i < errors_.size() && i < 20; ++i) {
    out << (i ? "," : "") << ces::support::JsonQuote(errors_[i]);
  }
  out << "]}";
  return out.str();
}

std::uint64_t SeedRng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessPeakRssMb(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // "VmHWM:  1234 kB"
    }
  }
  return 0.0;
}

std::vector<std::vector<std::string>> ReadTable(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::vector<std::string> row;
    for (std::string field; fields >> field;) row.push_back(field);
    if (!row.empty()) rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace perfbench
