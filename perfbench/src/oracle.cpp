#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench::oracle {
namespace {

// Dense ids in order of first appearance plus the address of each id.
struct Dense {
  std::vector<std::uint32_t> ids;
  std::vector<std::uint32_t> address;
};

Dense Densify(const std::vector<std::uint32_t>& refs) {
  Dense dense;
  dense.ids.reserve(refs.size());
  std::unordered_map<std::uint32_t, std::uint32_t> index;
  index.reserve(refs.size() / 4 + 16);
  for (std::uint32_t ref : refs) {
    const auto [it, inserted] =
        index.emplace(ref, static_cast<std::uint32_t>(dense.address.size()));
    if (inserted) dense.address.push_back(ref);
    dense.ids.push_back(it->second);
  }
  return dense;
}

std::string Describe(const Answer& answer, const Point& point) {
  char text[160];
  std::snprintf(text, sizeof(text), "fraction %.2f (K=%llu) depth %u assoc %u",
                answer.fraction, static_cast<unsigned long long>(answer.k),
                point.depth, point.assoc);
  return text;
}

}  // namespace

TraceCounts Count(const std::vector<std::uint32_t>& refs) {
  TraceCounts counts;
  const Dense dense = Densify(refs);
  counts.n = refs.size();
  counts.n_unique = dense.address.size();
  std::uint64_t misses = 0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (i == 0 || refs[i] != refs[i - 1]) ++misses;
  }
  counts.max_misses = misses - counts.n_unique;
  std::uint32_t differing = 0;
  for (std::uint32_t address : dense.address) {
    differing |= address ^ dense.address.front();
  }
  while (counts.varying_bits < 32 && (differing >> counts.varying_bits) != 0) {
    ++counts.varying_bits;
  }
  return counts;
}

std::vector<std::uint64_t> SimulateWarmMisses(
    const std::vector<std::uint32_t>& refs, std::uint32_t depth,
    std::uint32_t max_assoc) {
  const Dense dense = Densify(refs);
  // Compact set numbers: only sets some address maps to get storage.
  std::vector<std::uint32_t> set_of(dense.address.size());
  std::unordered_map<std::uint32_t, std::uint32_t> sets;
  for (std::size_t id = 0; id < dense.address.size(); ++id) {
    const std::uint32_t index = dense.address[id] & (depth - 1);
    set_of[id] = sets.emplace(index, static_cast<std::uint32_t>(sets.size()))
                     .first->second;
  }
  // ways[s * max_assoc + p]: the line at recency position p of set s.
  std::vector<std::uint32_t> ways(sets.size() * std::size_t{max_assoc});
  std::vector<std::uint32_t> fill(sets.size(), 0);
  std::vector<bool> seen(dense.address.size(), false);
  // found_at[p]: warm accesses found at recency position p;
  // found_at[max_assoc]: warm accesses not resident at all.
  std::vector<std::uint64_t> found_at(std::size_t{max_assoc} + 1, 0);
  for (std::uint32_t id : dense.ids) {
    const std::uint32_t set = set_of[id];
    std::uint32_t* lines = &ways[std::size_t{set} * max_assoc];
    std::uint32_t& used = fill[set];
    std::uint32_t position = 0;
    while (position < used && lines[position] != id) ++position;
    if (seen[id]) ++found_at[position == used ? max_assoc : position];
    seen[id] = true;
    if (position == used) {
      if (used < max_assoc) ++used;
      position = used - 1;  // the LRU line (if full) falls out
    }
    std::copy_backward(lines, lines + position, lines + position + 1);
    lines[0] = id;
  }
  // An access found at position p (0-based) misses in caches of <= p ways;
  // one never resident misses in all of them.
  std::vector<std::uint64_t> misses(std::size_t{max_assoc} + 1, 0);
  std::uint64_t tail = found_at[max_assoc];
  for (std::uint32_t a = max_assoc; a >= 1; --a) {
    misses[a] = tail;
    tail += found_at[a - 1];
  }
  return misses;
}

std::vector<std::string> CheckAnswers(const std::vector<std::uint32_t>& refs,
                                      std::uint32_t max_index_bits,
                                      const std::vector<Answer>& answers) {
  std::vector<std::string> errors;
  const TraceCounts counts = Count(refs);
  const std::uint32_t levels = std::min(max_index_bits, counts.varying_bits) + 1;
  for (const Answer& answer : answers) {
    const auto k = static_cast<std::uint64_t>(
        std::floor(answer.fraction * static_cast<double>(counts.max_misses)));
    if (answer.k != k) {
      errors.push_back("fraction " + std::to_string(answer.fraction) +
                       ": K is " + std::to_string(answer.k) + ", expected " +
                       std::to_string(k));
    }
    if (answer.points.size() != levels) {
      errors.push_back("fraction " + std::to_string(answer.fraction) + ": " +
                       std::to_string(answer.points.size()) +
                       " depths, expected " + std::to_string(levels));
      return errors;
    }
    for (std::uint32_t level = 0; level < levels; ++level) {
      const Point& point = answer.points[level];
      if (point.depth != (1u << level) || point.assoc == 0) {
        errors.push_back(Describe(answer, point) + ": malformed point");
        return errors;
      }
      if (level > 0 && point.assoc > answer.points[level - 1].assoc) {
        errors.push_back(Describe(answer, point) +
                         ": associativity grows with depth");
      }
    }
  }
  for (std::size_t i = 1; i < answers.size(); ++i) {
    for (std::uint32_t level = 0; level < levels; ++level) {
      if (answers[i].points[level].assoc > answers[i - 1].points[level].assoc) {
        errors.push_back(Describe(answers[i], answers[i].points[level]) +
                         ": associativity grows with K");
      }
    }
  }
  // One simulation per depth, wide enough for every associativity asked.
  for (std::uint32_t level = 0; level < levels; ++level) {
    std::uint32_t max_assoc = 1;
    for (const Answer& answer : answers) {
      max_assoc = std::max(max_assoc, answer.points[level].assoc);
    }
    const std::vector<std::uint64_t> misses =
        SimulateWarmMisses(refs, 1u << level, max_assoc);
    for (const Answer& answer : answers) {
      const Point& point = answer.points[level];
      if (point.warm_misses != misses[point.assoc]) {
        errors.push_back(Describe(answer, point) + ": reports " +
                         std::to_string(point.warm_misses) +
                         " warm misses, simulation gives " +
                         std::to_string(misses[point.assoc]));
      }
      if (misses[point.assoc] > answer.k) {
        errors.push_back(Describe(answer, point) + ": misses exceed K");
      }
      if (point.assoc > 1 && misses[point.assoc - 1] <= answer.k) {
        errors.push_back(Describe(answer, point) +
                         ": one way fewer also meets K");
      }
    }
  }
  return errors;
}

std::vector<std::uint32_t> ReadCtrc(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  unsigned char header[20];
  if (!in.read(reinterpret_cast<char*>(header), sizeof(header)) ||
      std::string(reinterpret_cast<char*>(header), 4) != "CTRC") {
    throw std::runtime_error(path + ": not a CTRC file");
  }
  auto u32 = [](const unsigned char* p) {
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
  };
  const std::uint32_t count = u32(header + 16);
  std::vector<unsigned char> bytes(std::size_t{count} * 4);
  if (!in.read(reinterpret_cast<char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()))) {
    throw std::runtime_error(path + ": truncated payload");
  }
  std::vector<std::uint32_t> refs(count);
  for (std::uint32_t i = 0; i < count; ++i) refs[i] = u32(&bytes[4 * i]);
  return refs;
}

Answer Corrupt(const Answer& answer) {
  Answer bad = answer;
  for (Point& point : bad.points) {
    if (point.assoc > 1) {
      --point.assoc;
      return bad;
    }
  }
  if (!bad.points.empty()) ++bad.points.front().warm_misses;
  return bad;
}

}  // namespace perfbench::oracle
