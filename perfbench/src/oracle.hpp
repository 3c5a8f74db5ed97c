// Independent answer checker for the benchmark.
//
// Nothing here includes a repository header: the checker re-derives every
// number it compares from the raw reference sequence with its own code —
// a hash-map strip (N, N', max-misses), and a small set-associative LRU
// simulator — so a fault in the explorer cannot hide behind a shared
// helper. It checks the paper's contract for an answer to a miss budget K:
// for every point (D, A), the reported warm-miss count equals the simulated
// one and is <= K, one way fewer misses more than K, and A never increases
// with D or with K.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::oracle {

struct Point {
  std::uint32_t depth = 0;
  std::uint32_t assoc = 0;
  std::uint64_t warm_misses = 0;
};

// One solved budget: the fraction asked for, the K the explorer derived
// from it, and one point per depth 2^0 .. 2^L in depth order.
struct Answer {
  double fraction = 0.0;
  std::uint64_t k = 0;
  std::vector<Point> points;
};

struct TraceCounts {
  std::uint64_t n = 0;           // references
  std::uint64_t n_unique = 0;    // distinct addresses N'
  std::uint64_t max_misses = 0;  // warm misses of a 1-set, 1-way cache
  std::uint32_t varying_bits = 0;  // address bits that differ across N'
};

TraceCounts Count(const std::vector<std::uint32_t>& refs);

// Warm (non-cold) misses of every associativity 1..max_assoc of a
// depth-set LRU cache indexed by the low address bits, from one simulation
// of the depth x max_assoc cache: an access found at recency position p
// hits in every cache with more than p ways (LRU inclusion).
// result[a] is the count for a ways; result[0] is unused.
std::vector<std::uint64_t> SimulateWarmMisses(
    const std::vector<std::uint32_t>& refs, std::uint32_t depth,
    std::uint32_t max_assoc);

// Checks the answers for one trace explored with the given depth cap;
// answers must be in increasing fraction order. Returns one message per
// violation (empty when the answers hold).
std::vector<std::string> CheckAnswers(const std::vector<std::uint32_t>& refs,
                                      std::uint32_t max_index_bits,
                                      const std::vector<Answer>& answers);

// Reads a raw CTRC file (20-byte header, little-endian u32 references).
// Throws std::runtime_error on a short or malformed file.
std::vector<std::uint32_t> ReadCtrc(const std::string& path);

// A deliberately wrong copy of `answer`: the first point that can lose a
// way loses one (its miss count then exceeds K), otherwise the first point
// reports one miss more. Used by the checker's self-test.
Answer Corrupt(const Answer& answer);

}  // namespace perfbench::oracle
