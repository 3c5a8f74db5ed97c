#include "trace/strip.hpp"

#include <algorithm>
#include <unordered_map>

#include "support/check.hpp"
#include "trace/trace_view.hpp"

namespace ces::trace {

namespace {

// Shared by the streaming entry points: the shift that re-blocks word
// addresses into line addresses, validated exactly like WithLineSize.
std::uint32_t LineShift(std::uint32_t words_per_line) {
  CES_CHECK(words_per_line != 0);
  CES_CHECK((words_per_line & (words_per_line - 1)) == 0);
  std::uint32_t shift = 0;
  while ((1u << shift) < words_per_line) ++shift;
  return shift;
}

std::uint32_t BlockedAddressBits(std::uint32_t address_bits,
                                 std::uint32_t shift) {
  return address_bits > shift ? address_bits - shift : 1;
}

}  // namespace

Trace WithLineSize(const Trace& trace, std::uint32_t words_per_line) {
  CES_CHECK(words_per_line != 0);
  CES_CHECK((words_per_line & (words_per_line - 1)) == 0);
  std::uint32_t shift = 0;
  while ((1u << shift) < words_per_line) ++shift;

  Trace out;
  out.kind = trace.kind;
  out.name = trace.name;
  out.address_bits = trace.address_bits > shift ? trace.address_bits - shift : 1;
  out.refs.reserve(trace.refs.size());
  for (std::uint32_t ref : trace.refs) out.refs.push_back(ref >> shift);
  return out;
}

StrippedTrace Strip(const Trace& trace) {
  StrippedTrace out;
  out.address_bits = trace.address_bits;
  out.ids.reserve(trace.refs.size());
  out.is_first.reserve(trace.refs.size());

  std::unordered_map<std::uint32_t, std::uint32_t> id_of;
  id_of.reserve(trace.refs.size() / 4 + 16);
  for (std::uint32_t ref : trace.refs) {
    const auto [it, inserted] =
        id_of.try_emplace(ref, static_cast<std::uint32_t>(out.unique.size()));
    if (inserted) out.unique.push_back(ref);
    out.ids.push_back(it->second);
    out.is_first.push_back(inserted);
  }
  return out;
}

StrippedTrace Strip(const TraceView& view, std::uint32_t line_words) {
  const std::uint32_t shift = LineShift(line_words);
  StrippedTrace out;
  out.address_bits = BlockedAddressBits(view.address_bits(), shift);
  const auto total = static_cast<std::size_t>(view.size());
  out.ids.reserve(total);
  out.is_first.reserve(total);

  std::unordered_map<std::uint32_t, std::uint32_t> id_of;
  id_of.reserve(total / 4 + 16);
  view.ForEachChunk([&](const std::uint32_t* refs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t ref = refs[i] >> shift;
      const auto [it, inserted] = id_of.try_emplace(
          ref, static_cast<std::uint32_t>(out.unique.size()));
      if (inserted) out.unique.push_back(ref);
      out.ids.push_back(it->second);
      out.is_first.push_back(inserted);
    }
  });
  return out;
}

TraceStats ComputeStats(const Trace& trace) {
  return ComputeStats(Strip(trace));
}

TraceStats ComputeStats(const TraceView& view, std::uint32_t line_words) {
  const std::uint32_t shift = LineShift(line_words);
  TraceStats stats;
  std::unordered_map<std::uint32_t, std::uint32_t> id_of;
  // max_misses counts warm positions whose id differs from the immediate
  // predecessor, so a running previous id is all the per-position state the
  // pass needs — the unique table is the only growing structure.
  std::uint32_t previous_id = 0;
  bool have_previous = false;
  view.ForEachChunk([&](const std::uint32_t* refs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t ref = refs[i] >> shift;
      const auto [it, inserted] = id_of.try_emplace(
          ref, static_cast<std::uint32_t>(id_of.size()));
      ++stats.n;
      if (!inserted && have_previous && it->second != previous_id) {
        ++stats.max_misses;
      }
      previous_id = it->second;
      have_previous = true;
    }
  });
  stats.n_unique = id_of.size();
  return stats;
}

TraceStats ComputeStats(const StrippedTrace& stripped) {
  TraceStats stats;
  stats.n = stripped.size();
  stats.n_unique = stripped.unique_count();
  // A direct-mapped cache of depth 1 holds exactly the last reference, so a
  // non-cold access hits iff it repeats its immediate predecessor.
  for (std::size_t j = 1; j < stripped.ids.size(); ++j) {
    if (!stripped.is_first[j] && stripped.ids[j] != stripped.ids[j - 1]) {
      ++stats.max_misses;
    }
  }
  return stats;
}

std::uint32_t SignificantAddressBits(const StrippedTrace& stripped) {
  if (stripped.unique.empty()) return 0;
  std::uint32_t differing = 0;
  const std::uint32_t base = stripped.unique.front();
  for (std::uint32_t addr : stripped.unique) differing |= addr ^ base;
  std::uint32_t bits = 0;
  while (differing >> bits) ++bits;
  return bits;
}

OccupiedSets NumberOccupiedSets(const StrippedTrace& stripped,
                                std::uint32_t index_bits) {
  const std::uint32_t mask = index_bits >= 32 ? ~0u : (1u << index_bits) - 1;
  // Sorting set << 32 | id groups the ids of each set in set order.
  std::vector<std::uint64_t> keys(stripped.unique_count());
  for (std::uint32_t id = 0; id < keys.size(); ++id) {
    keys[id] = std::uint64_t{stripped.unique[id] & mask} << 32 | id;
  }
  std::sort(keys.begin(), keys.end());
  OccupiedSets sets;
  sets.set_of.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i == 0 || keys[i] >> 32 != keys[i - 1] >> 32) ++sets.count;
    sets.set_of[static_cast<std::uint32_t>(keys[i])] =
        static_cast<std::uint32_t>(sets.count - 1);
  }
  return sets;
}

}  // namespace ces::trace
