#include "analytic/fast.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>

#include "support/check.hpp"
#include "support/fenwick.hpp"
#include "support/metrics.hpp"
#include "support/pool.hpp"
#include "support/simd.hpp"

namespace ces::analytic {
namespace {

// One implicit BCAT node: its level and the contiguous segment of the
// level-parity id buffer holding its subsequence of the trace.
struct Frame {
  std::uint32_t level;
  std::size_t begin;
  std::size_t end;
};

// Distance tallies for a contiguous band of levels [base, base + hist.size()).
// The whole-traversal tallies use base 0; each parallel chunk tallies the
// levels below the cut into a private instance that is merged afterwards.
struct LevelTallies {
  std::uint32_t base = 0;
  std::vector<std::vector<std::uint64_t>> hist;  // hist[level - base][distance]
  std::vector<std::uint64_t> counted;            // distances >= 1 tallied
  std::uint64_t nodes = 0;                       // node scans performed
  std::uint64_t refs = 0;                        // references scanned
};

// Mutable per-lane scan state; one lane per pool chunk plus the lane the
// calling thread uses for the serial top of the tree. Everything is sized in
// Setup() and only reused afterwards.
struct LaneScratch {
  std::vector<Frame> frames;           // explicit DFS stack
  std::vector<std::uint32_t> mtf;      // kFused: move-to-front stack
  std::vector<std::int64_t> fenwick;   // kFusedTree: BIT over node positions
  std::uint32_t epoch = 0;             // kFusedTree: current node's epoch
};

constexpr std::uint32_t kNoCollect = ~0u;

std::uint32_t ReverseBits(std::uint32_t x) {
  x = ((x >> 1) & 0x55555555u) | ((x & 0x55555555u) << 1);
  x = ((x >> 2) & 0x33333333u) | ((x & 0x33333333u) << 2);
  x = ((x >> 4) & 0x0F0F0F0Fu) | ((x & 0x0F0F0F0Fu) << 4);
  x = ((x >> 8) & 0x00FF00FFu) | ((x & 0x00FF00FFu) << 8);
  return (x >> 16) | (x << 16);
}

class FusedTraversal {
 public:
  FusedTraversal(const trace::StrippedTrace& stripped,
                 std::uint32_t max_index_bits, bool use_tree,
                 const FusedPreludeOptions& options)
      : stripped_(stripped),
        unique_(stripped.unique),
        max_bits_(max_index_bits),
        use_tree_(use_tree),
        options_(options),
        kernels_(support::simd::ActiveKernels()) {}

  std::vector<cache::StackProfile> Run() {
    std::vector<cache::StackProfile> profiles(max_bits_ + 1);
    for (std::uint32_t level = 0; level <= max_bits_; ++level) {
      profiles[level].index_bits = level;
      profiles[level].cold = stripped_.unique_count();
      profiles[level].hist.resize(1, 0);
    }
    if (stripped_.size() == 0) {
      if (options_.after_setup) options_.after_setup();
      return profiles;
    }

    Setup();
    if (options_.after_setup) options_.after_setup();
    // --- no heap allocation below this line (tests/fused_alloc_test.cpp) ---

    if (cut_ == 0) {
      Traverse({0, 0, stripped_.size()}, serial_lane_, main_, kNoCollect);
    } else {
      // Phase 1: the calling thread partitions (and scans) the top of the
      // tree down to the cut, collecting the surviving level-cut subtrees in
      // left-to-right segment order.
      Traverse({0, 0, stripped_.size()}, serial_lane_, main_, cut_);
      // Phase 2: contiguous, length-balanced runs of subtrees fan out onto
      // the pool. Subtrees own disjoint segments (an address belongs to
      // exactly one residue class mod 2^cut), so lanes never touch the same
      // buffer elements or — for the tree scan — the same per-id slots.
      PlanChunks();
      pool_jobs_ = options_.pool->jobs();
      options_.pool->ParallelFor(
          pool_jobs_, [this](std::size_t chunk) { RunChunk(chunk); });
      // Merge in chunk order == subtree order: uint64 adds are associative
      // and commutative, so the totals equal the serial traversal's exactly.
      for (std::size_t chunk = 0; chunk < pool_jobs_; ++chunk) {
        const LevelTallies& t = chunk_tallies_[chunk];
        for (std::uint32_t level = cut_; level <= max_bits_; ++level) {
          const auto& partial = t.hist[level - cut_];
          auto& total = main_.hist[level];
          for (std::size_t d = 0; d < partial.size(); ++d) {
            total[d] += partial[d];
          }
          main_.counted[level] += t.counted[level - cut_];
        }
        main_.nodes += t.nodes;
        main_.refs += t.refs;
      }
    }

    // Distance-0 bucket: every non-cold occurrence not tallied above hits at
    // any associativity (distance zero in its row, or the row was pruned).
    // Trimming to the last non-empty distance reproduces the canonical hist
    // sizes of the per-depth baseline, so profiles compare equal across
    // engines, prelude modes, and jobs values.
    const std::uint64_t warm_total = stripped_.warm_count();
    for (std::uint32_t level = 0; level <= max_bits_; ++level) {
      CES_CHECK(main_.counted[level] <= warm_total);
      std::vector<std::uint64_t>& hist = main_.hist[level];
      std::size_t size = 1;
      for (std::size_t d = hist.size(); d-- > 1;) {
        if (hist[d] != 0) {
          size = d + 1;
          break;
        }
      }
      hist.resize(size);
      hist[0] = warm_total - main_.counted[level];
      profiles[level].hist = std::move(hist);
    }

    if (options_.metrics != nullptr) {
      // Guarded so a null registry costs no name-string construction — the
      // allocation test runs the whole of Run() under its counter.
      options_.metrics->Add("explore.fused_nodes", main_.nodes);
      options_.metrics->Add("explore.fused_refs", main_.refs);
      // The cut is a function of the pool size, so it lives with the
      // volatile gauges — never in the deterministic counter surface CI
      // diffs.
      options_.metrics->SetGauge("explore.cut_level", cut_);
      // Which kernel table ran (support::simd::Level). Host- and
      // environment-dependent, hence a gauge too; the results it produces
      // are byte-identical either way.
      options_.metrics->SetGauge(
          "explore.simd_kernel",
          static_cast<std::uint64_t>(kernels_.level));
    }
    return profiles;
  }

 private:
  // Upper bound on any stack distance tallied at `level`: a node there holds
  // the occurrences of the unique lines agreeing on the low `level` address
  // bits, so no distance can reach the population of the fullest residue
  // class. Used to pre-size every histogram exactly once. Sorted by their
  // bit-reversed value, the unique addresses of one residue class mod
  // 2^level form a contiguous run (their keys share the top `level` bits),
  // so each population is a run length over the common-prefix lengths of
  // neighbouring keys: O(N' log N' + N' * levels), whatever 2^level is.
  std::vector<std::size_t> MaxDistinctPerLevel() const {
    std::vector<std::uint32_t> keys(unique_.size());
    std::transform(unique_.begin(), unique_.end(), keys.begin(), ReverseBits);
    std::sort(keys.begin(), keys.end());
    // shared[i]: leading bits keys[i - 1] and keys[i] agree on; always < 32
    // because unique addresses are distinct.
    std::vector<std::uint8_t> shared(keys.size(), 0);
    for (std::size_t i = 1; i < keys.size(); ++i) {
      shared[i] =
          static_cast<std::uint8_t>(std::countl_zero(keys[i - 1] ^ keys[i]));
    }
    std::vector<std::size_t> caps(max_bits_ + 1, 0);
    for (std::uint32_t level = 0; level <= max_bits_; ++level) {
      std::size_t run = 0;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        run = i > 0 && shared[i] >= level ? run + 1 : 1;
        caps[level] = std::max(caps[level], run);
      }
    }
    return caps;
  }

  void Setup() {
    const std::size_t n = stripped_.size();
    const unsigned jobs = options_.pool == nullptr ? 1 : options_.pool->jobs();
    if (jobs > 1 && max_bits_ > 0) {
      const std::uint64_t want =
          std::uint64_t{jobs} * std::max(options_.overpartition, 1u);
      while ((std::uint64_t{1} << cut_) < want && cut_ < max_bits_) ++cut_;
    }

    caps_ = MaxDistinctPerLevel();
    bufs_[0] = stripped_.ids;
    bufs_[1].assign(n, 0);
    // SoA address lanes mirroring the id buffers: addr_bufs_[b][i] ==
    // unique_[bufs_[b][i]] holds at every point of the traversal because the
    // partition permutes both lanes identically. The split-bit count and the
    // partition read this lane sequentially instead of gathering
    // unique_[id] per element, so their reads and writes stream.
    addr_bufs_[0].resize(n);
    addr_bufs_[1].assign(n, 0);
    if (stripped_.unique_count() < (std::uint64_t{1} << 31)) {
      kernels_.gather(bufs_[0].data(), n, unique_.data(),
                      addr_bufs_[0].data());
    } else {
      // vpgatherdd indices are signed, so an id >= 2^31 would wrap; fill
      // the lane scalar for such traces instead of corrupting it.
      for (std::size_t i = 0; i < n; ++i) {
        addr_bufs_[0][i] = unique_[bufs_[0][i]];
      }
    }

    main_.base = 0;
    main_.hist.resize(max_bits_ + 1);
    for (std::uint32_t level = 0; level <= max_bits_; ++level) {
      main_.hist[level].assign(caps_[level], 0);
    }
    main_.counted.assign(max_bits_ + 1, 0);

    serial_lane_.frames.reserve(2 * (max_bits_ + 2));
    if (use_tree_) {
      epoch_of_.assign(stripped_.unique_count(), 0);
      last_pos_.assign(stripped_.unique_count(), 0);
      serial_lane_.fenwick.assign(n + 1, 0);
    } else {
      serial_lane_.mtf.reserve(stripped_.unique_count());
    }

    if (cut_ > 0) {
      subtrees_.reserve(std::size_t{1} << cut_);
      // Longest possible level-cut segment: occurrences (not uniques) of the
      // fullest residue class mod 2^cut — the size every chunk lane's scan
      // scratch must accommodate.
      std::vector<std::size_t> occupancy(std::size_t{1} << cut_, 0);
      const std::uint32_t mask = (1u << cut_) - 1;
      std::size_t max_segment = 0;
      for (std::uint32_t id : stripped_.ids) {
        max_segment = std::max(max_segment, ++occupancy[unique_[id] & mask]);
      }
      chunk_bounds_.assign(jobs + 1, 0);
      chunk_lanes_.resize(jobs);
      chunk_tallies_.resize(jobs);
      for (unsigned chunk = 0; chunk < jobs; ++chunk) {
        LaneScratch& lane = chunk_lanes_[chunk];
        lane.frames.reserve(2 * (max_bits_ + 2));
        if (use_tree_) {
          lane.fenwick.assign(max_segment + 1, 0);
        } else {
          lane.mtf.reserve(std::min(caps_[cut_], max_segment));
        }
        LevelTallies& tallies = chunk_tallies_[chunk];
        tallies.base = cut_;
        tallies.hist.resize(max_bits_ + 1 - cut_);
        for (std::uint32_t level = cut_; level <= max_bits_; ++level) {
          tallies.hist[level - cut_].assign(caps_[level], 0);
        }
        tallies.counted.assign(max_bits_ + 1 - cut_, 0);
      }
    }
  }

  // Scans one node, tallying distances >= 1 into `tallies`, and counts the
  // bit-B_level zeros so the caller can partition without re-deriving the
  // split. The zero count is a dedicated vectorizable pass over the SoA
  // address lane (dispatched through support::simd), which strips the
  // per-element branch out of the stack-distance loop below. Returns
  // {distinct references in the node, size of the left child}.
  std::pair<std::size_t, std::size_t> ScanNode(const Frame& node,
                                               LaneScratch& lane,
                                               LevelTallies& tallies) {
    const std::vector<std::uint32_t>& src = bufs_[node.level & 1];
    std::vector<std::uint64_t>& hist = tallies.hist[node.level - tallies.base];
    std::uint64_t& counted = tallies.counted[node.level - tallies.base];
    ++tallies.nodes;
    tallies.refs += node.end - node.begin;
    // At the deepest level the split bit is never used; keep the shift in
    // range regardless of address width.
    const std::uint32_t shift = node.level < max_bits_ ? node.level : 0;
    const std::size_t len = node.end - node.begin;
    const std::size_t n_left = kernels_.count_zero_bits(
        addr_bufs_[node.level & 1].data() + node.begin, len, shift);
    std::size_t distinct = 0;

    if (!use_tree_) {
      // Move-to-front scan: stack position == number of distinct references
      // of this row touched since the previous occurrence. One backward
      // shift both searches for the id and slides the displaced prefix, so
      // each element is loaded and stored exactly once (the former
      // std::find + std::rotate pair traversed the prefix twice).
      std::vector<std::uint32_t>& stack = lane.mtf;
      stack.clear();
      for (std::size_t i = node.begin; i < node.end; ++i) {
        const std::uint32_t id = src[i];
        std::uint32_t carry = id;
        std::size_t distance = stack.size();
        for (std::size_t d = 0; d < stack.size(); ++d) {
          const std::uint32_t displaced = stack[d];
          stack[d] = carry;
          if (displaced == id) {
            distance = d;
            break;
          }
          carry = displaced;
        }
        if (distance == stack.size()) {
          stack.push_back(carry);  // cold occurrence; capacity reserved
          continue;
        }
        if (distance >= 1) {
          CES_DCHECK(distance < hist.size());
          ++hist[distance];
          ++counted;
        }
      }
      distinct = stack.size();
    } else {
      // Bennett-Kruskal: a Fenwick tree of "most recent occurrence" marks
      // over the node positions; the distance is a range sum. Node-local
      // "seen" state uses epoch stamping so nothing needs clearing between
      // nodes; lanes share the per-id arrays because their subtrees hold
      // disjoint ids. The per-id mark lanes (epoch, last position, and the
      // Fenwick slot the previous occurrence touches) are random-access —
      // software prefetch hides their latency a few references ahead.
      constexpr std::size_t kIdAhead = 8;    // per-id lanes: two cache loads
      constexpr std::size_t kMarkAhead = 4;  // Fenwick slot: needs last_pos_
      ++lane.epoch;
      FenwickView marks(lane.fenwick.data(), len);
      for (std::size_t pos = 0; pos < len; ++pos) {
        if (pos + kIdAhead < len) {
          const std::uint32_t ahead = src[node.begin + pos + kIdAhead];
          support::simd::PrefetchRead(&epoch_of_[ahead]);
          support::simd::PrefetchRead(&last_pos_[ahead]);
        }
        if (pos + kMarkAhead < len) {
          // last_pos_ may be stale for this id (another node set it), but a
          // stale slot is still inside the lane's Fenwick buffer, so the
          // prefetch is at worst useless, never wrong.
          const std::uint32_t ahead = src[node.begin + pos + kMarkAhead];
          if (epoch_of_[ahead] == lane.epoch) {
            support::simd::PrefetchRead(&lane.fenwick[last_pos_[ahead] + 1]);
          }
        }
        const std::uint32_t id = src[node.begin + pos];
        if (epoch_of_[id] == lane.epoch) {
          const std::size_t p = last_pos_[id];
          const auto distance = static_cast<std::size_t>(
              pos >= p + 2 ? marks.RangeSum(p + 1, pos - 1) : 0);
          if (distance >= 1) {
            CES_DCHECK(distance < hist.size());
            ++hist[distance];
            ++counted;
          }
          marks.Add(p, -1);
        } else {
          epoch_of_[id] = lane.epoch;
          ++distinct;
        }
        marks.Add(pos, +1);
        last_pos_[id] = pos;
      }
      marks.Clear();
    }
    return {distinct, n_left};
  }

  // Stable binary radix partition of the node's segment into the twin
  // buffer: the left child (bit B_level == 0) lands at [begin, begin+n_left),
  // the right child at [begin+n_left, end). Children read the twin buffer —
  // the parity rule "level L lives in bufs_[L & 1]" holds globally because
  // every node only ever writes inside its own segment (the dispatched
  // kernels guarantee the same containment: masked stores never touch a
  // byte outside the two runs). The id and address lanes are permuted
  // identically, which is what preserves the SoA mirror invariant.
  void Partition(const Frame& node, std::size_t n_left) {
    const std::size_t parity = node.level & 1;
    const std::size_t twin = parity ^ 1;
    const std::size_t mid = node.begin + n_left;
    kernels_.partition_pair(
        bufs_[parity].data() + node.begin,
        addr_bufs_[parity].data() + node.begin, node.end - node.begin,
        node.level, bufs_[twin].data() + node.begin,
        addr_bufs_[twin].data() + node.begin, bufs_[twin].data() + mid,
        addr_bufs_[twin].data() + mid);
  }

  // Iterative DFS from `root`. Frames reaching `collect_level` are appended
  // to subtrees_ (in increasing segment order, because children are pushed
  // right-then-left) instead of being scanned; kNoCollect runs the subtree
  // to the leaves.
  void Traverse(Frame root, LaneScratch& lane, LevelTallies& tallies,
                std::uint32_t collect_level) {
    lane.frames.clear();
    lane.frames.push_back(root);
    while (!lane.frames.empty()) {
      const Frame node = lane.frames.back();
      lane.frames.pop_back();
      if (node.level == collect_level) {
        subtrees_.push_back(node);
        continue;
      }
      const auto [distinct, n_left] = ScanNode(node, lane, tallies);
      // Rows with fewer than two distinct references can never conflict at
      // any deeper level either (their subsets only shrink) — prune, as
      // Algorithm 1 does for BCAT growth.
      if (distinct < 2 || node.level >= max_bits_) continue;
      Partition(node, n_left);
      const std::size_t mid = node.begin + n_left;
      if (mid < node.end) {
        lane.frames.push_back({node.level + 1, mid, node.end});
      }
      if (node.begin < mid) {
        lane.frames.push_back({node.level + 1, node.begin, mid});
      }
    }
  }

  // Contiguous, reference-count-balanced assignment of subtrees to chunks.
  // Contiguity is what lets the chunk-order merge equal the subtree-order
  // (and hence serial) sums; the balancing only moves wall-clock time.
  void PlanChunks() {
    const std::size_t jobs = chunk_bounds_.size() - 1;
    std::uint64_t total = 0;
    for (const Frame& subtree : subtrees_) total += subtree.end - subtree.begin;
    std::uint64_t taken = 0;
    std::size_t next = 0;
    for (std::size_t chunk = 0; chunk < jobs; ++chunk) {
      chunk_bounds_[chunk] = next;
      const std::uint64_t target = total * (chunk + 1) / jobs;
      while (next < subtrees_.size() && taken < target) {
        taken += subtrees_[next].end - subtrees_[next].begin;
        ++next;
      }
    }
    chunk_bounds_[jobs] = subtrees_.size();
  }

  void RunChunk(std::size_t chunk) {
    LaneScratch& lane = chunk_lanes_[chunk];
    // Epochs above everything phase 1 stamped: a lane may then share the
    // per-id arrays with phase 1 (and, because subtree ids are disjoint,
    // with every other lane) without clearing them.
    lane.epoch = static_cast<std::uint32_t>(main_.nodes);
    for (std::size_t s = chunk_bounds_[chunk]; s < chunk_bounds_[chunk + 1];
         ++s) {
      Traverse(subtrees_[s], lane, chunk_tallies_[chunk], kNoCollect);
    }
  }

  const trace::StrippedTrace& stripped_;
  const std::vector<std::uint32_t>& unique_;
  const std::uint32_t max_bits_;
  const bool use_tree_;
  const FusedPreludeOptions& options_;

  const support::simd::Kernels& kernels_;
  std::uint32_t cut_ = 0;
  std::size_t pool_jobs_ = 1;
  std::vector<std::size_t> caps_;
  std::vector<std::uint32_t> bufs_[2];
  std::vector<std::uint32_t> addr_bufs_[2];  // SoA twin: unique_[id] per slot
  std::vector<std::uint32_t> epoch_of_;  // per id: epoch of last sighting
  std::vector<std::size_t> last_pos_;    // per id: position within the node
  LevelTallies main_;
  LaneScratch serial_lane_;
  std::vector<Frame> subtrees_;
  std::vector<std::size_t> chunk_bounds_;
  std::vector<LaneScratch> chunk_lanes_;
  std::vector<LevelTallies> chunk_tallies_;
};

}  // namespace

std::vector<cache::StackProfile> ComputeMissProfilesFused(
    const trace::StrippedTrace& stripped, std::uint32_t max_index_bits,
    const FusedPreludeOptions& options) {
  return FusedTraversal(stripped, max_index_bits, /*use_tree=*/false, options)
      .Run();
}

std::vector<cache::StackProfile> ComputeMissProfilesFusedTree(
    const trace::StrippedTrace& stripped, std::uint32_t max_index_bits,
    const FusedPreludeOptions& options) {
  return FusedTraversal(stripped, max_index_bits, /*use_tree=*/true, options)
      .Run();
}

}  // namespace ces::analytic
