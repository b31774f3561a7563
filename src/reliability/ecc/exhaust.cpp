#include "reliability/ecc/exhaust.hpp"

#include <algorithm>
#include <sstream>

#include "core/check.hpp"
#include "core/journal.hpp"
#include "core/rng.hpp"
#include "core/sync.hpp"
#include "core/sysinfo.hpp"
#include "core/thread_pool.hpp"
#include "reliability/ecc/exhaust_store.hpp"
#include "reliability/ecc/registry.hpp"

namespace flim::reliability::ecc {

namespace {

constexpr std::uint64_t kFlatStride = 0x9E3779B97F4A7C15ull;

/// Percentage cell with enough digits that rare aliasing events stay
/// visible; integer inputs make this deterministic across shard layouts.
std::string pct_cell(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return core::format_double(0.0, 4);
  return core::format_double(
      100.0 * static_cast<double>(part) / static_cast<double>(whole), 4);
}

}  // namespace

std::uint64_t ncr(int n, int r) {
  FLIM_REQUIRE(n >= 0 && r >= 0, "ncr: n and r must be non-negative");
  if (r > n) return 0;
  if (r > n - r) r = n - r;
  unsigned __int128 acc = 1;
  for (int i = 1; i <= r; ++i) {
    // acc is C(n-r+i-1, i-1); this step keeps it exact: the product of i
    // consecutive integers is divisible by i!.
    acc = acc * static_cast<unsigned>(n - r + i) / static_cast<unsigned>(i);
    FLIM_REQUIRE(acc <= static_cast<unsigned __int128>(UINT64_MAX),
                 "ncr(" + std::to_string(n) + ", " + std::to_string(r) +
                     ") overflows 64 bits; the enumeration is infeasible");
  }
  return static_cast<std::uint64_t>(acc);
}

std::vector<int> unrank_combination(int n, int r, std::uint64_t rank) {
  FLIM_REQUIRE(rank < ncr(n, r), "unrank_combination: rank " +
                                     std::to_string(rank) + " out of range");
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(r));
  // Combinatorial number system, lexicographic: at each position either
  // it is the next chosen element (when rank falls inside the block of
  // combinations that include it) or we skip past that whole block.
  for (int pos = 0; r > 0; ++pos) {
    const std::uint64_t with_pos = ncr(n - pos - 1, r - 1);
    if (rank < with_pos) {
      out.push_back(pos);
      --r;
    } else {
      rank -= with_pos;
    }
  }
  return out;
}

ExhaustSpec normalize_exhaust_spec(const ExhaustSpec& spec) {
  ExhaustSpec norm = spec;
  norm.codec_expr = canonical_codec_expr(spec.codec_expr);
  FLIM_REQUIRE(norm.chunk >= 1, "exhaust: chunk size must be >= 1");
  FLIM_REQUIRE(!norm.weights.empty(),
               "exhaust: at least one error weight is required");
  std::sort(norm.weights.begin(), norm.weights.end());
  norm.weights.erase(std::unique(norm.weights.begin(), norm.weights.end()),
                     norm.weights.end());
  const int code_bits =
      CodecRegistry::instance().configure(norm.codec_expr).capability()
          .code_bits;
  for (const int w : norm.weights) {
    FLIM_REQUIRE(w >= 1 && w <= code_bits,
                 "exhaust: weight " + std::to_string(w) +
                     " outside [1, " + std::to_string(code_bits) +
                     "] for codec " + norm.codec_expr);
  }
  return norm;
}

std::string canonical_exhaust_spec(const ExhaustSpec& spec) {
  std::ostringstream os;
  os << "flim-exhaust-v" << kExhaustFormatVersion << "\n";
  os << "codec=" << spec.codec_expr << "\n";
  os << "mode=" << (spec.burst ? "burst" : "combination") << "\n";
  os << "weights=";
  for (std::size_t i = 0; i < spec.weights.size(); ++i) {
    if (i) os << ",";
    os << spec.weights[i];
  }
  os << "\n";
  os << "data_seed=" << spec.data_seed << "\n";
  os << "chunk=" << spec.chunk << "\n";
  return os.str();
}

std::string exhaust_fingerprint(const ExhaustSpec& spec) {
  return core::hash_hex(core::fnv1a64(core::code_fingerprint() + "\n" +
                                      canonical_exhaust_spec(spec)));
}

ExhaustPlan plan_exhaust(const ExhaustSpec& spec) {
  const Codec& codec = CodecRegistry::instance().configure(spec.codec_expr);
  ExhaustPlan plan;
  plan.code_bits = codec.capability().code_bits;
  std::uint64_t flat = 0;
  for (const int w : spec.weights) {
    WeightBlock block;
    block.weight = w;
    block.first = flat;
    block.placements =
        spec.burst ? static_cast<std::uint64_t>(plan.code_bits - w + 1)
                   : ncr(plan.code_bits, w);
    const std::uint64_t next = flat + block.placements;
    FLIM_REQUIRE(next >= flat, "exhaust: placement space overflows 64 bits");
    flat = next;
    plan.blocks.push_back(block);
  }
  plan.total_placements = flat;
  plan.total_chunks = (flat + spec.chunk - 1) / spec.chunk;
  return plan;
}

ChunkCounts run_exhaust_chunk(const ExhaustSpec& spec, const ExhaustPlan& plan,
                              std::uint64_t chunk_index) {
  FLIM_REQUIRE(chunk_index < plan.total_chunks,
               "exhaust: chunk index out of range");
  const Codec& codec = CodecRegistry::instance().configure(spec.codec_expr);
  const int d = codec.capability().data_bits;

  ChunkCounts out;
  out.chunk_index = chunk_index;
  const std::uint64_t begin = chunk_index * spec.chunk;
  const std::uint64_t end =
      std::min(begin + spec.chunk, plan.total_placements);

  std::size_t block_at = 0;
  WeightCounts* tally = nullptr;
  BitVec data(static_cast<std::size_t>(d), 0);
  for (std::uint64_t flat = begin; flat < end; ++flat) {
    while (flat >= plan.blocks[block_at].first +
                       plan.blocks[block_at].placements) {
      ++block_at;
      tally = nullptr;
    }
    const WeightBlock& block = plan.blocks[block_at];
    if (tally == nullptr) {
      out.counts.push_back(WeightCounts{block.weight, 0, 0, 0, 0});
      tally = &out.counts.back();
    }

    // An independent random data word per placement: the stream depends
    // only on (data_seed, flat), never on enumeration order or sharding.
    core::Rng rng(spec.data_seed + flat * kFlatStride);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(rng.uniform(2));
    }

    BitVec code = codec.encode(data);
    const std::uint64_t rank = flat - block.first;
    if (spec.burst) {
      for (int i = 0; i < block.weight; ++i) {
        code[static_cast<std::size_t>(rank) + static_cast<std::size_t>(i)] ^=
            1;
      }
    } else {
      for (const int pos :
           unrank_combination(plan.code_bits, block.weight, rank)) {
        code[static_cast<std::size_t>(pos)] ^= 1;
      }
    }

    const DecodeOutcome outcome = codec.decode(code);
    ++tally->placements;
    if (outcome.status == DecodeStatus::kDetected) {
      ++tally->detected;
    } else if (outcome.data == data) {
      ++tally->corrected;
    } else {
      ++tally->aliased;  // silently decoded to WRONG data
    }
  }
  return out;
}

ExhaustResult fold_exhaust_counts(const ExhaustSpec& spec,
                                  const ExhaustPlan& plan,
                                  const std::vector<ChunkCounts>& chunks) {
  ExhaustResult result;
  result.codec_expr = spec.codec_expr;
  result.burst = spec.burst;
  result.code_bits = plan.code_bits;
  for (const WeightBlock& block : plan.blocks) {
    result.per_weight.push_back(WeightCounts{block.weight, 0, 0, 0, 0});
  }
  std::vector<char> seen(static_cast<std::size_t>(plan.total_chunks), 0);
  for (const ChunkCounts& chunk : chunks) {
    FLIM_REQUIRE(chunk.chunk_index < plan.total_chunks,
                 "exhaust: chunk index out of range in fold");
    char& mark = seen[static_cast<std::size_t>(chunk.chunk_index)];
    FLIM_REQUIRE(mark == 0, "exhaust: chunk " +
                                std::to_string(chunk.chunk_index) +
                                " tallied twice");
    mark = 1;
    for (const WeightCounts& wc : chunk.counts) {
      WeightCounts* into = nullptr;
      for (WeightCounts& total : result.per_weight) {
        if (total.weight == wc.weight) into = &total;
      }
      FLIM_REQUIRE(into != nullptr,
                   "exhaust: chunk tallies an unplanned weight " +
                       std::to_string(wc.weight));
      into->placements += wc.placements;
      into->corrected += wc.corrected;
      into->detected += wc.detected;
      into->aliased += wc.aliased;
    }
  }
  return result;
}

core::Table ExhaustResult::to_table() const {
  core::Table table({burst ? "burst_len" : "weight", "placements",
                     "corrected", "detected", "aliased", "corrected_%",
                     "detected_%", "aliased_%"});
  for (const WeightCounts& wc : per_weight) {
    table.add(wc.weight, wc.placements, wc.corrected, wc.detected, wc.aliased,
              pct_cell(wc.corrected, wc.placements),
              pct_cell(wc.detected, wc.placements),
              pct_cell(wc.aliased, wc.placements));
  }
  return table;
}

ExhaustResult run_exhaust(const ExhaustSpec& raw_spec,
                          const std::string& store_path, int shard_index,
                          int shard_count, int jobs) {
  core::check_shard(shard_index, shard_count);
  const ExhaustSpec spec = normalize_exhaust_spec(raw_spec);
  const ExhaustPlan plan = plan_exhaust(spec);
  FLIM_REQUIRE(!store_path.empty() || shard_count == 1,
               "exhaust: a sharded run needs a durable store (pass a store "
               "path so the shards can be merged)");

  std::vector<ChunkCounts> done;
  std::unique_ptr<ExhaustStoreWriter> writer;
  if (!store_path.empty()) {
    // The journal's fresh-start rule decides between resume and create.
    if (core::journal_to_resume(store_path, kExhaustHeaderTag,
                                "exhaust store")) {
      // Resume: an existing store must really be OURS -- fingerprint and
      // shard mismatches are errors, never silently overwritten.
      ExhaustFile existing = ExhaustFile::load(store_path);
      const std::string fp = exhaust_fingerprint(spec);
      FLIM_REQUIRE(existing.header.fingerprint == fp,
                   "exhaust: store '" + store_path +
                       "' was written by a different spec or build "
                       "(fingerprint " + existing.header.fingerprint +
                       " != " + fp + "); delete it to start over");
      FLIM_REQUIRE(existing.header.shard_index == shard_index &&
                       existing.header.shard_count == shard_count,
                   "exhaust: store '" + store_path + "' belongs to shard " +
                       std::to_string(existing.header.shard_index) + "/" +
                       std::to_string(existing.header.shard_count) +
                       ", not " + std::to_string(shard_index) + "/" +
                       std::to_string(shard_count));
      done = std::move(existing.chunks);
      writer = std::make_unique<ExhaustStoreWriter>(ExhaustStoreWriter::resume(
          store_path, existing.valid_prefix_bytes));
    } else {
      writer = std::make_unique<ExhaustStoreWriter>(
          store_path,
          make_exhaust_header(spec, plan, shard_index, shard_count));
    }
  }

  std::vector<char> have(static_cast<std::size_t>(plan.total_chunks), 0);
  for (const ChunkCounts& chunk : done) {
    if (chunk.chunk_index < plan.total_chunks) {
      have[static_cast<std::size_t>(chunk.chunk_index)] = 1;
    }
  }
  std::vector<std::uint64_t> pending;
  for (std::uint64_t c = 0; c < plan.total_chunks; ++c) {
    if (core::shard_owns(c, shard_index, shard_count) &&
        have[static_cast<std::size_t>(c)] == 0) {
      pending.push_back(c);
    }
  }

  std::vector<ChunkCounts> fresh_counts(pending.size());
  if (!pending.empty()) {
    // Chunks finish in any order on the pool, but the store receives them
    // in chunk order, so one command writes the same bytes at every --jobs:
    // each finisher appends the longest finished prefix of `pending` not
    // yet written. A finished chunk still waiting for an earlier one when
    // the run dies is redone on resume.
    core::Mutex append_mutex;
    std::vector<char> finished(pending.size(), 0);
    std::size_t written = 0;
    core::ThreadPool pool(static_cast<std::size_t>(jobs));
    pool.parallel_for_slotted(
        pending.size(), [&](std::size_t i, std::size_t /*slot*/) {
          fresh_counts[i] = run_exhaust_chunk(spec, plan, pending[i]);
          if (writer == nullptr) return;
          const core::MutexLock lock(append_mutex);
          finished[i] = 1;
          while (written < pending.size() && finished[written] != 0) {
            writer->append(fresh_counts[written++]);
          }
        });
  }

  done.insert(done.end(), fresh_counts.begin(), fresh_counts.end());
  return fold_exhaust_counts(spec, plan, done);
}

}  // namespace flim::reliability::ecc
