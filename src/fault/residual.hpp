// Mask-level residual application of per-word error correction.
//
// In LIM the computation happens in place, so ECC protects the stored
// weights between operations (by scrubbing), not the XNOR evaluation
// itself. An ECC scrub walks the stored cells word by word and repairs
// every word whose fault count is within the configured code's correction
// radius; what remains is the *residual* fault mask the workload actually
// sees. The word walk itself is codec-agnostic -- only the correction
// radius differs between a SEC-DED scrub (1 repairable fault per word) and,
// say, a BCH t=2 scrub -- so it lives here in fault/, below reliability/:
// callers take the radius from a registry codec's
// Capability::correct_guarantee (reliability/ecc/codec.hpp), and the
// lifetime simulator's SEC-DED scrub passes 1.
#pragma once

#include <cstdint>

#include "fault/fault_mask.hpp"
#include "fault/fault_vector_file.hpp"

namespace flim::fault {

/// Word organization and correction radius of one scrub pass.
struct ResidualOptions {
  /// Data cells per ECC word.
  int word_bits = 64;
  /// Bit interleaving degree: adjacent columns of one row belong to
  /// different ECC words, so a physical burst spreads over several words.
  int interleave = 1;
  /// Faults per word the code repairs (1 = SEC-DED, t for BCH).
  int correct_per_word = 1;
};

/// Tallies of one residual pass.
struct ResidualStats {
  std::int64_t words = 0;
  std::int64_t clean_words = 0;
  std::int64_t corrected_words = 0;
  std::int64_t uncorrectable_words = 0;
  std::int64_t faulty_bits_before = 0;
  std::int64_t faulty_bits_after = 0;
};

/// Scrubs `mask`: cells of each row are split into interleave lanes,
/// chunked into words of word_bits cells (the final word may be short), and
/// every word with 1..correct_per_word faulty cells is cleared on all
/// planes. Words with more faults keep them. The parity cells themselves
/// are modeled as fault-free spare columns (the optimistic textbook
/// assumption; docs/ecc.md discusses it and the exhaustive enumeration
/// measures the codecs without it).
FaultMask apply_word_residual(const FaultMask& mask,
                              const ResidualOptions& options,
                              ResidualStats* stats = nullptr);

/// Residual application over one fault-vector entry: scrubs the *physical*
/// word -- the union of every component's planes, so a word holding faults
/// from two components is uncorrectable even when each component alone
/// looks in-radius -- and then clears per-component bits only at the slots
/// the combined scrub repaired. For a one-component entry this equals
/// apply_word_residual on the component's mask.
void apply_entry_residual(FaultVectorEntry& entry,
                          const ResidualOptions& options,
                          ResidualStats* stats = nullptr);

}  // namespace flim::fault
