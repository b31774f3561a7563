#include "fault/residual.hpp"

#include <vector>

#include "core/check.hpp"

namespace flim::fault {

FaultMask apply_word_residual(const FaultMask& mask,
                              const ResidualOptions& options,
                              ResidualStats* stats) {
  FLIM_REQUIRE(options.word_bits > 0, "word_bits must be positive");
  FLIM_REQUIRE(options.interleave > 0, "interleave must be positive");
  FLIM_REQUIRE(options.correct_per_word > 0,
               "correct_per_word must be positive");

  FaultMask residual = mask;
  ResidualStats local;

  const std::int64_t rows = mask.rows();
  const std::int64_t cols = mask.cols();
  const auto faulty = [&](std::int64_t slot) {
    return mask.flip(slot) || mask.sa0(slot) || mask.sa1(slot);
  };

  std::vector<std::int64_t> word_slots;
  word_slots.reserve(static_cast<std::size_t>(options.word_bits));

  const auto scrub_word = [&] {
    ++local.words;
    int faulty_count = 0;
    for (const std::int64_t s : word_slots) {
      if (faulty(s)) ++faulty_count;
    }
    local.faulty_bits_before += faulty_count;
    if (faulty_count == 0) {
      ++local.clean_words;
    } else if (faulty_count <= options.correct_per_word) {
      ++local.corrected_words;
      for (const std::int64_t s : word_slots) {
        residual.set_flip(s, false);
        residual.set_sa0(s, false);
        residual.set_sa1(s, false);
      }
    } else {
      ++local.uncorrectable_words;
      local.faulty_bits_after += faulty_count;
    }
    word_slots.clear();
  };

  for (std::int64_t r = 0; r < rows; ++r) {
    for (int lane = 0; lane < options.interleave; ++lane) {
      // Cells of this row belonging to `lane`, in ascending column order,
      // chunked into words of word_bits cells (the final word may be short).
      for (std::int64_t c = lane; c < cols; c += options.interleave) {
        word_slots.push_back(r * cols + c);
        if (word_slots.size() ==
            static_cast<std::size_t>(options.word_bits)) {
          scrub_word();
        }
      }
      if (!word_slots.empty()) scrub_word();
    }
  }

  if (stats != nullptr) *stats = local;
  return residual;
}

void apply_entry_residual(FaultVectorEntry& entry,
                          const ResidualOptions& options,
                          ResidualStats* stats) {
  const FaultMask combined = entry.combined_mask();
  const FaultMask repaired = apply_word_residual(combined, options, stats);
  const auto faulty = [](const FaultMask& mask, std::int64_t slot) {
    return mask.flip(slot) || mask.sa0(slot) || mask.sa1(slot);
  };
  for (std::int64_t slot = 0; slot < combined.num_slots(); ++slot) {
    if (!faulty(combined, slot) || faulty(repaired, slot)) continue;
    for (RealizedFault& component : entry.components) {
      component.mask.set_flip(slot, false);
      component.mask.set_sa0(slot, false);
      component.mask.set_sa1(slot, false);
    }
  }
}

}  // namespace flim::fault
