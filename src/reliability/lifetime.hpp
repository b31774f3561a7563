// In-field lifetime simulation of a LIM-accelerated BNN.
//
// The paper frames its fault taxonomy in lifetime terms: environmental
// variations cause transient bit-flips, temporal variations cause
// degradation, and "towards the end of their life cycle, memories encounter
// stuck-at faults". This module turns that narrative into a simulator:
// transient upsets arrive as a Poisson process, cells wear out permanently
// under a Weibull hazard, and the accumulated per-layer fault masks are
// periodically evaluated on the real model via the FLIM engine -- with or
// without a mitigation stack (scrubbing, SEC-DED ECC remapping, N-modular
// redundancy), quantifying how much each strategy extends useful life.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bnn/model.hpp"
#include "data/dataset.hpp"
#include "lim/mapper.hpp"

namespace flim::reliability {

/// Permanent-fault (wear-out) process: each cell's life is Weibull
/// distributed; shape > 1 gives the increasing hazard ("end of life cycle")
/// the paper describes.
struct WearoutModel {
  double scale_hours = 20000.0;  // Weibull eta: characteristic cell life
  double shape = 2.8;            // Weibull beta: > 1 means wear-out
};

/// Transient-fault (environmental upset) process: new bit-flip slots arrive
/// Poisson-distributed per grid and hour, and persist in the stored state
/// until a scrub rewrites the array.
struct TransientModel {
  double upsets_per_grid_hour = 1.0;
};

/// Mitigation strategies evaluated by the simulator.
struct MitigationStack {
  /// Periodic rewrite of all arrays: clears accumulated transient flips.
  bool scrub = false;
  double scrub_period_hours = 24.0;
  /// SEC-DED spare columns + remap at scrub time: wear-out faults in words
  /// with a single faulty cell are hidden from computation
  /// (fault::apply_word_residual with a correction radius of 1). Requires
  /// scrub (the correction happens during the scrub pass).
  bool ecc = false;
  /// Data cells per ECC word.
  int ecc_word_bits = 64;
  /// Bit interleaving degree: adjacent cells of a row belong to
  /// `ecc_interleave` different words, so a physical burst spreads across
  /// words and stays correctable. 1 = no interleaving.
  int ecc_interleave = 1;
  /// N-modular redundancy: odd replica count with independent fault
  /// accumulation, combined by majority vote. 1 disables.
  int modular_redundancy = 1;

  /// Short label for reports, e.g. "scrub+ECC" or "none".
  std::string name() const;
};

/// Simulation configuration.
struct LifetimeConfig {
  /// Virtual op-slot grid per binarized layer (matches the fault masks).
  lim::CrossbarGeometry grid{64, 64};
  WearoutModel wearout;
  TransientModel transients;
  /// Fraction of worn-out cells pinned at logic 1 (the rest at 0).
  double stuck_at_one_fraction = 0.5;
  /// Simulation step between accuracy checkpoints.
  double step_hours = 500.0;
  double horizon_hours = 20000.0;
  std::uint64_t seed = 2023;
};

/// One accuracy checkpoint.
struct LifetimePoint {
  double hours = 0.0;
  double accuracy = 0.0;
  /// Active transient flip slots across layers of replica 0 at evaluation
  /// time (after any scrub).
  std::int64_t transient_flips = 0;
  /// Accumulated worn-out cells across layers of replica 0.
  std::int64_t stuck_cells_raw = 0;
  /// Worn-out cells still visible to computation after ECC remapping.
  std::int64_t stuck_cells_effective = 0;
};

/// A full accuracy-over-lifetime trajectory.
struct LifetimeCurve {
  std::vector<LifetimePoint> points;

  /// First time the accuracy falls below `threshold` (linear interpolation
  /// between checkpoints); nullopt when it never does within the horizon.
  std::optional<double> hours_to_threshold(double threshold) const;
};

/// Steps fault accumulation over time and evaluates the model at each
/// checkpoint under the given mitigation stack.
class LifetimeSimulator {
 public:
  explicit LifetimeSimulator(LifetimeConfig config);

  const LifetimeConfig& config() const { return config_; }

  /// Runs one trajectory. `layers` names the binarized layers to fault
  /// (from Model::analyze); `batch` is the evaluation set.
  LifetimeCurve simulate(const bnn::Model& model, const data::Batch& batch,
                         const std::vector<bnn::LayerWorkload>& layers,
                         const MitigationStack& mitigation) const;

 private:
  LifetimeConfig config_;
};

}  // namespace flim::reliability
