#include "reliability/lifetime.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "bnn/flim_engine.hpp"
#include "bnn/redundancy.hpp"
#include "core/check.hpp"
#include "core/rng.hpp"
#include "fault/fault_vector_file.hpp"
#include "fault/residual.hpp"

namespace flim::reliability {

namespace {

/// Accumulating per-layer, per-replica fault state over one virtual grid.
struct GridState {
  // 0 = healthy, 1 = stuck-at-0, 2 = stuck-at-1 (permanent).
  std::vector<std::uint8_t> stuck;
  // Transient flip slots awaiting the next scrub.
  std::vector<std::uint8_t> flip;

  explicit GridState(std::int64_t slots)
      : stuck(static_cast<std::size_t>(slots), 0),
        flip(static_cast<std::size_t>(slots), 0) {}

  std::int64_t count_stuck() const {
    std::int64_t n = 0;
    for (const auto s : stuck) n += s != 0;
    return n;
  }
  std::int64_t count_flips() const {
    std::int64_t n = 0;
    for (const auto f : flip) n += f != 0;
    return n;
  }
};

/// Weibull CDF F(t) = 1 - exp(-(t/eta)^beta).
double weibull_cdf(double t, const WearoutModel& w) {
  if (t <= 0.0) return 0.0;
  return 1.0 - std::exp(-std::pow(t / w.scale_hours, w.shape));
}

/// Builds the mask visible to computation: residual stuck cells (after
/// optional ECC remapping) plus the current transient flips.
fault::FaultMask effective_mask(const GridState& state,
                                const lim::CrossbarGeometry& grid,
                                const MitigationStack& mitigation,
                                std::int64_t* stuck_effective) {
  fault::FaultMask mask(grid.rows, grid.cols);
  for (std::int64_t s = 0; s < grid.num_cells(); ++s) {
    const auto st = state.stuck[static_cast<std::size_t>(s)];
    if (st == 1) mask.set_sa0(s, true);
    if (st == 2) mask.set_sa1(s, true);
  }
  if (mitigation.ecc) {
    mask = fault::apply_word_residual(
        mask, {mitigation.ecc_word_bits, mitigation.ecc_interleave,
               /*correct_per_word=*/1});
  }
  if (stuck_effective != nullptr) {
    *stuck_effective = mask.count_sa0() + mask.count_sa1();
  }
  for (std::int64_t s = 0; s < grid.num_cells(); ++s) {
    if (state.flip[static_cast<std::size_t>(s)] != 0) {
      mask.set_flip(s, true);
    }
  }
  return mask;
}

}  // namespace

std::string MitigationStack::name() const {
  std::string label;
  if (scrub) label = "scrub";
  if (ecc) label += label.empty() ? "ECC" : "+ECC";
  if (modular_redundancy > 1) {
    label += label.empty() ? "" : "+";
    label += std::to_string(modular_redundancy) + "MR";
  }
  return label.empty() ? "none" : label;
}

LifetimeSimulator::LifetimeSimulator(LifetimeConfig config)
    : config_(config) {
  FLIM_REQUIRE(config_.grid.rows > 0 && config_.grid.cols > 0,
               "lifetime grid must have positive dimensions");
  FLIM_REQUIRE(config_.step_hours > 0.0, "step_hours must be positive");
  FLIM_REQUIRE(config_.horizon_hours >= config_.step_hours,
               "horizon must cover at least one step");
  FLIM_REQUIRE(config_.wearout.scale_hours > 0.0 &&
                   config_.wearout.shape > 0.0,
               "Weibull parameters must be positive");
  FLIM_REQUIRE(config_.transients.upsets_per_grid_hour >= 0.0,
               "upset rate must be non-negative");
  FLIM_REQUIRE(config_.stuck_at_one_fraction >= 0.0 &&
                   config_.stuck_at_one_fraction <= 1.0,
               "stuck_at_one_fraction must be a probability");
}

LifetimeCurve LifetimeSimulator::simulate(
    const bnn::Model& model, const data::Batch& batch,
    const std::vector<bnn::LayerWorkload>& layers,
    const MitigationStack& mitigation) const {
  FLIM_REQUIRE(!layers.empty(), "need at least one layer to fault");
  FLIM_REQUIRE(mitigation.modular_redundancy >= 1 &&
                   mitigation.modular_redundancy % 2 == 1,
               "modular redundancy must be an odd count >= 1");
  FLIM_REQUIRE(!mitigation.ecc || mitigation.scrub,
               "ECC remapping requires scrubbing to be enabled");

  const std::int64_t slots = config_.grid.num_cells();
  const int replicas = mitigation.modular_redundancy;

  // state[replica][layer]: replicas age independently (independent fault
  // distributions are what make majority voting effective).
  std::vector<std::vector<GridState>> state(
      static_cast<std::size_t>(replicas));
  for (auto& rep : state) {
    rep.assign(layers.size(), GridState(slots));
  }

  core::Rng rng(config_.seed);
  LifetimeCurve curve;
  double last_scrub = 0.0;

  for (double t = config_.step_hours; t <= config_.horizon_hours + 1e-9;
       t += config_.step_hours) {
    const double t_prev = t - config_.step_hours;
    // Conditional per-cell wear-out probability for this step.
    const double f_prev = weibull_cdf(t_prev, config_.wearout);
    const double f_now = weibull_cdf(t, config_.wearout);
    const double hazard =
        f_prev < 1.0 ? (f_now - f_prev) / (1.0 - f_prev) : 1.0;

    for (auto& rep : state) {
      for (auto& grid : rep) {
        for (std::int64_t s = 0; s < slots; ++s) {
          auto& cell = grid.stuck[static_cast<std::size_t>(s)];
          if (cell == 0 && rng.bernoulli(hazard)) {
            cell = rng.bernoulli(config_.stuck_at_one_fraction) ? 2 : 1;
          }
        }
        const std::uint64_t upsets = rng.poisson(
            config_.transients.upsets_per_grid_hour * config_.step_hours);
        for (std::uint64_t u = 0; u < upsets; ++u) {
          const auto s = rng.uniform(static_cast<std::uint64_t>(slots));
          grid.flip[static_cast<std::size_t>(s)] = 1;
        }
      }
    }

    // Scrubbing: rewriting the arrays clears transient state corruption.
    if (mitigation.scrub &&
        t - last_scrub >= mitigation.scrub_period_hours - 1e-9) {
      last_scrub = t;
      for (auto& rep : state) {
        for (auto& grid : rep) {
          std::fill(grid.flip.begin(), grid.flip.end(),
                    static_cast<std::uint8_t>(0));
        }
      }
    }

    // Checkpoint: assemble engines and evaluate.
    LifetimePoint point;
    point.hours = t;
    std::vector<std::unique_ptr<bnn::XnorExecutionEngine>> engines;
    engines.reserve(static_cast<std::size_t>(replicas));
    for (int r = 0; r < replicas; ++r) {
      auto engine = std::make_unique<bnn::FlimEngine>();
      for (std::size_t li = 0; li < layers.size(); ++li) {
        std::int64_t stuck_effective = 0;
        fault::RealizedFault component;
        component.model = "stuckat";
        component.mask = effective_mask(state[static_cast<std::size_t>(r)][li],
                                        config_.grid, mitigation,
                                        &stuck_effective);
        if (r == 0) {
          point.transient_flips += component.mask.count_flip();
          point.stuck_cells_raw +=
              state[static_cast<std::size_t>(r)][li].count_stuck();
          point.stuck_cells_effective += stuck_effective;
        }
        fault::FaultVectorEntry entry;
        entry.layer_name = layers[li].layer_name;
        entry.components.push_back(std::move(component));
        engine->set_layer_fault(std::move(entry));
      }
      engines.push_back(std::move(engine));
    }

    if (replicas == 1) {
      point.accuracy = model.evaluate(batch, *engines.front());
    } else {
      bnn::MedianVoteEngine voter(std::move(engines));
      point.accuracy = model.evaluate(batch, voter);
    }
    curve.points.push_back(point);
  }
  return curve;
}

std::optional<double> LifetimeCurve::hours_to_threshold(
    double threshold) const {
  double prev_hours = 0.0;
  double prev_acc = points.empty() ? 0.0 : points.front().accuracy;
  for (const LifetimePoint& p : points) {
    if (p.accuracy < threshold) {
      if (p.hours == prev_hours || prev_acc <= p.accuracy) return p.hours;
      // Linear interpolation between the bracketing checkpoints.
      const double frac = (prev_acc - threshold) / (prev_acc - p.accuracy);
      return prev_hours + frac * (p.hours - prev_hours);
    }
    prev_hours = p.hours;
    prev_acc = p.accuracy;
  }
  return std::nullopt;
}

}  // namespace flim::reliability
