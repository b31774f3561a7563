#include "reliability/criticality.hpp"

#include <algorithm>

#include "bnn/flim_engine.hpp"
#include "core/check.hpp"
#include "core/rng.hpp"
#include "fault/fault_registry.hpp"

namespace flim::reliability {

namespace {

/// Marks the given columns faulty: stuck cells of per-seed polarity for
/// kStuckAt, flips otherwise (the planes the paper kinds realize).
fault::FaultMask columns_mask(const lim::CrossbarGeometry& grid,
                              const std::vector<std::int64_t>& columns,
                              fault::FaultKind kind, core::Rng& rng) {
  fault::FaultMask mask(grid.rows, grid.cols);
  for (const std::int64_t c : columns) {
    for (std::int64_t r = 0; r < grid.rows; ++r) {
      const std::int64_t slot = r * grid.cols + c;
      if (kind == fault::FaultKind::kStuckAt) {
        if (rng.bernoulli(0.5)) {
          mask.set_sa1(slot, true);
        } else {
          mask.set_sa0(slot, true);
        }
      } else {
        mask.set_flip(slot, true);
      }
    }
  }
  return mask;
}

double evaluate_columns(const bnn::Model& model, const data::Batch& batch,
                        const std::string& layer_name,
                        const std::vector<std::int64_t>& columns,
                        const CriticalityConfig& config,
                        std::uint64_t stream) {
  core::Rng rng = core::Rng(config.master_seed).derive(stream);
  double total = 0.0;
  for (int rep = 0; rep < config.repetitions; ++rep) {
    bnn::FlimEngine engine;
    fault::RealizedFault component;
    component.model = fault::model_name_for(config.kind);
    component.mask = columns_mask(config.grid, columns, config.kind, rng);
    fault::FaultVectorEntry entry;
    entry.layer_name = layer_name;
    entry.components.push_back(std::move(component));
    engine.set_layer_fault(std::move(entry));
    total += model.evaluate(batch, engine);
  }
  return total / config.repetitions;
}

}  // namespace

CriticalityReport rank_columns(const bnn::Model& model,
                               const data::Batch& batch,
                               const std::string& layer_name,
                               const CriticalityConfig& config) {
  FLIM_REQUIRE(config.repetitions > 0, "repetitions must be positive");
  CriticalityReport report;
  report.layer_name = layer_name;

  bnn::ReferenceEngine clean;
  report.clean_accuracy = model.evaluate(batch, clean);

  for (std::int64_t c = 0; c < config.grid.cols; ++c) {
    ColumnCriticality entry;
    entry.column = c;
    entry.accuracy = evaluate_columns(model, batch, layer_name, {c}, config,
                                      static_cast<std::uint64_t>(c));
    entry.drop = report.clean_accuracy - entry.accuracy;
    report.columns.push_back(entry);
  }
  std::stable_sort(report.columns.begin(), report.columns.end(),
                   [](const ColumnCriticality& a, const ColumnCriticality& b) {
                     return a.drop > b.drop;
                   });
  return report;
}

HardeningOutcome evaluate_selective_hardening(
    const bnn::Model& model, const data::Batch& batch,
    const std::string& layer_name, const CriticalityReport& report,
    int hardening_budget, const CriticalityConfig& config) {
  FLIM_REQUIRE(hardening_budget > 0, "hardening budget must be positive");
  FLIM_REQUIRE(2 * hardening_budget <= config.grid.cols,
               "scenario needs 2*budget columns in the grid");

  // Criticality order of every column (most critical first).
  std::vector<std::int64_t> ranked;
  ranked.reserve(report.columns.size());
  for (const ColumnCriticality& c : report.columns) ranked.push_back(c.column);

  core::Rng scenario_rng = core::Rng(config.master_seed).derive(0x5eed);
  HardeningOutcome outcome;
  for (int rep = 0; rep < config.repetitions; ++rep) {
    // 2k distinct columns fail.
    const auto failed_idx = scenario_rng.sample_without_replacement(
        static_cast<std::uint64_t>(config.grid.cols),
        static_cast<std::uint64_t>(2 * hardening_budget));
    std::vector<std::int64_t> failed(failed_idx.begin(), failed_idx.end());

    // Guided repair: keep the k failed columns that rank *least* critical
    // faulty (the k most critical ones get the spares).
    std::vector<std::int64_t> guided_left = failed;
    std::sort(guided_left.begin(), guided_left.end(),
              [&](std::int64_t a, std::int64_t b) {
                const auto pos = [&](std::int64_t col) {
                  return std::find(ranked.begin(), ranked.end(), col) -
                         ranked.begin();
                };
                return pos(a) > pos(b);  // least critical first
              });
    guided_left.resize(static_cast<std::size_t>(hardening_budget));

    // Random repair: an arbitrary half survives.
    std::vector<std::int64_t> random_left = failed;
    for (std::size_t i = 0; i < random_left.size(); ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(
                  scenario_rng.uniform(random_left.size() - i));
      std::swap(random_left[i], random_left[j]);
    }
    random_left.resize(static_cast<std::size_t>(hardening_budget));

    const std::uint64_t stream = 0x1000u + static_cast<std::uint64_t>(rep);
    outcome.faulty_accuracy +=
        evaluate_columns(model, batch, layer_name, failed, config, stream);
    outcome.random_hardening += evaluate_columns(model, batch, layer_name,
                                                 random_left, config, stream);
    outcome.guided_hardening += evaluate_columns(model, batch, layer_name,
                                                 guided_left, config, stream);
  }
  outcome.faulty_accuracy /= config.repetitions;
  outcome.random_hardening /= config.repetitions;
  outcome.guided_hardening /= config.repetitions;
  return outcome;
}

}  // namespace flim::reliability
