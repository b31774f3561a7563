// Extension E5: accuracy over the deployment lifetime, with and without
// mitigation.
//
// Operationalizes the paper's lifetime narrative (transient flips from
// environmental variation, stuck-at faults toward end of life) and its
// conclusion that monitoring/mitigation strategies are mandatory: the
// LeNet/MNIST workload ages under a Poisson upset process and a Weibull
// wear-out process while four mitigation stacks -- none, scrubbing,
// scrubbing+SEC-DED, scrubbing+SEC-DED+TMR -- are evaluated on the same
// fault trajectory seeds.
#include <iostream>

#include "bench_common.hpp"
#include "reliability/lifetime.hpp"

using namespace flim;

int main() {
  const benchx::BenchOptions options = benchx::options_from_env();
  const benchx::LenetFixture fx = benchx::make_lenet_fixture(options);

  reliability::LifetimeConfig cfg;
  cfg.grid = {64, 64};
  cfg.step_hours = 2000.0;
  cfg.horizon_hours = 20000.0;
  cfg.wearout.scale_hours = 16000.0;
  cfg.wearout.shape = 2.2;
  cfg.transients.upsets_per_grid_hour = 0.05;
  cfg.seed = options.master_seed;
  const reliability::LifetimeSimulator sim(cfg);

  std::vector<reliability::MitigationStack> stacks(4);
  stacks[1].scrub = true;
  stacks[1].scrub_period_hours = cfg.step_hours;
  stacks[2] = stacks[1];
  stacks[2].ecc = true;
  stacks[2].ecc_word_bits = 32;  // tolerate ~2x the fault density
  stacks[2].ecc_interleave = 4;
  stacks[3] = stacks[2];
  stacks[3].modular_redundancy = 3;

  std::vector<std::string> columns{"hours"};
  for (const auto& stack : stacks) columns.push_back(stack.name() + "_acc_%");
  core::Table table(columns);

  std::vector<reliability::LifetimeCurve> curves;
  for (const auto& stack : stacks) {
    curves.push_back(sim.simulate(fx.model, fx.eval_batch, fx.layers, stack));
    std::cerr << "[lifetime] " << stack.name() << " done\n";
  }

  for (std::size_t p = 0; p < curves.front().points.size(); ++p) {
    std::vector<std::string> row{
        core::format_double(curves.front().points[p].hours, 0)};
    for (const auto& curve : curves) {
      row.push_back(benchx::pct(curve.points[p].accuracy));
    }
    table.add_row(std::move(row));
  }
  benchx::emit("Extension E5: accuracy over lifetime per mitigation stack",
               "ext_lifetime", table);

  // Useful-life summary: first crossing of 80% of clean accuracy.
  const double threshold = 0.8 * fx.clean_accuracy;
  core::Table summary({"mitigation", "useful_life_hours"});
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    const auto hours = curves[i].hours_to_threshold(threshold);
    summary.add(stacks[i].name(),
                hours ? core::format_double(*hours, 0) : ">horizon");
  }
  benchx::emit("Extension E5b: useful life (accuracy >= 80% of clean)",
               "ext_lifetime_summary", summary);

  std::cout << "clean accuracy: " << benchx::pct(fx.clean_accuracy)
            << "%; threshold: " << benchx::pct(threshold) << "%\n";
  std::cout
      << "expected shape: unmitigated accuracy decays with accumulating "
         "upsets and collapses past the Weibull knee; scrubbing removes the "
         "transient component; ECC hides sparse wear-out and defers the "
         "collapse; TMR survives until multiple replicas wear out.\n";
  return 0;
}
