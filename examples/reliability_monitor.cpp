// In-field reliability loop: detect a defect online, then mitigate it.
//
//   $ ./reliability_monitor
//
// The deployment story the paper's conclusion sketches, end to end:
// a binary MLP serves inferences from a LIM crossbar; a stuck-at defect
// develops in the field; the concurrent canary monitor flags it within a
// bounded number of inferences; an ECC scrub repairs what is repairable;
// and the residual damage is absorbed by majority voting over replicas.
#include <iostream>
#include <memory>

#include "bnn/flim_engine.hpp"
#include "bnn/redundancy.hpp"
#include "core/rng.hpp"
#include "data/synthetic_mnist.hpp"
#include "fault/fault_registry.hpp"
#include "fault/residual.hpp"
#include "reliability/monitor.hpp"
#include "train/layers.hpp"
#include "train/optimizer.hpp"
#include "train/trainer.hpp"

int main() {
  using namespace flim;

  // --- deploy: a small binary MLP on synthetic digits -----------------------
  data::SyntheticMnistOptions data_opts;
  data_opts.size = 1600;
  data::SyntheticMnist dataset(data_opts);

  std::cout << "training a small binary MLP...\n";
  core::Rng init(3);
  train::Graph graph("mlp");
  graph.add(std::make_unique<train::TFlatten>("flatten"));
  graph.add(std::make_unique<train::TDense>("stem", 784, 64, init));
  graph.add(std::make_unique<train::TBatchNorm>("stem_bn", 64));
  graph.add(std::make_unique<train::TSign>("stem_sign"));
  graph.add(std::make_unique<train::TBinaryDense>("bd0", 64, 64, init));
  graph.add(std::make_unique<train::TBatchNorm>("bd0_bn", 64));
  graph.add(std::make_unique<train::TSign>("bd0_sign"));
  graph.add(std::make_unique<train::TBinaryDense>("bd1", 64, 10, init));
  graph.add(std::make_unique<train::TBatchNorm>("bd1_bn", 10));

  train::Adam adam(2e-3f);
  train::TrainConfig train_cfg;
  train_cfg.epochs = 4;
  train_cfg.batch_size = 32;
  train_cfg.train_samples = 1200;
  train::fit(graph, adam, dataset, train_cfg);
  bnn::Model model = graph.to_inference_model();

  const data::Batch test = data::load_batch(dataset, 1200, 400);
  bnn::ReferenceEngine vanilla;
  const double clean = model.evaluate(test, vanilla);
  std::cout << "clean accuracy: " << clean * 100 << "%\n";

  // --- a defect develops in the field ---------------------------------------
  const lim::CrossbarGeometry grid{64, 64};
  fault::RealizeContext ctx;
  ctx.grid = grid;
  core::Rng rng(2023);
  // Sparse enough for SEC-DED to matter.
  const fault::FaultStack defect = fault::parse_fault_expr("stuckat(rate=0.02)");
  const fault::FaultMask mask = defect.realize(ctx, rng).front().mask;

  // The defect hits the hidden layer's crossbar. (The 10-op output layer
  // would pin one logit for *every* image if faulted -- see the fig4b bench
  // for that catastrophic case; here we follow the common practice of
  // keeping the tiny classifier head in protected CMOS.)
  const std::string faulted_layer = "bd0";
  const auto stuck_entry = [&](const fault::FaultMask& defect_map) {
    fault::RealizedFault component;
    component.model = "stuckat";
    component.mask = defect_map;
    fault::FaultVectorEntry e;
    e.layer_name = faulted_layer;
    e.components.push_back(std::move(component));
    return e;
  };
  bnn::FlimEngine faulty;
  faulty.set_layer_fault(stuck_entry(mask));
  const double degraded = model.evaluate(test, faulty);
  std::cout << "\na stuck-at defect develops in " << faulted_layer
            << "'s crossbar (2% of slots): accuracy drops to "
            << degraded * 100 << "%\n";

  // --- the online monitor flags it -------------------------------------------
  reliability::MonitorConfig mon_cfg;
  mon_cfg.grid = grid;
  mon_cfg.test_period = 8;
  mon_cfg.slots_per_round = 16;
  mon_cfg.policy = reliability::CanaryPolicy::kRoundRobin;
  const reliability::OnlineMonitor monitor(mon_cfg);
  const auto detection = monitor.run_until_detection(mask, 1 << 20);
  std::cout << "canary monitor (overhead "
            << monitor.overhead_ops_per_inference()
            << " ops/inference) detects it after "
            << detection.inferences_elapsed << " inferences at slot "
            << detection.detecting_slot << "\n";

  // --- mitigation 1: ECC scrub repairs isolated defects ----------------------
  // SEC-DED corrects one faulty cell per word: radius 1.
  const fault::ResidualOptions secded{/*word_bits=*/32, /*interleave=*/4,
                                      /*correct_per_word=*/1};
  fault::ResidualStats stats;
  const fault::FaultMask residual =
      fault::apply_word_residual(mask, secded, &stats);
  bnn::FlimEngine scrubbed;
  scrubbed.set_layer_fault(stuck_entry(residual));
  const double after_ecc = model.evaluate(test, scrubbed);
  std::cout << "\nECC scrub (SEC-DED, 32-bit words, interleave 4) corrects "
            << stats.corrected_words << "/" << stats.words
            << " words; accuracy recovers to " << after_ecc * 100 << "%\n";

  // --- mitigation 2: majority voting over replicas ---------------------------
  core::Rng replica_rng(77);
  std::vector<std::unique_ptr<bnn::XnorExecutionEngine>> replicas;
  for (int r = 0; r < 3; ++r) {
    auto engine = std::make_unique<bnn::FlimEngine>();
    const fault::FaultMask replica_mask =
        defect.realize(ctx, replica_rng).front().mask;
    engine->set_layer_fault(
        stuck_entry(fault::apply_word_residual(replica_mask, secded)));
    replicas.push_back(std::move(engine));
  }
  bnn::MedianVoteEngine voter(std::move(replicas));
  const double after_tmr = model.evaluate(test, voter);
  std::cout << "TMR over three independently defective replicas (each ECC "
            << "scrubbed): " << after_tmr * 100 << "%\n";

  std::cout << "\nsummary: clean " << clean * 100 << "% -> faulty "
            << degraded * 100 << "% -> ECC " << after_ecc * 100
            << "% -> ECC+TMR " << after_tmr * 100 << "%\n";
  return 0;
}
