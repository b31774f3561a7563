// Extension E1 (the paper's future work): fault injection during training.
//
// Trains two binary LeNets with the same budget -- one clean, one with
// training-time fault injection wired to a fixed fault-vector file -- and
// evaluates both under (a) no faults and (b) the injected distribution.
// Fault-aware training should recover a substantial part of the accuracy
// the clean-trained model loses under the same faults.
#include <iostream>

#include "bench_common.hpp"
#include "bnn/flim_engine.hpp"
#include "core/rng.hpp"
#include "fault/fault_registry.hpp"
#include "models/zoo.hpp"
#include "train/trainer.hpp"

using namespace flim;

int main() {
  const benchx::BenchOptions options = benchx::options_from_env();
  data::SyntheticMnistOptions d;
  d.size = options.train_samples + options.eval_images;
  data::SyntheticMnist dataset(d);

  // A fixed defect map: 15% bit-flips plus 2% stuck-at on every
  // crossbar-mapped layer.
  const fault::FaultStack stack =
      fault::parse_fault_expr("bitflip(rate=0.15)+stuckat(rate=0.02)");
  fault::RealizeContext ctx;
  ctx.grid = {64, 64};
  core::Rng rng(options.master_seed);
  fault::FaultVectorFile vectors;
  for (const auto& layer : models::lenet_faultable_layers()) {
    vectors.add(stack.realize_entry(
        layer, fault::FaultGranularity::kOutputElement, ctx, rng));
  }

  train::TrainConfig cfg;
  cfg.epochs = options.epochs;
  cfg.batch_size = 32;
  cfg.train_samples = options.train_samples;

  std::cerr << "[ext-training] training clean LeNet...\n";
  train::Graph clean_graph = models::build_lenet_binary(options.master_seed);
  train::Adam adam1(2e-3f);
  train::fit(clean_graph, adam1, dataset, cfg);
  bnn::Model clean_model = clean_graph.to_inference_model();

  std::cerr << "[ext-training] training fault-aware LeNet...\n";
  train::Graph aware_graph = models::build_lenet_binary_fault_aware(
      options.master_seed, vectors, /*active_probability=*/0.8);
  train::Adam adam2(2e-3f);
  train::fit(aware_graph, adam2, dataset, cfg);
  bnn::Model aware_model = aware_graph.to_inference_model();

  const data::Batch test =
      data::load_batch(dataset, options.train_samples, options.eval_images);

  bnn::ReferenceEngine ref;
  bnn::FlimEngine faulty(vectors);

  core::Table table(
      {"training", "clean_acc_%", "faulty_acc_%", "drop_points"});
  const double c0 = clean_model.evaluate(test, ref);
  faulty.reset_time();
  const double c1 = clean_model.evaluate(test, faulty);
  table.add("standard", benchx::pct(c0), benchx::pct(c1),
            benchx::pct(c0 - c1));
  const double a0 = aware_model.evaluate(test, ref);
  faulty.reset_time();
  const double a1 = aware_model.evaluate(test, faulty);
  table.add("fault-aware", benchx::pct(a0), benchx::pct(a1),
            benchx::pct(a0 - a1));

  benchx::emit(
      "Extension E1: fault-aware training (15% flips + 2% stuck-at)",
      "ext_fault_aware_training", table);
  std::cout << "expected shape: the fault-aware model loses fewer points "
               "under the trained-for fault distribution, at a small clean-"
               "accuracy cost -- the paper's proposed future extension.\n";
  return 0;
}
