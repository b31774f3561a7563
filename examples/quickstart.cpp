// Quickstart: train a small binary LeNet, inject faults, compare accuracy.
//
//   $ ./quickstart
//
// Walks the full FLIM workflow in ~a minute: dataset -> training -> inference
// model -> fault generation -> fault injection -> evaluation.
#include <iostream>

#include "bnn/engine.hpp"
#include "bnn/flim_engine.hpp"
#include "core/rng.hpp"
#include "data/synthetic_mnist.hpp"
#include "fault/fault_registry.hpp"
#include "models/zoo.hpp"
#include "train/trainer.hpp"

int main() {
  using namespace flim;

  // 1. A deterministic synthetic-MNIST dataset (see DESIGN.md for why the
  //    reproduction substitutes procedural digits for MNIST).
  data::SyntheticMnistOptions data_opts;
  data_opts.size = 2500;
  data::SyntheticMnist dataset(data_opts);

  // 2. Train the paper's binary LeNet briefly.
  std::cout << "training binary LeNet on synthetic digits...\n";
  train::Graph graph = models::build_lenet_binary(/*seed=*/1);
  train::Adam adam(2e-3f);
  train::TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 32;
  cfg.train_samples = 2000;
  const train::TrainResult result = train::fit(graph, adam, dataset, cfg);
  std::cout << "  final train accuracy: " << result.final_train_accuracy * 100
            << "%\n";

  // 3. Convert to the inference model (packed ±1 weights, folded BN).
  bnn::Model model = graph.to_inference_model();

  // 4. Evaluate clean accuracy with the vanilla engine.
  const data::Batch test = data::load_batch(dataset, 2000, 500);
  bnn::ReferenceEngine vanilla;
  const double clean = model.evaluate(test, vanilla);
  std::cout << "clean test accuracy: " << clean * 100 << "%\n";

  // 5. Generate fault masks (10% bit-flips on a 64x64 virtual crossbar) for
  //    every crossbar-mapped layer and attach them to a FLIM engine.
  const auto characteristics =
      model.analyze(tensor::FloatTensor(tensor::Shape{1, 1, 28, 28}, 0.5f));
  const fault::FaultStack stack = fault::parse_fault_expr("bitflip(rate=0.1)");
  fault::RealizeContext ctx;
  ctx.grid = {64, 64};
  core::Rng rng(/*seed=*/7);

  bnn::FlimEngine flim;
  for (const auto& layer : characteristics.binarized_layers) {
    flim.set_layer_fault(stack.realize_entry(
        layer.layer_name, fault::FaultGranularity::kOutputElement, ctx, rng));
    std::cout << "  injected 10% bit-flips into " << layer.layer_name << " ("
              << layer.output_elements_per_image() << " XNOR outputs/image)\n";
  }

  // 6. Evaluate under faults.
  const double faulty = model.evaluate(test, flim);
  std::cout << "faulty test accuracy: " << faulty * 100 << "%\n";
  std::cout << "accuracy drop: " << (clean - faulty) * 100 << " points\n";
  return 0;
}
