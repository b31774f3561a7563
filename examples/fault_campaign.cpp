// Fault-campaign workflow: the paper's offline mask pipeline.
//
// 1. The Fault Generator draws masks once (the expensive step);
// 2. the noise vectors are extracted into a binary file with metadata;
// 3. the file is reloaded ("reusable for a myriad of experiments") and
//    drives several evaluation campaigns without regeneration.
#include <iostream>

#include "bnn/engine.hpp"
#include "bnn/flim_engine.hpp"
#include "core/rng.hpp"
#include "data/synthetic_mnist.hpp"
#include "fault/fault_registry.hpp"
#include "fault/fault_vector_file.hpp"
#include "models/pretrained.hpp"
#include "models/zoo.hpp"

int main() {
  using namespace flim;

  data::SyntheticMnistOptions data_opts;
  data_opts.size = 2500;
  data::SyntheticMnist dataset(data_opts);

  models::PretrainOptions train_opts;
  train_opts.epochs = 3;
  train_opts.train_samples = 2000;
  const bnn::Model model = models::pretrained_lenet(dataset, train_opts);
  const auto layers =
      model.analyze(tensor::FloatTensor(tensor::Shape{1, 1, 28, 28}, 0.5f))
          .binarized_layers;

  // --- offline: generate masks and extract the noise vectors ---------------
  const fault::FaultStack stack = fault::parse_fault_expr("stuckat(rate=0.05)");
  fault::RealizeContext ctx;
  ctx.grid = {40, 10};
  core::Rng rng(2023);
  fault::FaultVectorFile file;
  for (const auto& layer : layers) {
    file.add(stack.realize_entry(layer.layer_name,
                                 fault::FaultGranularity::kOutputElement, ctx,
                                 rng));
    const fault::FaultMask& mask = file.entries().back().components[0].mask;
    std::cout << "generated mask for " << layer.layer_name << ": "
              << mask.count_sa0() << " SA0 + " << mask.count_sa1()
              << " SA1 cells on a 40x10 virtual crossbar\n";
  }
  const std::string path = "fault_vectors_demo.bin";
  file.save(path);
  std::cout << "saved " << file.size() << " fault vectors to " << path << "\n";

  // --- online: reload and run several experiments with the same vectors ----
  const fault::FaultVectorFile reloaded = fault::FaultVectorFile::load(path);
  const data::Batch test = data::load_batch(dataset, 2000, 400);

  bnn::ReferenceEngine vanilla;
  std::cout << "clean accuracy:  " << model.evaluate(test, vanilla) * 100
            << "%\n";

  bnn::FlimEngine faulty(reloaded);
  std::cout << "faulty accuracy: " << model.evaluate(test, faulty) * 100
            << "%  (5% stuck-at from the reloaded vector file)\n";

  // The same file drives a different experiment: only the dense layers.
  bnn::FlimEngine dense_only;
  for (const auto& entry : reloaded.entries()) {
    if (entry.layer_name.rfind("dense", 0) == 0) {
      dense_only.set_layer_fault(entry);
    }
  }
  std::cout << "dense-only:      " << model.evaluate(test, dense_only) * 100
            << "%  (same vectors, dense layers only)\n";
  return 0;
}
