// Training-time fault injection -- the paper's stated future work ("in the
// future, we want to extend the capabilities of FLIM to inject faults during
// training").
//
// TFaultInjection is a training layer placed directly after a binarized
// layer's accumulator output. During the forward pass it applies the same
// output-element fault semantics as the inference-time FaultInjector (each
// component of the entry's fault stack, in order and gated by its model's
// time semantics: flips negate, stuck-at pins to the full-scale ∓K
// accumulator value) using the identical virtual-crossbar slot mapping, so
// a network trained with it has seen exactly the fault distribution the
// deployed crossbar will exhibit. The backward pass is exact: flipped
// elements propagate negated gradients, pinned elements block the gradient.
// Only models with static fault planes apply (ModelInfo::product_term);
// data-dependent or time-varying ones (readdisturb, drift) are rejected.
//
// On conversion the layer disappears (bnn::Identity) by default -- the
// trained weights carry the robustness -- or can keep the mask for deployed
// arrays with known defect maps.
#pragma once

#include "fault/fault_vector_file.hpp"
#include "train/layers.hpp"

namespace flim::train {

/// Applies output-element faults to a binarized layer's accumulator output
/// during training.
class TFaultInjection final : public TrainLayer {
 public:
  /// `entry` carries the realized fault components; `full_scale` is the
  /// layer's product-term count K (the pin magnitude for stuck-at faults).
  /// `active_probability` optionally makes injection stochastic per batch
  /// (1.0 = always), drawing from `rng_seed`.
  TFaultInjection(std::string name, fault::FaultVectorEntry entry,
                  std::int32_t full_scale, double active_probability = 1.0,
                  std::uint64_t rng_seed = 0x5eed);

  tensor::FloatTensor forward(const tensor::FloatTensor& x,
                              bool training) override;
  tensor::FloatTensor backward(const tensor::FloatTensor& grad_out) override;
  bnn::LayerPtr to_inference() const override;

  const fault::FaultVectorEntry& entry() const { return entry_; }

 private:
  fault::FaultVectorEntry entry_;
  /// Registry model of each component, in stack order.
  std::vector<const fault::FaultModel*> models_;
  std::int32_t full_scale_;
  double active_probability_;
  core::Rng rng_;
  std::int64_t execution_counter_ = 0;
  // Per-element multiplier (+1 / -1 for flips, 0 for pinned elements),
  // rebuilt each forward; shaped like the input.
  tensor::FloatTensor cached_multiplier_;
  bool applied_ = false;
};

/// Convenience: wraps masks from `vectors` around the binarized layers of a
/// LeNet-shaped graph under construction. Returns the entry for `layer` or
/// nullptr. (Builders call this while assembling fault-aware graphs.)
const fault::FaultVectorEntry* find_entry(
    const fault::FaultVectorFile& vectors, const std::string& layer);

}  // namespace flim::train
