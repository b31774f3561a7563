#include "train/fault_training.hpp"

#include "bnn/activations.hpp"
#include "core/check.hpp"
#include "fault/fault_registry.hpp"

namespace flim::train {

TFaultInjection::TFaultInjection(std::string name,
                                 fault::FaultVectorEntry entry,
                                 std::int32_t full_scale,
                                 double active_probability,
                                 std::uint64_t rng_seed)
    : TrainLayer(std::move(name)),
      entry_(std::move(entry)),
      full_scale_(full_scale),
      active_probability_(active_probability),
      rng_(rng_seed) {
  FLIM_REQUIRE(!entry_.components.empty(),
               "fault injection needs at least one fault component");
  const fault::FaultRegistry& registry = fault::FaultRegistry::instance();
  for (const fault::RealizedFault& component : entry_.components) {
    const fault::FaultModel& model = registry.get(component.model);
    FLIM_REQUIRE(model.info().product_term,
                 "fault model '" + component.model +
                     "' has no static fault planes (its effect is "
                     "data-dependent or time-varying), so fault-aware "
                     "training cannot apply it");
    FLIM_REQUIRE(!component.mask.empty(),
                 "fault component '" + component.model +
                     "' has an empty mask");
    models_.push_back(&model);
  }
  FLIM_REQUIRE(full_scale_ > 0, "full_scale must be positive");
  FLIM_REQUIRE(active_probability_ >= 0.0 && active_probability_ <= 1.0,
               "active probability must be in [0, 1]");
}

tensor::FloatTensor TFaultInjection::forward(const tensor::FloatTensor& x,
                                             bool training) {
  // Faults apply during training only; evaluation of the trained graph and
  // the converted inference model stay clean (robustness lives in weights).
  applied_ = training && rng_.bernoulli(active_probability_);
  const std::int64_t execution = execution_counter_++;
  if (!applied_) return x;

  const auto rank = x.shape().rank();
  FLIM_REQUIRE(rank == 2 || rank == 4,
               "fault injection expects dense [N,F] or conv NCHW input");
  const std::int64_t n = x.shape()[0];
  const std::int64_t channels = x.shape()[1];
  const std::int64_t hw = rank == 4 ? x.shape()[2] * x.shape()[3] : 1;

  cached_multiplier_ = tensor::FloatTensor(x.shape(), 1.0f);
  tensor::FloatTensor out = x;
  // Components apply in stack order, each gated by its model's time
  // semantics on the inference injector's execution counter (dynamic
  // faults fire every period-th execution). A flip negates the element's
  // gradient factor, a pin zeroes it.
  applied_ = false;
  for (std::size_t i = 0; i < models_.size(); ++i) {
    const fault::RealizedFault& component = entry_.components[i];
    if (!models_[i]->active(component, execution)) continue;
    applied_ = true;
    const fault::FaultMask& mask = component.mask;
    const std::int64_t slots = mask.num_slots();
    // Op order matches the inference injector: position-major over (pos, ch).
    for (std::int64_t b = 0; b < n; ++b) {
      std::int64_t op = 0;
      for (std::int64_t pos = 0; pos < hw; ++pos) {
        for (std::int64_t c = 0; c < channels; ++c, ++op) {
          const std::int64_t slot = op % slots;
          // NCHW layout: element (b, c, pos).
          const std::int64_t idx = (b * channels + c) * hw + pos;
          if (mask.flip(slot)) {
            out[idx] = -out[idx];
            cached_multiplier_[idx] = -cached_multiplier_[idx];
          }
          if (mask.sa0(slot)) {
            out[idx] = static_cast<float>(-full_scale_);
            cached_multiplier_[idx] = 0.0f;
          }
          if (mask.sa1(slot)) {
            out[idx] = static_cast<float>(full_scale_);
            cached_multiplier_[idx] = 0.0f;
          }
        }
      }
    }
  }
  return applied_ ? out : x;
}

tensor::FloatTensor TFaultInjection::backward(
    const tensor::FloatTensor& grad_out) {
  if (!applied_) return grad_out;
  FLIM_REQUIRE(grad_out.shape() == cached_multiplier_.shape(),
               "fault injection backward shape mismatch");
  tensor::FloatTensor grad_in(grad_out.shape());
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) {
    grad_in[i] = grad_out[i] * cached_multiplier_[i];
  }
  return grad_in;
}

bnn::LayerPtr TFaultInjection::to_inference() const {
  return std::make_unique<bnn::Identity>(name());
}

const fault::FaultVectorEntry* find_entry(
    const fault::FaultVectorFile& vectors, const std::string& layer) {
  return vectors.find(layer);
}

}  // namespace flim::train
