#include "fault/fault_injector.hpp"

#include "core/check.hpp"
#include "fault/fault_registry.hpp"

namespace flim::fault {

FaultInjector::FaultInjector(FaultVectorEntry entry)
    : entry_(std::move(entry)) {
  const FaultRegistry& registry = FaultRegistry::instance();
  FLIM_REQUIRE(!entry_.components.empty(),
               "fault injector needs at least one fault component");
  components_.reserve(entry_.components.size());
  for (const RealizedFault& fault : entry_.components) {
    FLIM_REQUIRE(!fault.mask.empty(),
                 "fault component '" + fault.model + "' has an empty mask");
    components_.push_back({&registry.get(fault.model), &fault});
  }
  FLIM_REQUIRE(components_.size() <= 64,
               "fault stacks are limited to 64 components per layer");
  for (const Component& component : components_) {
    const ModelInfo& meta = component.model->info();
    if (entry_.granularity == FaultGranularity::kProductTerm) {
      FLIM_REQUIRE(meta.product_term,
                   "fault model '" + meta.name +
                       "' does not support product-term granularity");
    } else {
      FLIM_REQUIRE(meta.output_element,
                   "fault model '" + meta.name +
                       "' does not support output-element granularity");
    }
  }
}

void FaultInjector::reset_time() { execution_counter_ = 0; }

std::uint64_t FaultInjector::active_signature(std::int64_t execution) const {
  std::uint64_t signature = 0;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (components_[i].model->active(*components_[i].fault, execution)) {
      signature |= std::uint64_t{1} << i;
    }
  }
  return signature;
}

bool FaultInjector::any_active(std::int64_t execution) const {
  return active_signature(execution) != 0;
}

void FaultInjector::apply_output_element(tensor::IntTensor& feature,
                                         std::int64_t row_begin,
                                         std::int64_t row_end,
                                         std::int64_t execution,
                                         std::int32_t full_scale) const {
  FLIM_REQUIRE(full_scale > 0, "full_scale must be positive");
  FLIM_REQUIRE(feature.shape().rank() == 2,
               "feature map must be [positions, channels]");
  FLIM_REQUIRE(row_begin >= 0 && row_begin <= row_end &&
                   row_end <= feature.shape()[0],
               "image row range out of bounds");
  for (const Component& component : components_) {
    if (!component.model->active(*component.fault, execution)) continue;
    component.model->apply_output_element(*component.fault, feature,
                                          row_begin, row_end, execution,
                                          full_scale);
  }
}

const TermMasks* FaultInjector::term_masks(std::int64_t out_channels,
                                           std::int64_t k,
                                           std::int64_t execution) {
  FLIM_REQUIRE(out_channels > 0 && k > 0,
               "term mask dimensions must be positive");
  const std::uint64_t signature = active_signature(execution);
  if (signature == 0) return nullptr;

  // Folding the planes costs O(out_channels * K) -- worth caching per
  // active-component signature, and the cache must stay consistent when a
  // pooled campaign drives one injector from several workers.
  const core::MutexLock lock(term_cache_mutex_);
  if (term_out_channels_ < 0) {
    term_out_channels_ = out_channels;
    term_k_ = k;
  } else {
    FLIM_REQUIRE(term_out_channels_ == out_channels && term_k_ == k,
                 "term mask shape changed between calls");
  }
  const auto cached = term_cache_.find(signature);
  if (cached != term_cache_.end()) return cached->second.get();

  auto masks = std::make_unique<TermMasks>();
  masks->flip = tensor::BitMatrix(out_channels, k);
  masks->sa0 = tensor::BitMatrix(out_channels, k);
  masks->sa1 = tensor::BitMatrix(out_channels, k);
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if ((signature & (std::uint64_t{1} << i)) == 0) continue;
    components_[i].model->fold_term_planes(*components_[i].fault, *masks,
                                           out_channels, k);
  }
  const TermMasks* result = masks.get();
  term_cache_.emplace(signature, std::move(masks));
  return result;
}

}  // namespace flim::fault
