// The Fault Injector: applies realized fault components to running
// inference.
//
// One injector instance is attached to one binarized layer. It owns the
// layer's realized component stack, the execution counter ("notion of
// time": models can be sensitized only on some executions), and the cached
// product-term mask planes per active-component signature.
//
// All fault behaviour is dispatched polymorphically through the registered
// FaultModel of each component -- there is no fault-kind switch here.
//
// Application semantics (see docs/fault-models.md):
// * kOutputElement -- the paper's implementation: the layer's feature map is
//   treated as the XNOR-op outputs; every active component corrupts it in
//   stack order (later models see earlier models' corruption).
// * kProductTerm -- device-faithful: individual a_i XNOR w_i product terms
//   are corrupted before the CMOS popcount. Because LIM crossbars are
//   weight-stationary, a faulty cell corrupts the same (channel, term)
//   coordinate for every output position; masks are therefore shaped
//   [out_channels, K] and folded over the active components (flips XOR,
//   stuck-at OR).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/annotations.hpp"
#include "core/sync.hpp"
#include "fault/fault_model.hpp"
#include "fault/fault_vector_file.hpp"
#include "tensor/bit_matrix.hpp"
#include "tensor/tensor.hpp"

namespace flim::fault {

/// Stateful per-layer fault applier.
class FaultInjector {
 public:
  /// Resolves the entry's components against the model registry; throws on
  /// unknown models, unsupported granularity, an empty component mask, or an
  /// entry without components.
  explicit FaultInjector(FaultVectorEntry entry);

  const FaultVectorEntry& entry() const { return entry_; }
  FaultGranularity granularity() const { return entry_.granularity; }
  std::size_t num_components() const { return components_.size(); }

  /// Returns the 0-based index of this execution and advances the layer
  /// execution counter (call once per image).
  std::int64_t advance_execution() { return execution_counter_++; }

  /// Resets the execution counter (new campaign repetition).
  void reset_time();

  /// True when any component is sensitized at `execution`.
  bool any_active(std::int64_t execution) const;

  /// Output-element granularity: applies every component active at
  /// `execution`, in stack order, to rows [row_begin, row_end) of the
  /// integer feature map (rows = output positions, cols = channels) of one
  /// image. Op i of the image (position-major) maps to virtual slot
  /// i mod num_slots. `full_scale` is K, the product-term count.
  void apply_output_element(tensor::IntTensor& feature,
                            std::int64_t row_begin, std::int64_t row_end,
                            std::int64_t execution,
                            std::int32_t full_scale) const;

  /// Product-term granularity: the folded [out_channels, K] planes of the
  /// components active at `execution`, or nullptr when none is (clean fast
  /// path). Planes are built once per active-component signature and
  /// cached; the cache is mutex-guarded, so concurrent campaign workers
  /// sharing one injector stay race-free. Term op (ch, k) maps to virtual
  /// slot (ch*K + t) mod num_slots.
  const TermMasks* term_masks(std::int64_t out_channels, std::int64_t k,
                              std::int64_t execution);

 private:
  /// Resolved view of one component: the registry model plus a pointer
  /// into entry_.components -- masks and site_values are never copied. The mutex member below makes the injector immovable,
  /// so the pointers stay valid for its whole lifetime.
  struct Component {
    const FaultModel* model = nullptr;
    const RealizedFault* fault = nullptr;
  };

  /// Bitmask over components active at `execution`.
  std::uint64_t active_signature(std::int64_t execution) const;

  FaultVectorEntry entry_;
  std::vector<Component> components_;
  std::int64_t execution_counter_ = 0;

  mutable core::Mutex term_cache_mutex_;
  /// Entries are immutable once inserted and never erased, so the pointer
  /// term_masks() returns stays valid after the lock is released.
  std::map<std::uint64_t, std::unique_ptr<TermMasks>> term_cache_
      FLIM_GUARDED_BY(term_cache_mutex_);
  std::int64_t term_out_channels_ FLIM_GUARDED_BY(term_cache_mutex_) = -1;
  std::int64_t term_k_ FLIM_GUARDED_BY(term_cache_mutex_) = -1;
};

}  // namespace flim::fault
