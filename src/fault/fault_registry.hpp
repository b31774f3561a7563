// String-keyed fault-model registry and the fault-expression language.
//
// Every FaultModel registers under a unique name; campaigns select and
// compose models with declarative expressions:
//
//   expr       := stack-term ('+' stack-term)*
//   stack-term := name | name '(' [param {',' param}] ')'
//   param      := key '=' number
//
// e.g. "bitflip(rate=1e-3)" or "stuckat(rate=5e-4,sa1=0.7)+drift(tau=2000)".
// A parsed expression is a FaultStack: an ordered list of configured models
// applied per layer in stack order (later models see earlier models'
// corruption). canonical() renders the stack with sorted parameters and
// round-trip number formatting, which is the form store fingerprints hash --
// so two spellings of the same stack resume each other's run files.
//
// The registry ships with the paper's three kinds (bitflip, stuckat,
// dynamic) plus the extended scenario space the old FaultKind enum could
// not express (readdisturb, drift, coupling); embedders may add their own
// models at startup via FaultRegistry::add.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "core/sync.hpp"
#include "fault/fault_model.hpp"
#include "fault/fault_vector_file.hpp"

namespace flim::fault {

/// Process-wide model registry. add() is meant for startup wiring (tests,
/// embedders), but the slot table is mutex-guarded so a late registration
/// cannot race the lookups running campaign workers issue; returned
/// FaultModel pointers stay valid for the process lifetime (models are
/// never removed).
class FaultRegistry {
 public:
  /// The singleton, with the built-in models pre-registered.
  static FaultRegistry& instance();

  /// Registers a model; rejects duplicate names.
  void add(std::unique_ptr<FaultModel> model);

  /// Model by name; nullptr when unknown.
  const FaultModel* find(const std::string& name) const;

  /// Model by name; throws std::invalid_argument naming the known models
  /// when unknown.
  const FaultModel& get(const std::string& name) const;

  /// All registered models, sorted by name.
  std::vector<const FaultModel*> models() const;

 private:
  FaultRegistry();
  struct Slot {
    std::string name;
    std::unique_ptr<FaultModel> model;
  };
  /// Unlocked lookup shared by find() and get() (get() holds the lock
  /// across lookup and error-message assembly).
  const FaultModel* find_locked(const std::string& name) const
      FLIM_REQUIRES(mutex_);

  mutable core::Mutex mutex_;
  std::vector<Slot> slots_ FLIM_GUARDED_BY(mutex_);  // name-sorted
};

/// One configured entry of a fault stack.
struct FaultStackItem {
  /// Registry-owned model (never null).
  const FaultModel* model = nullptr;
  /// Resolved (validated) parameters.
  ModelParams params;
};

/// An ordered composition of configured fault models, applied per layer in
/// stack order.
class FaultStack {
 public:
  FaultStack() = default;
  explicit FaultStack(std::vector<FaultStackItem> items)
      : items_(std::move(items)) {}

  const std::vector<FaultStackItem>& items() const { return items_; }
  bool empty() const { return items_.empty(); }

  /// Canonical expression: model names in stack order, parameters sorted,
  /// numbers in round-trip format. This is the fingerprint-stable form.
  std::string canonical() const;

  /// Validates the stack against an injection granularity, throwing
  /// std::invalid_argument with the offending model when a model does not
  /// support it.
  void validate_granularity(FaultGranularity granularity) const;

  /// Validates that the device (X-Fault-style) backend can realize every
  /// model of the stack.
  void validate_device_backend() const;

  /// Realizes the stack for one layer: every component drawn from `rng` in
  /// stack order.
  std::vector<RealizedFault> realize(const RealizeContext& ctx,
                                     core::Rng& rng) const;

  /// Realizes a full fault-vector entry for one layer.
  FaultVectorEntry realize_entry(const std::string& layer_name,
                                 FaultGranularity granularity,
                                 const RealizeContext& ctx,
                                 core::Rng& rng) const;

 private:
  std::vector<FaultStackItem> items_;
};

/// Parses a fault expression against the registry; throws
/// std::invalid_argument with the offending token on malformed input,
/// unknown models, or invalid parameters.
FaultStack parse_fault_expr(const std::string& expr);

/// parse + canonical in one step (validates `expr` as a side effect).
std::string canonical_fault_expr(const std::string& expr);

/// The registered model name of a paper FaultKind.
std::string model_name_for(FaultKind kind);

/// Lowers a single-kind FaultSpec to the equivalent one-model stack
/// ("bitflip(cols=...,rate=...,rows=...)" etc.) after validate(spec) --
/// the one place FaultSpec meets the fault models. Placement settings
/// (distribution, clusters) are not part of the stack; they travel in the
/// RealizeContext.
FaultStack stack_from_spec(const FaultSpec& spec);

}  // namespace flim::fault
