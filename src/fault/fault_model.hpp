// Composable fault models: the polymorphic core of the fault subsystem.
//
// The paper encodes three fault kinds (bit-flip, stuck-at, dynamic). Rather
// than switching on that taxonomy in the injector, both engines and the CLI,
// each kind is a FaultModel: a plugin that owns
//   * its parameter schema (declarative, range-checked, self-documenting),
//   * its mask realization (how fault sites are drawn on the virtual grid),
//   * its time semantics (when the realized faults are sensitized), and
//   * its application (how an active fault corrupts XNOR outputs or
//     product terms).
// Models are registered by name (fault_registry.hpp) and compose into an
// ordered FaultStack parsed from expressions such as
// "stuckat(rate=5e-4,sa1=0.7)+drift(tau=2000)"; the stack is realized per
// layer into RealizedFault components -- the only form a fault vector takes
// -- that the injector and engines apply polymorphically. The three paper
// kinds are ordinary registered models; a FaultSpec lowers to one of them
// through stack_from_spec.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "fault/fault_mask.hpp"
#include "fault/fault_spec.hpp"
#include "lim/mapper.hpp"
#include "tensor/bit_matrix.hpp"
#include "tensor/tensor.hpp"

namespace flim::fault {

/// One declared parameter of a fault model.
struct ParamInfo {
  /// Parameter key in expressions ("rate", "tau", ...).
  std::string name;
  /// Value used when the expression omits the parameter.
  double default_value = 0.0;
  /// Inclusive accepted range; violations are rejected at parse time.
  double min_value = -std::numeric_limits<double>::infinity();
  double max_value = std::numeric_limits<double>::infinity();
  /// Whether the value must be a whole number (counts, periods).
  bool integer = false;
  /// One-line description for `flim_cli faults`.
  std::string doc;
};

/// Static description of one registered fault model.
struct ModelInfo {
  /// Registry key and expression name ("bitflip", "drift", ...).
  std::string name;
  /// One-line summary for listings.
  std::string summary;
  /// Human-readable time semantics ("static", "every period-th execution",
  /// "grows with execution count", ...).
  std::string time_semantics;
  /// Declared parameters, in documentation order.
  std::vector<ParamInfo> params;
  /// Granularity support: can the model corrupt feature-map elements?
  bool output_element = true;
  /// Granularity support: does the model reduce to static flip/stuck-at
  /// planes applicable before the CMOS popcount?
  bool product_term = true;
  /// Whether the device (X-Fault-style) engine can realize the model. Only
  /// models whose effect reduces to per-gate flips with a pure time gate
  /// plus statically stuck result cells qualify.
  bool device_backend = true;
};

/// A resolved parameter set: the explicitly given (name, value) pairs,
/// sorted by name (the canonical order used in fingerprints), with defaults
/// supplied on lookup.
class ModelParams {
 public:
  ModelParams() = default;
  /// `values` must be sorted by name and free of duplicates
  /// (parse_fault_expr and make_params guarantee both).
  explicit ModelParams(std::vector<std::pair<std::string, double>> values)
      : values_(std::move(values)) {}

  /// The explicitly set parameters in canonical (sorted) order.
  const std::vector<std::pair<std::string, double>>& values() const {
    return values_;
  }

  /// Value of `name`, or `fallback` when not explicitly set.
  double get(const std::string& name, double fallback) const;
  /// True when the parameter was explicitly set.
  bool has(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Shared placement policy for mask realization: the virtual grid plus the
/// spatial distribution of randomly placed sites. Models may override the
/// distribution via their `clustered`/`clusters`/`radius` parameters.
struct RealizeContext {
  lim::CrossbarGeometry grid{64, 64};
  FaultDistribution distribution = FaultDistribution::kUniform;
  int cluster_count = 0;
  double cluster_radius = 2.0;
};

/// One realized fault component: a model name, its canonical parameters,
/// and the drawn per-layer state. Components are pure data -- behaviour
/// lives in the FaultModel resolved from `model` -- so they serialize into
/// fault-vector files and replay identically.
struct RealizedFault {
  /// Registry key of the producing model.
  std::string model;
  /// Canonical (sorted) explicitly-set parameters.
  std::vector<std::pair<std::string, double>> params;
  /// Realized fault planes on the virtual grid.
  FaultMask mask;
  /// Model-defined per-slot auxiliary values (e.g. drift onset executions);
  /// empty for models without per-site state.
  std::vector<std::int64_t> site_values;
  /// First execution index at which the component can be active (0 = from
  /// the start). Lets the injector skip fully dormant components cheaply.
  std::int64_t first_active = 0;

  bool operator==(const RealizedFault& other) const {
    return model == other.model && params == other.params &&
           mask == other.mask && site_values == other.site_values &&
           first_active == other.first_active;
  }
};

/// Cached product-term mask planes shaped [out_channels, K].
struct TermMasks {
  tensor::BitMatrix flip;
  tensor::BitMatrix sa0;
  tensor::BitMatrix sa1;
};

/// Abstract fault model. Implementations are stateless singletons owned by
/// the registry; all per-layer state lives in RealizedFault.
class FaultModel {
 public:
  virtual ~FaultModel() = default;

  /// Static description: name, parameters, time semantics, support matrix.
  virtual const ModelInfo& info() const = 0;

  /// Resolves `params` against the declared schema: unknown names and
  /// out-of-range values throw std::invalid_argument with the offending
  /// key. Hook for cross-parameter rules.
  virtual void validate(const ModelParams& params) const;

  /// Draws one realized component on `ctx.grid`. The RNG consumption order
  /// is part of each model's contract: for the three paper kinds it is
  /// pinned by committed checksums (fault_test, exp_test), which keeps
  /// campaign CSVs byte-identical across releases.
  virtual RealizedFault realize(const ModelParams& params,
                                const RealizeContext& ctx,
                                core::Rng& rng) const = 0;

  /// Time semantics: is the component sensitized at 0-based layer execution
  /// `execution`? Default: static (always active once past first_active).
  virtual bool active(const RealizedFault& fault,
                      std::int64_t execution) const;

  /// Output-element application: corrupts rows [row_begin, row_end) of the
  /// integer feature map (rows = output positions, cols = channels). Op i
  /// of the image (position-major) maps to virtual slot i mod num_slots.
  /// Default: plane semantics -- a flipped op negates the accumulator, a
  /// stuck op pins it to the full-scale ±K value. Only called when
  /// active(fault, execution) is true.
  virtual void apply_output_element(const RealizedFault& fault,
                                    tensor::IntTensor& feature,
                                    std::int64_t row_begin,
                                    std::int64_t row_end,
                                    std::int64_t execution,
                                    std::int32_t full_scale) const;

  /// Product-term application: folds the component's planes into the
  /// [out_channels, K] term masks (term (ch, k) maps to virtual slot
  /// (ch*K + k) mod num_slots). Flips compose by XOR (two stacked flip
  /// mechanisms cancel), stuck-at planes by OR. Only called for models with
  /// info().product_term while active; must not depend on the execution
  /// index beyond the active() gate.
  virtual void fold_term_planes(const RealizedFault& fault, TermMasks& masks,
                                std::int64_t out_channels,
                                std::int64_t k) const;
};

/// Draws `marked` distinct flat slot indices on `ctx.grid` honoring the
/// effective distribution (ctx defaults, overridable via the model's
/// `clustered`/`clusters`/`radius` parameters). Shared by every placement-
/// based model; uniform placement draws exactly `marked` samples without
/// replacement.
std::vector<std::int64_t> draw_sites(const ModelParams& params,
                                     const RealizeContext& ctx,
                                     std::int64_t marked, core::Rng& rng);

/// Builds a ModelParams from unordered (name, value) pairs: sorts by name
/// and rejects duplicates.
ModelParams make_params(std::vector<std::pair<std::string, double>> values);

/// Tokenizer of the `name(key=number,...)` term grammar that fault
/// expressions ("stuckat(rate=5e-4)+drift(tau=2)") and codec expressions
/// ("hamming(d=64,k=8)") share. Each parser keeps what lies around a term:
/// '+' stacking, trailing-text rejection and its registry lookup. Errors
/// throw std::invalid_argument reading "bad <kind> expression '<expr>' at
/// position <pos>: <what>".
class TermScanner {
 public:
  /// `kind` names the expression in errors ("fault", "codec"); `head`
  /// names what a term starts with ("model", "codec"). `expr` must
  /// outlive the scanner.
  TermScanner(const std::string& expr, const char* kind, const char* head)
      : expr_(expr), kind_(kind), head_(head) {}

  /// Skips blanks; true when nothing is left.
  bool done();
  /// Offset of the next unread character.
  std::size_t pos() const { return pos_; }
  /// Skips blanks, then consumes `c` if it comes next.
  bool accept(char c);
  /// Reads an identifier after blanks: a term head or a parameter key.
  std::string name();
  /// Reads an optional "(key=number,...)" list; no list reads as empty.
  std::vector<std::pair<std::string, double>> params();
  /// Throws the positioned parse error.
  [[noreturn]] void fail(std::size_t at, const std::string& what) const;

 private:
  void skip_blanks();

  const std::string& expr_;
  const char* kind_;
  const char* head_;
  std::size_t pos_ = 0;
};

/// Value of an explicitly-set parameter of a realized component, or
/// `fallback` when the component's expression omitted it.
double realized_param(const RealizedFault& fault, const std::string& name,
                      double fallback);

}  // namespace flim::fault
