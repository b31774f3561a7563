#include "fault/fault_registry.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "core/check.hpp"
#include "core/report.hpp"

namespace flim::fault {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMaxCount = 1e9;

/// Placement-override parameters shared by every site-placing model.
void add_placement_params(std::vector<ParamInfo>& params) {
  params.push_back({"clustered", 0.0, 0.0, 1.0, true,
                    "placement override: 1 = clustered, 0 = uniform "
                    "(default: the campaign's distribution setting)"});
  params.push_back({"clusters", 0.0, 0.0, kMaxCount, true,
                    "clustered: cluster centers (0 derives one per ~24 "
                    "faults)"});
  params.push_back({"radius", 2.0, 1e-6, kInf, false,
                    "clustered: Gaussian scatter in cells around each "
                    "center"});
}

/// Shared realization skeleton of the paper-kind models: draw the marked
/// sites, mark them (flips, or stuck cells split by `sa1`), then mark whole
/// faulty rows/columns. The RNG draw order is part of the contract: the
/// pinned realizations in fault_test and every campaign CSV depend on it.
RealizedFault realize_placed(const ModelInfo& meta, const ModelParams& params,
                             const RealizeContext& ctx, core::Rng& rng,
                             bool stuck) {
  RealizedFault fault;
  fault.model = meta.name;
  fault.params = params.values();
  FaultMask mask(ctx.grid.rows, ctx.grid.cols);
  const std::int64_t slots = mask.num_slots();

  // "The injection rate specifies the number of elements within the array
  // set to 1": exact count, not per-slot Bernoulli, so the realized rate
  // matches the requested one (up to rounding).
  const double rate = params.get("rate", 0.0);
  const auto marked =
      static_cast<std::int64_t>(std::llround(rate * static_cast<double>(slots)));
  const std::vector<std::int64_t> sites = draw_sites(params, ctx, marked, rng);
  if (stuck) {
    const double sa1 = params.get("sa1", 0.5);
    for (const std::int64_t slot : sites) {
      if (rng.bernoulli(sa1)) {
        mask.set_sa1(slot, true);
      } else {
        mask.set_sa0(slot, true);
      }
    }
  } else {
    for (const std::int64_t slot : sites) {
      mask.set_flip(slot, true);
    }
  }

  // Whole faulty rows / columns (part of the bit-flip mask in the paper:
  // "entire rows/columns may also be faulty; thus, these rows/columns are
  // set to 1").
  const auto rows = static_cast<std::int64_t>(params.get("rows", 0.0));
  const auto cols = static_cast<std::int64_t>(params.get("cols", 0.0));
  FLIM_REQUIRE(rows <= ctx.grid.rows, "more faulty rows than grid rows");
  FLIM_REQUIRE(cols <= ctx.grid.cols, "more faulty columns than grid columns");
  for (const auto r : rng.sample_without_replacement(
           static_cast<std::uint64_t>(ctx.grid.rows),
           static_cast<std::uint64_t>(rows))) {
    mask.mark_row_flip(static_cast<std::int64_t>(r));
  }
  for (const auto c : rng.sample_without_replacement(
           static_cast<std::uint64_t>(ctx.grid.cols),
           static_cast<std::uint64_t>(cols))) {
    mask.mark_col_flip(static_cast<std::int64_t>(c));
  }
  fault.mask = std::move(mask);
  return fault;
}

// ---------------------------------------------------------------------------
// The paper's three kinds as registered models.

class BitFlipModel : public FaultModel {
 public:
  BitFlipModel() {
    info_.name = "bitflip";
    info_.summary =
        "transient bit-flips: the result of marked XNOR ops is inverted";
    info_.time_semantics = "static (active on every execution)";
    info_.params = {
        {"rate", 0.0, 0.0, 1.0, false,
         "fraction of virtual crossbar slots flipped (the paper's injection "
         "rate)"},
        {"rows", 0.0, 0.0, kMaxCount, true, "whole faulty rows (Fig 4e)"},
        {"cols", 0.0, 0.0, kMaxCount, true, "whole faulty columns (Fig 4d)"},
    };
    add_placement_params(info_.params);
  }

  const ModelInfo& info() const override { return info_; }

  RealizedFault realize(const ModelParams& params, const RealizeContext& ctx,
                        core::Rng& rng) const override {
    return realize_placed(info_, params, ctx, rng, /*stuck=*/false);
  }

 private:
  ModelInfo info_;
};

class StuckAtModel : public FaultModel {
 public:
  StuckAtModel() {
    info_.name = "stuckat";
    info_.summary =
        "permanent stuck-at faults: marked XNOR ops pin to the full-scale "
        "logic value";
    info_.time_semantics = "static (active on every execution)";
    info_.params = {
        {"rate", 0.0, 0.0, 1.0, false, "fraction of slots stuck"},
        {"sa1", 0.5, 0.0, 1.0, false,
         "probability that a stuck cell is stuck-at-1 (the rest stick at 0)"},
        {"rows", 0.0, 0.0, kMaxCount, true,
         "whole faulty rows (marked as flips, as in the paper)"},
        {"cols", 0.0, 0.0, kMaxCount, true, "whole faulty columns"},
    };
    add_placement_params(info_.params);
  }

  const ModelInfo& info() const override { return info_; }

  RealizedFault realize(const ModelParams& params, const RealizeContext& ctx,
                        core::Rng& rng) const override {
    return realize_placed(info_, params, ctx, rng, /*stuck=*/true);
  }

 private:
  ModelInfo info_;
};

class DynamicModel : public FaultModel {
 public:
  DynamicModel() {
    info_.name = "dynamic";
    info_.summary =
        "bit-flips sensitized only every period-th execution of the layer";
    info_.time_semantics =
        "periodic: fires on executions period-1, 2*period-1, ... (0 and 1 "
        "mean every execution)";
    info_.params = {
        {"rate", 0.0, 0.0, 1.0, false, "fraction of slots flipped when "
                                       "sensitized"},
        {"period", 0.0, 0.0, kMaxCount, true,
         "sensitization period in layer executions"},
        {"rows", 0.0, 0.0, kMaxCount, true, "whole faulty rows"},
        {"cols", 0.0, 0.0, kMaxCount, true, "whole faulty columns"},
    };
    add_placement_params(info_.params);
  }

  const ModelInfo& info() const override { return info_; }

  RealizedFault realize(const ModelParams& params, const RealizeContext& ctx,
                        core::Rng& rng) const override {
    return realize_placed(info_, params, ctx, rng, /*stuck=*/false);
  }

  bool active(const RealizedFault& fault,
              std::int64_t execution) const override {
    const auto period = static_cast<std::int64_t>(
        std::max(1.0, realized_param(fault, "period", 0.0)));
    // Fires on executions period-1, 2*period-1, ... ("every n-th operation").
    return (execution % period) == period - 1;
  }

 private:
  ModelInfo info_;
};

// ---------------------------------------------------------------------------
// Extended models the FaultKind enum could not express.

class ReadDisturbModel : public FaultModel {
 public:
  ReadDisturbModel() {
    info_.name = "readdisturb";
    info_.summary =
        "activation-dependent transient flips: a marked op is disturbed "
        "only when its accumulator reads above the threshold";
    info_.time_semantics = "static, data-dependent (fires only on matching "
                           "reads)";
    info_.params = {
        {"rate", 0.0, 0.0, 1.0, false, "fraction of slots marked "
                                       "disturb-prone"},
        {"threshold", 0.0, -1.0, 1.0, false,
         "disturb when accumulator > threshold * K (fraction of full "
         "scale)"},
    };
    add_placement_params(info_.params);
    info_.product_term = false;   // data-dependent: no static term planes
    info_.device_backend = false;
  }

  const ModelInfo& info() const override { return info_; }

  RealizedFault realize(const ModelParams& params, const RealizeContext& ctx,
                        core::Rng& rng) const override {
    return realize_placed(info_, params, ctx, rng, /*stuck=*/false);
  }

  void apply_output_element(const RealizedFault& fault,
                            tensor::IntTensor& feature,
                            std::int64_t row_begin, std::int64_t row_end,
                            std::int64_t /*execution*/,
                            std::int32_t full_scale) const override {
    const double threshold = realized_param(fault, "threshold", 0.0);
    const auto cutoff = static_cast<std::int32_t>(
        std::llround(threshold * static_cast<double>(full_scale)));
    const std::int64_t channels = feature.shape()[1];
    const std::int64_t slots = fault.mask.num_slots();
    std::int64_t op = 0;
    for (std::int64_t r = row_begin; r < row_end; ++r) {
      std::int32_t* row = feature.data() + r * channels;
      for (std::int64_t c = 0; c < channels; ++c, ++op) {
        const std::int64_t slot = op % slots;
        // A strong match current through a disturb-prone cell flips it.
        if (fault.mask.flip(slot) && row[c] > cutoff) row[c] = -row[c];
      }
    }
  }

 private:
  ModelInfo info_;
};

class DriftModel : public FaultModel {
 public:
  DriftModel() {
    info_.name = "drift";
    info_.summary =
        "conductance aging: marked cells become permanently stuck after a "
        "per-cell onset execution with mean tau";
    info_.time_semantics =
        "monotone in time: stuck probability grows as 1 - exp(-t/tau) over "
        "layer executions t";
    info_.params = {
        {"rate", 0.0, 0.0, 1.0, false, "fraction of slots that age"},
        {"tau", 2000.0, 1e-6, 1e15, false,
         "mean onset in layer executions (exponential per-cell onsets)"},
        {"sa1", 0.5, 0.0, 1.0, false,
         "probability that an aged cell sticks at 1 (the rest stick at 0)"},
    };
    add_placement_params(info_.params);
    info_.product_term = false;   // time-varying planes
    info_.device_backend = false;
  }

  const ModelInfo& info() const override { return info_; }

  RealizedFault realize(const ModelParams& params, const RealizeContext& ctx,
                        core::Rng& rng) const override {
    RealizedFault fault;
    fault.model = info_.name;
    fault.params = params.values();
    FaultMask mask(ctx.grid.rows, ctx.grid.cols);
    const std::int64_t slots = mask.num_slots();
    const double rate = params.get("rate", 0.0);
    const double tau = params.get("tau", 2000.0);
    const double sa1 = params.get("sa1", 0.5);
    const auto marked = static_cast<std::int64_t>(
        std::llround(rate * static_cast<double>(slots)));
    const std::vector<std::int64_t> sites =
        draw_sites(params, ctx, marked, rng);
    fault.site_values.assign(static_cast<std::size_t>(slots), -1);
    std::int64_t min_onset = std::numeric_limits<std::int64_t>::max();
    for (const std::int64_t slot : sites) {
      // Exponential onset with mean tau, floored to whole executions.
      const double u = rng.uniform_double();
      const double onset_d = std::min(-tau * std::log1p(-u), 1e15);
      const auto onset = static_cast<std::int64_t>(std::floor(onset_d));
      fault.site_values[static_cast<std::size_t>(slot)] = onset;
      min_onset = std::min(min_onset, onset);
      // The eventual stuck polarity is drawn up front (planes mark where
      // the cell will land, site_values when it gets there).
      if (rng.bernoulli(sa1)) {
        mask.set_sa1(slot, true);
      } else {
        mask.set_sa0(slot, true);
      }
    }
    fault.first_active =
        sites.empty() ? std::numeric_limits<std::int64_t>::max() : min_onset;
    fault.mask = std::move(mask);
    return fault;
  }

  void apply_output_element(const RealizedFault& fault,
                            tensor::IntTensor& feature,
                            std::int64_t row_begin, std::int64_t row_end,
                            std::int64_t execution,
                            std::int32_t full_scale) const override {
    const std::int64_t channels = feature.shape()[1];
    const std::int64_t slots = fault.mask.num_slots();
    FLIM_REQUIRE(fault.site_values.size() ==
                     static_cast<std::size_t>(slots),
                 "drift component is missing its per-slot onset vector");
    std::int64_t op = 0;
    for (std::int64_t r = row_begin; r < row_end; ++r) {
      std::int32_t* row = feature.data() + r * channels;
      for (std::int64_t c = 0; c < channels; ++c, ++op) {
        const std::int64_t slot = op % slots;
        const std::int64_t onset =
            fault.site_values[static_cast<std::size_t>(slot)];
        if (onset < 0 || execution < onset) continue;
        // The polarity planes gate the pin as well as choosing its sign: a
        // cell whose planes were cleared (e.g. by an ECC scrub of the
        // vector file) injects nothing even after its onset.
        if (fault.mask.sa1(slot)) {
          row[c] = +full_scale;
        } else if (fault.mask.sa0(slot)) {
          row[c] = -full_scale;
        }
      }
    }
  }

 private:
  ModelInfo info_;
};

class CouplingModel : public FaultModel {
 public:
  CouplingModel() {
    info_.name = "coupling";
    info_.summary =
        "spatially correlated flips: seed faults disturb crossbar "
        "neighbors with probability strength";
    info_.time_semantics = "static (active on every execution)";
    info_.params = {
        {"rate", 0.0, 0.0, 1.0, false, "fraction of slots seeded with a "
                                       "flip"},
        {"strength", 0.5, 0.0, 1.0, false,
         "probability that each grid neighbor of a seed also flips"},
        {"reach", 1.0, 1.0, 8.0, true,
         "neighborhood radius in cells (Chebyshev distance)"},
    };
    add_placement_params(info_.params);
  }

  const ModelInfo& info() const override { return info_; }

  RealizedFault realize(const ModelParams& params, const RealizeContext& ctx,
                        core::Rng& rng) const override {
    RealizedFault fault;
    fault.model = info_.name;
    fault.params = params.values();
    FaultMask mask(ctx.grid.rows, ctx.grid.cols);
    const std::int64_t slots = mask.num_slots();
    const double rate = params.get("rate", 0.0);
    const double strength = params.get("strength", 0.5);
    const auto reach = static_cast<std::int64_t>(params.get("reach", 1.0));
    const auto marked = static_cast<std::int64_t>(
        std::llround(rate * static_cast<double>(slots)));
    const std::vector<std::int64_t> seeds =
        draw_sites(params, ctx, marked, rng);
    for (const std::int64_t slot : seeds) {
      mask.set_flip(slot, true);
    }
    // Each seed disturbs its not-yet-flipped neighbors independently;
    // row-major offset order keeps the draw sequence deterministic.
    for (const std::int64_t seed : seeds) {
      const std::int64_t r0 = seed / ctx.grid.cols;
      const std::int64_t c0 = seed % ctx.grid.cols;
      for (std::int64_t dr = -reach; dr <= reach; ++dr) {
        for (std::int64_t dc = -reach; dc <= reach; ++dc) {
          if (dr == 0 && dc == 0) continue;
          const std::int64_t r = r0 + dr;
          const std::int64_t c = c0 + dc;
          if (r < 0 || r >= ctx.grid.rows || c < 0 || c >= ctx.grid.cols) {
            continue;
          }
          const std::int64_t slot = r * ctx.grid.cols + c;
          if (mask.flip(slot)) continue;
          if (rng.bernoulli(strength)) mask.set_flip(slot, true);
        }
      }
    }
    fault.mask = std::move(mask);
    return fault;
  }

 private:
  ModelInfo info_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Registry.

FaultRegistry::FaultRegistry() {
  add(std::make_unique<BitFlipModel>());
  add(std::make_unique<StuckAtModel>());
  add(std::make_unique<DynamicModel>());
  add(std::make_unique<ReadDisturbModel>());
  add(std::make_unique<DriftModel>());
  add(std::make_unique<CouplingModel>());
}

FaultRegistry& FaultRegistry::instance() {
  static FaultRegistry registry;
  return registry;
}

void FaultRegistry::add(std::unique_ptr<FaultModel> model) {
  FLIM_REQUIRE(model != nullptr, "cannot register a null fault model");
  const std::string& name = model->info().name;
  FLIM_REQUIRE(!name.empty(), "fault model name must be non-empty");
  const core::MutexLock lock(mutex_);
  const auto at = std::lower_bound(
      slots_.begin(), slots_.end(), name,
      [](const Slot& s, const std::string& n) { return s.name < n; });
  FLIM_REQUIRE(at == slots_.end() || at->name != name,
               "fault model '" + name + "' is already registered");
  slots_.insert(at, Slot{name, std::move(model)});
}

const FaultModel* FaultRegistry::find_locked(const std::string& name) const {
  const auto at = std::lower_bound(
      slots_.begin(), slots_.end(), name,
      [](const Slot& s, const std::string& n) { return s.name < n; });
  if (at == slots_.end() || at->name != name) return nullptr;
  return at->model.get();
}

const FaultModel* FaultRegistry::find(const std::string& name) const {
  const core::MutexLock lock(mutex_);
  return find_locked(name);
}

const FaultModel& FaultRegistry::get(const std::string& name) const {
  const core::MutexLock lock(mutex_);
  const FaultModel* model = find_locked(name);
  if (model == nullptr) {
    std::string known;
    for (const Slot& s : slots_) {
      if (!known.empty()) known += ", ";
      known += s.name;
    }
    FLIM_REQUIRE(false, "unknown fault model: '" + name +
                            "' (registered models: " + known + ")");
  }
  return *model;
}

std::vector<const FaultModel*> FaultRegistry::models() const {
  const core::MutexLock lock(mutex_);
  std::vector<const FaultModel*> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) out.push_back(s.model.get());
  return out;
}

// ---------------------------------------------------------------------------
// Fault stacks and the expression language.

std::string FaultStack::canonical() const {
  std::string out;
  for (const FaultStackItem& item : items_) {
    if (!out.empty()) out += "+";
    out += item.model->info().name;
    const auto& values = item.params.values();
    if (!values.empty()) {
      out += "(";
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (i) out += ",";
        out += values[i].first + "=" +
               core::format_double_shortest(values[i].second);
      }
      out += ")";
    }
  }
  return out;
}

void FaultStack::validate_granularity(FaultGranularity granularity) const {
  for (const FaultStackItem& item : items_) {
    const ModelInfo& meta = item.model->info();
    if (granularity == FaultGranularity::kProductTerm) {
      FLIM_REQUIRE(meta.product_term,
                   "fault model '" + meta.name +
                       "' does not support product-term granularity (its "
                       "effect is not a static per-term plane); use "
                       "output-element granularity");
    } else {
      FLIM_REQUIRE(meta.output_element,
                   "fault model '" + meta.name +
                       "' does not support output-element granularity");
    }
  }
}

void FaultStack::validate_device_backend() const {
  for (const FaultStackItem& item : items_) {
    const ModelInfo& meta = item.model->info();
    FLIM_REQUIRE(meta.device_backend,
                 "fault model '" + meta.name +
                     "' is not supported by the device backend (it does "
                     "not reduce to per-gate flips plus static stuck "
                     "cells); use --engine flim");
  }
}

std::vector<RealizedFault> FaultStack::realize(const RealizeContext& ctx,
                                               core::Rng& rng) const {
  std::vector<RealizedFault> components;
  components.reserve(items_.size());
  for (const FaultStackItem& item : items_) {
    components.push_back(item.model->realize(item.params, ctx, rng));
  }
  return components;
}

FaultVectorEntry FaultStack::realize_entry(const std::string& layer_name,
                                           FaultGranularity granularity,
                                           const RealizeContext& ctx,
                                           core::Rng& rng) const {
  FaultVectorEntry entry;
  entry.layer_name = layer_name;
  entry.granularity = granularity;
  entry.components = realize(ctx, rng);
  return entry;
}

FaultStack parse_fault_expr(const std::string& expr) {
  const FaultRegistry& registry = FaultRegistry::instance();
  TermScanner scan(expr, "fault", "model");
  if (scan.done()) {
    FLIM_REQUIRE(false, "empty fault expression (expected e.g. "
                        "\"bitflip(rate=1e-3)\")");
  }
  std::vector<FaultStackItem> items;
  while (true) {
    const std::size_t name_pos = scan.pos();
    const std::string name = scan.name();
    const FaultModel* model = registry.find(name);
    if (model == nullptr) {
      std::string known;
      for (const FaultModel* m : registry.models()) {
        if (!known.empty()) known += ", ";
        known += m->info().name;
      }
      scan.fail(name_pos, "unknown fault model '" + name +
                              "' (registered models: " + known + ")");
    }

    FaultStackItem item;
    item.model = model;
    item.params = make_params(scan.params());
    model->validate(item.params);
    items.push_back(std::move(item));

    if (scan.done()) break;
    if (!scan.accept('+')) {
      scan.fail(scan.pos(), "expected '+' between stacked models");
    }
  }
  return FaultStack(std::move(items));
}

std::string canonical_fault_expr(const std::string& expr) {
  return parse_fault_expr(expr).canonical();
}

std::string model_name_for(FaultKind kind) {
  switch (kind) {
    case FaultKind::kBitFlip: return "bitflip";
    case FaultKind::kStuckAt: return "stuckat";
    case FaultKind::kDynamic: return "dynamic";
  }
  FLIM_REQUIRE(false, "unhandled fault kind");
  return "";
}

FaultStack stack_from_spec(const FaultSpec& spec) {
  validate(spec);
  const FaultRegistry& registry = FaultRegistry::instance();
  std::vector<std::pair<std::string, double>> params;
  params.emplace_back("rate", spec.injection_rate);
  params.emplace_back("rows", static_cast<double>(spec.faulty_rows));
  params.emplace_back("cols", static_cast<double>(spec.faulty_cols));
  if (spec.kind == FaultKind::kStuckAt) {
    params.emplace_back("sa1", spec.stuck_at_one_fraction);
  }
  if (spec.kind == FaultKind::kDynamic) {
    params.emplace_back("period", static_cast<double>(spec.dynamic_period));
  }
  FaultStackItem item;
  item.model = &registry.get(model_name_for(spec.kind));
  item.params = make_params(std::move(params));
  return FaultStack({std::move(item)});
}

}  // namespace flim::fault
