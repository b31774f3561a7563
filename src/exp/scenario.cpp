#include "exp/scenario.hpp"

#include <map>
#include <optional>

#include "bnn/flim_engine.hpp"
#include "bnn/plan.hpp"
#include "core/check.hpp"
#include "core/journal.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "exp/eval_point.hpp"
#include "exp/store.hpp"
#include "tensor/workspace.hpp"
#include "data/synthetic_imagenet.hpp"
#include "data/synthetic_mnist.hpp"
#include "fault/fault_registry.hpp"
#include "models/pretrained.hpp"
#include "models/zoo.hpp"
#include "reliability/ecc/registry.hpp"

namespace flim::exp {

namespace {

bool is_zoo_model(const std::string& name) {
  for (const auto& m : models::zoo_model_names()) {
    if (m == name) return true;
  }
  return false;
}

void apply_axis_value(PointFaultConfig& pc, const ScenarioAxis& axis,
                      const AxisValue& value) {
  switch (axis.kind) {
    case AxisKind::kInjectionRate:
      pc.spec.injection_rate = value.number;
      break;
    case AxisKind::kDynamicPeriod:
      pc.spec.dynamic_period = static_cast<int>(value.number);
      break;
    case AxisKind::kFaultyRows:
      pc.spec.faulty_rows = static_cast<std::int64_t>(value.number);
      break;
    case AxisKind::kFaultyCols:
      pc.spec.faulty_cols = static_cast<std::int64_t>(value.number);
      break;
    case AxisKind::kStuckAtOneFraction:
      pc.spec.stuck_at_one_fraction = value.number;
      break;
    case AxisKind::kFaultKind:
      pc.spec.kind =
          static_cast<fault::FaultKind>(static_cast<std::uint8_t>(value.number));
      break;
    case AxisKind::kLayers:
      if (value.text.empty() || value.text == "combined" ||
          value.text == "all") {
        pc.filter.clear();
      } else {
        pc.filter = {value.text};
      }
      break;
    case AxisKind::kFaultExpr:
      pc.expr = value.text;
      break;
    case AxisKind::kEccCodec:
      pc.ecc_expr = value.text;
      break;
  }
}

PointFaultConfig resolve_point(const ScenarioSpec& spec,
                               const std::vector<std::size_t>& indices) {
  PointFaultConfig pc;
  pc.spec = spec.fault;
  pc.expr = spec.fault_expr;
  pc.filter = spec.layer_filter;
  pc.ecc_expr = spec.ecc_expr;
  pc.ecc_word_bits = spec.ecc_word_bits;
  pc.ecc_interleave = spec.ecc_interleave;
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    apply_axis_value(pc, spec.axes[a], spec.axes[a].values[indices[a]]);
  }
  return pc;
}

/// Calls `fn(indices)` for every cell of the axis grid in row-major order
/// (last axis fastest). With no axes, fn sees one empty index vector.
void for_each_cell(const std::vector<ScenarioAxis>& axes,
                   const std::function<void(const std::vector<std::size_t>&)>&
                       fn) {
  std::vector<std::size_t> sizes;
  sizes.reserve(axes.size());
  for (const ScenarioAxis& axis : axes) sizes.push_back(axis.values.size());
  core::for_each_grid_index(sizes, fn);
}

/// Every layer name a spec's filters can select. A name that matches no
/// binarized layer of the workload would silently realize zero faults and
/// report clean accuracy, so the runner rejects it up front. The
/// all-layers sentinels ("", "combined", "all") are exempt.
void check_layer_filters(const ScenarioSpec& spec, const Workload& workload) {
  auto check = [&](const std::string& name) {
    if (name.empty() || name == "combined" || name == "all") return;
    for (const bnn::LayerWorkload& layer : workload.layers) {
      if (layer.layer_name == name) return;
    }
    FLIM_REQUIRE(false, "layer filter names no binarized layer of " +
                            workload.model.name() + ": " + name);
  };
  for (const std::string& name : spec.layer_filter) check(name);
  for (const ScenarioAxis& axis : spec.axes) {
    if (axis.kind != AxisKind::kLayers) continue;
    for (const AxisValue& value : axis.values) check(value.text);
  }
}

}  // namespace

Workload load_workload(const WorkloadSpec& spec) {
  models::PretrainOptions opts;
  opts.epochs = spec.epochs;
  opts.train_samples = spec.train_samples;
  opts.verbose = spec.verbose;
  if (!spec.weights_dir.empty()) opts.cache_dir = spec.weights_dir;
  opts.force_retrain = spec.force_retrain;

  Workload w;
  if (spec.model == "lenet") {
    data::SyntheticMnistOptions d;
    d.size = spec.train_samples + spec.eval_images;
    data::SyntheticMnist ds(d);
    w.model = models::pretrained_lenet(ds, opts);
    w.eval_batch = data::load_batch(ds, spec.train_samples, spec.eval_images);
    w.layers =
        w.model.analyze(tensor::FloatTensor(tensor::Shape{1, 1, 28, 28}, 0.5f))
            .binarized_layers;
    w.dataset_name = ds.name();
  } else if (is_zoo_model(spec.model)) {
    data::SyntheticImagenetOptions d;
    d.size = spec.train_samples + spec.eval_images;
    data::SyntheticImagenet ds(d);
    w.model = models::pretrained_zoo_model(spec.model, ds, opts);
    w.eval_batch = data::load_batch(ds, spec.train_samples, spec.eval_images);
    w.layers =
        w.model.analyze(tensor::FloatTensor(tensor::Shape{1, 3, 32, 32}, 0.3f))
            .binarized_layers;
    w.dataset_name = ds.name();
  } else {
    FLIM_REQUIRE(false, "unknown model: " + spec.model +
                            " (expected 'lenet' or a Table-II zoo name)");
  }
  if (spec.measure_clean_accuracy) {
    bnn::ReferenceEngine ref;
    w.clean_accuracy = w.model.evaluate(w.eval_batch, ref);
  }
  return w;
}

ScenarioAxis rate_axis(const std::vector<double>& rates) {
  ScenarioAxis axis{AxisKind::kInjectionRate, "rate", {}};
  for (const double r : rates) {
    axis.values.push_back({r, "", core::format_double(r, 3)});
  }
  return axis;
}

ScenarioAxis period_axis(const std::vector<int>& periods) {
  ScenarioAxis axis{AxisKind::kDynamicPeriod, "period", {}};
  for (const int p : periods) {
    axis.values.push_back({static_cast<double>(p), "", std::to_string(p)});
  }
  return axis;
}

ScenarioAxis faulty_rows_axis(const std::vector<int>& rows) {
  ScenarioAxis axis{AxisKind::kFaultyRows, "faulty_rows", {}};
  for (const int r : rows) {
    axis.values.push_back({static_cast<double>(r), "", std::to_string(r)});
  }
  return axis;
}

ScenarioAxis faulty_cols_axis(const std::vector<int>& cols) {
  ScenarioAxis axis{AxisKind::kFaultyCols, "faulty_cols", {}};
  for (const int c : cols) {
    axis.values.push_back({static_cast<double>(c), "", std::to_string(c)});
  }
  return axis;
}

ScenarioAxis stuck_at_one_fraction_axis(const std::vector<double>& fractions) {
  ScenarioAxis axis{AxisKind::kStuckAtOneFraction, "sa1_fraction", {}};
  for (const double f : fractions) {
    axis.values.push_back({f, "", core::format_double(f, 2)});
  }
  return axis;
}

ScenarioAxis kind_axis(const std::vector<fault::FaultKind>& kinds) {
  ScenarioAxis axis{AxisKind::kFaultKind, "kind", {}};
  for (const fault::FaultKind k : kinds) {
    axis.values.push_back({static_cast<double>(static_cast<std::uint8_t>(k)),
                           "", fault::to_string(k)});
  }
  return axis;
}

ScenarioAxis fault_expr_axis(const std::vector<std::string>& exprs) {
  ScenarioAxis axis{AxisKind::kFaultExpr, "fault", {}};
  for (std::size_t i = 0; i < exprs.size(); ++i) {
    // Canonical text and label: two spellings of the same stack share
    // report labels and store fingerprints.
    const std::string canonical = fault::canonical_fault_expr(exprs[i]);
    axis.values.push_back({static_cast<double>(i), canonical, canonical});
  }
  return axis;
}

ScenarioAxis fault_expr_axis(const std::string& pattern,
                             const std::vector<double>& rates) {
  FLIM_REQUIRE(pattern.find('@') != std::string::npos,
               "rate-placeholder expansion needs a '@' in the fault "
               "expression (e.g. \"bitflip(rate=@)\"); got: " + pattern);
  std::vector<std::string> exprs;
  exprs.reserve(rates.size());
  for (const double rate : rates) {
    std::string expanded;
    for (const char c : pattern) {
      if (c == '@') {
        expanded += core::format_double_shortest(rate);
      } else {
        expanded += c;
      }
    }
    exprs.push_back(std::move(expanded));
  }
  return fault_expr_axis(exprs);
}

ScenarioAxis ecc_codec_axis(const std::vector<std::string>& exprs) {
  ScenarioAxis axis{AxisKind::kEccCodec, "ecc", {}};
  for (std::size_t i = 0; i < exprs.size(); ++i) {
    // The no-scrub sentinel keeps its "none" label but stores empty text,
    // so resolve_point sees the same empty-means-off convention as
    // ScenarioSpec::ecc_expr. Real expressions canonicalize so spellings
    // share labels and store fingerprints, like fault_expr_axis.
    if (exprs[i].empty() || exprs[i] == "none") {
      axis.values.push_back({static_cast<double>(i), "", "none"});
      continue;
    }
    const std::string canonical = reliability::ecc::canonical_codec_expr(exprs[i]);
    axis.values.push_back({static_cast<double>(i), canonical, canonical});
  }
  return axis;
}

ScenarioAxis layers_axis(const std::vector<std::string>& series) {
  ScenarioAxis axis{AxisKind::kLayers, "layer", {}};
  for (std::size_t i = 0; i < series.size(); ++i) {
    axis.values.push_back({static_cast<double>(i), series[i], series[i]});
  }
  return axis;
}

void validate(const ScenarioSpec& spec) {
  FLIM_REQUIRE(!spec.workload.model.empty(), "workload model name is required");
  FLIM_REQUIRE(spec.workload.model == "lenet" ||
                   is_zoo_model(spec.workload.model),
               "unknown model: " + spec.workload.model +
                   " (expected 'lenet' or a Table-II zoo name)");
  FLIM_REQUIRE(spec.workload.eval_images > 0,
               "workload needs >= 1 evaluation image");
  FLIM_REQUIRE(spec.workload.epochs >= 1, "workload needs >= 1 epoch");
  FLIM_REQUIRE(spec.workload.train_samples > 0,
               "workload needs >= 1 training sample");
  FLIM_REQUIRE(spec.repetitions > 0, "scenario needs >= 1 repetition");
  FLIM_REQUIRE(spec.jobs >= 1, "jobs must be >= 1");
  FLIM_REQUIRE(spec.grid.rows > 0 && spec.grid.cols > 0,
               "fault grid must be positive");
  validate(spec.engine);
  FLIM_REQUIRE(spec.ecc_word_bits > 0, "ecc_word_bits must be positive");
  FLIM_REQUIRE(spec.ecc_interleave > 0, "ecc_interleave must be positive");
  for (const ScenarioAxis& axis : spec.axes) {
    FLIM_REQUIRE(!axis.values.empty(),
                 "sweep axis '" + axis.name + "' has no values");
  }
  // Resolve every grid point so a bad axis value fails now, not mid-run.
  // Expressions repeat across points, so parse each distinct one once.
  std::map<std::string, fault::FaultStack> parsed;
  for_each_cell(spec.axes, [&](const std::vector<std::size_t>& indices) {
    const PointFaultConfig pc = resolve_point(spec, indices);
    if (!pc.ecc_expr.empty()) {
      // configure() caches per canonical expression, so re-validating each
      // grid point is a map lookup, and a bad codec fails now, not mid-run.
      reliability::ecc::CodecRegistry::instance().configure(pc.ecc_expr);
    }
    if (pc.expr.empty()) {
      fault::validate(pc.spec);
      return;
    }
    // Expression points take only placement/granularity from the legacy
    // spec; its single-kind fields (injection_rate et al.) are unused, so
    // the clustered-needs-a-rate rule must not fire on them -- the rates
    // live in the model parameters. Every other field check still applies.
    fault::FaultSpec placement = pc.spec;
    placement.distribution = fault::FaultDistribution::kUniform;
    fault::validate(placement);
    auto it = parsed.find(pc.expr);
    if (it == parsed.end()) {
      it = parsed.emplace(pc.expr, fault::parse_fault_expr(pc.expr)).first;
    }
    it->second.validate_granularity(pc.spec.granularity);
    if (spec.engine.backend == Backend::kDevice) {
      it->second.validate_device_backend();
    }
  });
}

const core::Summary& ScenarioResult::at(
    const std::vector<std::size_t>& indices) const {
  FLIM_REQUIRE(complete(),
               "at() needs a complete result (a sharded run holds only its "
               "own grid slice; merge the shard run files first)");
  FLIM_REQUIRE(indices.size() == axis_sizes.size(),
               "index rank must match axis count");
  std::size_t flat = 0;
  for (std::size_t a = 0; a < indices.size(); ++a) {
    FLIM_REQUIRE(indices[a] < axis_sizes[a], "axis index out of range");
    flat = flat * axis_sizes[a] + indices[a];
  }
  return points[flat].metric;
}

core::Table ScenarioResult::to_table() const {
  std::vector<std::string> columns = axis_names;
  columns.insert(columns.end(),
                 {"accuracy_%", "stddev_%", "min_%", "max_%"});
  core::Table table(columns);
  for (const ScenarioPoint& p : points) {
    std::vector<std::string> row = p.labels;
    row.push_back(core::format_double(p.metric.mean * 100.0, 2));
    row.push_back(core::format_double(p.metric.stddev * 100.0, 2));
    row.push_back(core::format_double(p.metric.min * 100.0, 2));
    row.push_back(core::format_double(p.metric.max * 100.0, 2));
    table.add_row(std::move(row));
  }
  return table;
}

void ScenarioResult::write_csv(const std::string& path) const {
  to_table().write_csv(path);
}

void ScenarioResult::write_json(const std::string& path) const {
  to_table().write_json(path);
}

ScenarioRunner::ScenarioRunner(ScenarioSpec spec) : spec_(std::move(spec)) {
  validate(spec_);
}

ScenarioResult ScenarioRunner::run(
    const std::function<void(const ScenarioPoint&)>& on_point) {
  const Workload workload = load_workload(spec_.workload);
  return run(workload, StoreOptions{}, on_point);
}

ScenarioResult ScenarioRunner::run(
    const Workload& workload,
    const std::function<void(const ScenarioPoint&)>& on_point) {
  return run(workload, StoreOptions{}, on_point);
}

ScenarioResult ScenarioRunner::run(
    const StoreOptions& store,
    const std::function<void(const ScenarioPoint&)>& on_point) {
  const Workload workload = load_workload(spec_.workload);
  return run(workload, store, on_point);
}

ScenarioResult ScenarioRunner::run(
    const Workload& workload, const StoreOptions& store,
    const std::function<void(const ScenarioPoint&)>& on_point) {
  check_layer_filters(spec_, workload);
  core::check_shard(store.shard_index, store.shard_count);

  std::size_t total_points = 1;
  for (const ScenarioAxis& axis : spec_.axes) {
    total_points *= axis.values.size();
  }

  // Restore completed points from the resume file, if the journal's
  // fresh-start rule says there is one to load.
  std::map<std::size_t, ScenarioPoint> restored;
  bool resume_in_place = false;
  std::size_t resume_prefix_bytes = 0;
  if (!store.resume_from.empty() &&
      core::journal_to_resume(store.resume_from, kRunHeaderTag, "run file")) {
    const RunFile prior = RunFile::load(store.resume_from);
    const std::string fingerprint = spec_fingerprint(spec_);
    FLIM_REQUIRE(prior.header.fingerprint == fingerprint,
                 "resume file " + store.resume_from +
                     " was produced by a different spec (fingerprint " +
                     prior.header.fingerprint + ", this spec is " +
                     fingerprint + ")");
    FLIM_REQUIRE(prior.header.total_points == total_points,
                 "resume file grid size mismatch: " + store.resume_from);
    FLIM_REQUIRE(prior.header.shard_index == store.shard_index &&
                     prior.header.shard_count == store.shard_count,
                 "resume file " + store.resume_from + " belongs to shard " +
                     std::to_string(prior.header.shard_index) + "/" +
                     std::to_string(prior.header.shard_count) +
                     ", not this run's shard");
    for (const StoredPoint& sp : prior.points) {
      FLIM_REQUIRE(
          core::shard_owns(sp.flat_index, store.shard_index,
                           store.shard_count),
          "resume file holds a point outside this shard's slice");
      restored.emplace(sp.flat_index, sp.point);
    }
    resume_in_place = store.store_path == store.resume_from;
    resume_prefix_bytes = prior.valid_prefix_bytes;
  }

  // Open the store. Resuming in place truncates any torn tail and appends;
  // a fresh store re-logs restored points so the file is self-contained.
  std::optional<RunStoreWriter> writer;
  if (!store.store_path.empty()) {
    if (resume_in_place) {
      writer.emplace(RunStoreWriter::resume(
          store.store_path, resume_prefix_bytes, store.fsync_each_point));
    } else {
      writer.emplace(store.store_path,
                     make_run_header(spec_, workload.clean_accuracy,
                                     store.shard_index, store.shard_count),
                     store.fsync_each_point);
      for (const auto& [flat, point] : restored) {
        writer->append(flat, point);
      }
    }
  }

  core::CampaignConfig campaign;
  campaign.repetitions = spec_.repetitions;
  campaign.master_seed = spec_.master_seed;
  std::optional<core::ThreadPool> pool;
  if (spec_.jobs > 1) {
    pool.emplace(static_cast<std::size_t>(spec_.jobs));
    campaign.pool = &*pool;
  }

  // Compile the forward pass once per (workload, engine) pair; every grid
  // point and repetition reuses it -- only the injector masks change. Each
  // campaign worker owns one Workspace for the whole sweep, so steady-state
  // inference allocates nothing.
  const bnn::ForwardPlan plan(workload.model,
                              workload.eval_batch.images.shape());
  const std::size_t workers = pool ? pool->size() : 1;
  std::vector<tensor::Workspace> workspaces(workers);

  ScenarioResult result;
  result.name = spec_.name;
  result.backend = to_string(spec_.engine.backend);
  result.clean_accuracy = workload.clean_accuracy;
  result.total_points = total_points;
  for (const ScenarioAxis& axis : spec_.axes) {
    result.axis_names.push_back(axis.name);
    result.axis_sizes.push_back(axis.values.size());
  }

  // Axes are swept over value indices so categorical axes (layer series)
  // ride the same numeric grid machinery. Zero axes evaluate one cell.
  std::vector<core::SweepAxis> core_axes;
  core_axes.reserve(spec_.axes.size());
  for (const ScenarioAxis& axis : spec_.axes) {
    core::SweepAxis ca{axis.name, {}};
    ca.points.reserve(axis.values.size());
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      ca.points.push_back({static_cast<double>(i), axis.values[i].label});
    }
    core_axes.push_back(std::move(ca));
  }

  auto to_indices = [&](const std::vector<double>& coords) {
    std::vector<std::size_t> indices(coords.size());
    for (std::size_t a = 0; a < coords.size(); ++a) {
      indices[a] = static_cast<std::size_t>(coords[a]);
    }
    return indices;
  };
  auto to_scenario_point = [&](const core::GridPoint& cell) {
    ScenarioPoint p;
    p.labels = cell.labels;
    p.values.reserve(cell.coords.size());
    for (std::size_t a = 0; a < cell.coords.size(); ++a) {
      const std::size_t i = static_cast<std::size_t>(cell.coords[a]);
      p.values.push_back(spec_.axes[a].values[i].number);
    }
    p.metric = cell.metric;
    return p;
  };

  // Only cells this shard owns and the resume file does not already hold
  // are evaluated; per-cell repetition seeds depend solely on the master
  // seed, so the skipped cells would have produced exactly the restored
  // summaries (run_grid_sweep_selected's contract).
  const auto selector = [&](std::size_t flat) {
    return core::shard_owns(flat, store.shard_index, store.shard_count) &&
           restored.find(flat) == restored.end();
  };
  const std::vector<core::SelectedGridPoint> cells =
      core::run_grid_sweep_selected(
          campaign, core_axes, selector,
          [&](const std::vector<double>& coords, std::uint64_t seed,
              std::size_t worker) {
            const PointFaultConfig pc = resolve_point(spec_, to_indices(coords));
            return evaluate_fault_point(spec_.engine, spec_.grid, workload,
                                        plan, workspaces[worker], pc, seed);
          },
          [&](const core::SelectedGridPoint& cell) {
            const ScenarioPoint p = to_scenario_point(cell.point);
            if (writer) writer->append(cell.flat_index, p);
            if (on_point) on_point(p);
          });

  // Fold restored and freshly evaluated points into ascending flat order.
  auto cell_it = cells.begin();
  for (std::size_t flat = 0; flat < total_points; ++flat) {
    if (!core::shard_owns(flat, store.shard_index, store.shard_count)) {
      continue;
    }
    const auto done = restored.find(flat);
    if (done != restored.end()) {
      result.points.push_back(done->second);
    } else {
      FLIM_REQUIRE(cell_it != cells.end() && cell_it->flat_index == flat,
                   "internal: grid cell was neither restored nor evaluated");
      result.points.push_back(to_scenario_point(cell_it->point));
      ++cell_it;
    }
    result.flat_indices.push_back(flat);
  }
  return result;
}

}  // namespace flim::exp
