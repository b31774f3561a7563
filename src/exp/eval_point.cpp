#include "exp/eval_point.hpp"

#include <sstream>

#include "bnn/flim_engine.hpp"
#include "core/check.hpp"
#include "core/report.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "fault/residual.hpp"
#include "models/zoo.hpp"
#include "reliability/ecc/registry.hpp"

namespace flim::exp {

namespace {

bool is_known_model(const std::string& name) {
  if (name == "lenet") return true;
  for (const auto& m : models::zoo_model_names()) {
    if (m == name) return true;
  }
  return false;
}

}  // namespace

fault::FaultVectorFile realize_point_vectors(const lim::CrossbarGeometry& grid,
                                             const Workload& workload,
                                             const PointFaultConfig& pc,
                                             core::Rng& rng,
                                             const fault::FaultStack* parsed) {
  fault::RealizeContext ctx;
  ctx.grid = grid;
  ctx.distribution = pc.spec.distribution;
  ctx.cluster_count = pc.spec.cluster_count;
  ctx.cluster_radius = pc.spec.cluster_radius;
  // A point without an expression lowers its FaultSpec to the one-model
  // stack; an expression is parsed here unless the caller already did.
  fault::FaultStack local;
  const fault::FaultStack* stack = parsed;
  if (pc.expr.empty()) {
    local = fault::stack_from_spec(pc.spec);
    stack = &local;
  } else if (stack == nullptr) {
    local = fault::parse_fault_expr(pc.expr);
    stack = &local;
  }

  fault::FaultVectorFile file;
  for (const bnn::LayerWorkload& layer : workload.layers) {
    if (!pc.filter.empty()) {
      bool selected = false;
      for (const auto& f : pc.filter) {
        if (f == layer.layer_name) selected = true;
      }
      if (!selected) continue;
    }
    file.add(
        stack->realize_entry(layer.layer_name, pc.spec.granularity, ctx, rng));
  }
  // The ECC scrub runs AFTER realization: every mask above was drawn from
  // exactly the RNG stream a no-codec run draws, so adding a codec never
  // perturbs the faults it is judged against (and the empty-codec path is
  // bit-identical to pre-ECC builds).
  if (!pc.ecc_expr.empty()) {
    const reliability::ecc::Codec& codec =
        reliability::ecc::CodecRegistry::instance().configure(pc.ecc_expr);
    fault::ResidualOptions residual;
    residual.word_bits = pc.ecc_word_bits;
    residual.interleave = pc.ecc_interleave;
    residual.correct_per_word = codec.capability().correct_guarantee;
    for (fault::FaultVectorEntry& entry : file.mutable_entries()) {
      fault::apply_entry_residual(entry, residual);
    }
  }
  return file;
}

double evaluate_fault_point(const EngineSpec& engine_spec,
                            const lim::CrossbarGeometry& grid,
                            const Workload& workload,
                            const bnn::ForwardPlan& plan, tensor::Workspace& ws,
                            const PointFaultConfig& pc, std::uint64_t seed,
                            const fault::FaultStack* parsed) {
  switch (engine_spec.backend) {
    case Backend::kReference: {
      bnn::ReferenceEngine engine;
      return plan.evaluate(workload.eval_batch, ws, engine);
    }
    case Backend::kFlim:
    case Backend::kDevice: {
      core::Rng rng(seed);
      const fault::FaultVectorFile vectors =
          realize_point_vectors(grid, workload, pc, rng, parsed);
      const auto engine = make_engine(engine_spec, vectors);
      return plan.evaluate(workload.eval_batch, ws, *engine);
    }
    case Backend::kTmr: {
      // Replica r draws its masks from an independent child stream, so the
      // redundant crossbars carry independent fault distributions.
      const core::Rng master(seed);
      std::vector<fault::FaultVectorFile> files;
      files.reserve(static_cast<std::size_t>(engine_spec.tmr_replicas));
      for (int r = 0; r < engine_spec.tmr_replicas; ++r) {
        core::Rng rng = master.derive(static_cast<std::uint64_t>(r));
        files.push_back(realize_point_vectors(grid, workload, pc, rng, parsed));
      }
      const auto engine = make_engine(engine_spec, files);
      return plan.evaluate(workload.eval_batch, ws, *engine);
    }
  }
  FLIM_REQUIRE(false, "unhandled backend");
  return 0.0;
}

void validate(const EvalPointSpec& spec) {
  FLIM_REQUIRE(!spec.workload.model.empty(), "workload model name is required");
  FLIM_REQUIRE(is_known_model(spec.workload.model),
               "unknown model: " + spec.workload.model +
                   " (expected 'lenet' or a Table-II zoo name)");
  FLIM_REQUIRE(spec.workload.eval_images > 0,
               "workload needs >= 1 evaluation image");
  FLIM_REQUIRE(spec.workload.epochs >= 1, "workload needs >= 1 epoch");
  FLIM_REQUIRE(spec.workload.train_samples > 0,
               "workload needs >= 1 training sample");
  FLIM_REQUIRE(spec.repetitions > 0, "eval point needs >= 1 repetition");
  FLIM_REQUIRE(spec.grid.rows > 0 && spec.grid.cols > 0,
               "fault grid must be positive");
  validate(spec.engine);
  if (!spec.fault_expr.empty()) {
    const fault::FaultStack stack = fault::parse_fault_expr(spec.fault_expr);
    stack.validate_granularity(spec.granularity);
    if (spec.engine.backend == Backend::kDevice) {
      stack.validate_device_backend();
    }
  }
}

std::string eval_point_key(const EvalPointSpec& spec) {
  std::ostringstream os;
  os << spec.workload.model << '|' << to_string(spec.engine.backend);
  if (spec.engine.backend == Backend::kTmr) {
    os << ':' << spec.engine.tmr_replicas;
  }
  os << '|' << fault::to_string(spec.granularity) << '|' << spec.grid.rows
     << 'x' << spec.grid.cols << '|';
  if (!spec.fault_expr.empty()) {
    os << fault::canonical_fault_expr(spec.fault_expr);
  }
  return os.str();
}

core::Summary evaluate_eval_point(const EvalPointSpec& spec,
                                  const Workload& workload,
                                  const bnn::ForwardPlan& plan,
                                  std::vector<tensor::Workspace>& workspaces,
                                  core::ThreadPool* pool,
                                  const fault::FaultStack* parsed) {
  const std::size_t workers = pool ? pool->size() : 1;
  FLIM_REQUIRE(workspaces.size() >= workers,
               "evaluate_eval_point needs one workspace per pool worker");
  PointFaultConfig pc;
  pc.spec.granularity = spec.granularity;
  pc.expr = spec.fault_expr;

  core::CampaignConfig campaign;
  campaign.repetitions = spec.repetitions;
  campaign.master_seed = spec.master_seed;
  campaign.pool = pool;
  return core::run_repeated(
      campaign, [&](std::uint64_t seed, std::size_t worker) {
        return evaluate_fault_point(spec.engine, spec.grid, workload, plan,
                                    workspaces[worker], pc, seed, parsed);
      });
}

std::string format_eval_payload(const EvalPointSpec& spec,
                                const core::Summary& summary) {
  const std::string fault = spec.fault_expr.empty()
                                ? std::string()
                                : fault::canonical_fault_expr(spec.fault_expr);
  std::ostringstream os;
  os << "{\"model\": \"" << core::json_escape(spec.workload.model)
     << "\", \"backend\": \"" << to_string(spec.engine.backend)
     << "\", \"tmr_replicas\": " << spec.engine.tmr_replicas
     << ", \"fault\": \"" << core::json_escape(fault)
     << "\", \"granularity\": \"" << fault::to_string(spec.granularity)
     << "\", \"grid\": \"" << spec.grid.rows << 'x' << spec.grid.cols
     << "\", \"images\": " << spec.workload.eval_images
     << ", \"reps\": " << spec.repetitions << ", \"seed\": " << spec.master_seed
     << ", \"mean\": " << core::format_double_roundtrip(summary.mean)
     << ", \"stddev\": " << core::format_double_roundtrip(summary.stddev)
     << ", \"min\": " << core::format_double_roundtrip(summary.min)
     << ", \"max\": " << core::format_double_roundtrip(summary.max) << "}";
  return os.str();
}

}  // namespace flim::exp
