// Single-point fault evaluation: the serving-path unit of work.
//
// ScenarioRunner sweeps an axis grid; the evaluation server (src/serve) and
// `flim_cli eval` answer one point at a time. Both shapes bottom out in the
// same primitive -- realize fault vectors for a seed, build an engine, run
// the compiled forward plan -- so that primitive lives here as public API
// instead of scenario.cpp's former file-local helpers. The payoff is the
// serving contract: a served eval_result is byte-identical to a direct
// in-process evaluation because both funnel through evaluate_eval_point()
// and format_eval_payload().
#pragma once

/// \file
/// Single-point fault evaluation: PointFaultConfig (one resolved grid
/// point), per-repetition realization/evaluation, EvalPointSpec (the
/// serving request as data), cache keying, and the canonical one-line
/// result payload. See docs/serving.md.

#include <cstdint>
#include <string>
#include <vector>

#include "bnn/plan.hpp"
#include "core/campaign.hpp"
#include "exp/scenario.hpp"
#include "fault/fault_registry.hpp"
#include "fault/fault_vector_file.hpp"
#include "lim/mapper.hpp"
#include "tensor/workspace.hpp"

namespace flim::exp {

/// The fault configuration of one resolved point: either a composable
/// fault expression (when `expr` is non-empty) or the single-kind fields of
/// `spec`, which lower to the equivalent one-model stack. Granularity and
/// the distribution/cluster placement settings always come from `spec`.
struct PointFaultConfig {
  /// Single-kind fields plus granularity/placement settings.
  fault::FaultSpec spec;
  /// Composable fault expression; empty selects the single-kind fields.
  std::string expr;
  /// Layer filter (empty = all binarized layers).
  std::vector<std::string> filter;
  /// ECC scrub codec expression (registry grammar); empty = no scrub. When
  /// set, realized masks are scrubbed down to their residual before the
  /// injector sees them -- AFTER mask realization, so the RNG stream (and
  /// therefore every no-codec result) is untouched.
  std::string ecc_expr;
  /// Data cells per ECC word of the scrub organization.
  int ecc_word_bits = 64;
  /// Bit-interleaving degree of the scrub organization.
  int ecc_interleave = 1;
};

/// Draws the fault vectors of one repetition: one entry per selected
/// binarized layer, each the point's FaultStack realized from `rng` in
/// layer order -- the parsed `pc.expr`, or `pc.spec` lowered through
/// fault::stack_from_spec (which validates it). `parsed` optionally
/// supplies the already-parsed stack for `pc.expr` (the warm serving path
/// parses once per cache entry, not once per repetition); pass nullptr to
/// parse or lower here. Parsing never touches `rng`, so both modes draw
/// identical masks.
fault::FaultVectorFile realize_point_vectors(
    const lim::CrossbarGeometry& grid, const Workload& workload,
    const PointFaultConfig& pc, core::Rng& rng,
    const fault::FaultStack* parsed = nullptr);

/// One repetition: realize the fault vectors for `seed`, build the engine
/// through the factory, evaluate through the compiled plan. The plan is
/// built once per workload and shared read-only; `ws` is the calling
/// worker's private arena, reused across repetitions (only the injector
/// masks change between invocations). Returns the accuracy fraction,
/// bit-identical to the legacy Model::evaluate path.
///
/// `prefix`, when given, holds the clean activations of `plan` for
/// `workload.eval_batch.images`. A flim or tmr repetition then starts at
/// the first root holding a layer of its realized fault vectors, and a
/// reference repetition reads the clean logits; the accuracy is
/// bit-identical to the full pass. The device backend always runs the full
/// pass: its crossbars simulate the clean layers too.
double evaluate_fault_point(const EngineSpec& engine,
                            const lim::CrossbarGeometry& grid,
                            const Workload& workload,
                            const bnn::ForwardPlan& plan,
                            tensor::Workspace& ws, const PointFaultConfig& pc,
                            std::uint64_t seed,
                            const fault::FaultStack* parsed = nullptr,
                            bnn::CleanPrefix* prefix = nullptr);

/// One single-point evaluation request as data: workload, substrate, fault
/// stack, and the repetition protocol. This is the serving layer's request
/// shape -- `flim_cli eval` builds one directly, the server decodes one
/// from an eval_request wire message -- and the unit the warm-entry cache
/// is keyed on (eval_point_key()).
struct EvalPointSpec {
  /// Which model/dataset to evaluate.
  WorkloadSpec workload;
  /// Which execution substrate runs the binarized layers.
  EngineSpec engine;
  /// Composable fault expression (fault_registry.hpp grammar); empty
  /// evaluates the clean model.
  std::string fault_expr;
  /// Mask granularity of the realized fault vectors.
  fault::FaultGranularity granularity = fault::FaultGranularity::kOutputElement;
  /// Virtual crossbar grid the masks are drawn on.
  lim::CrossbarGeometry grid{64, 64};
  /// Repetition protocol.
  int repetitions = 3;
  /// Master seed; each repetition derives an independent seed from it.
  std::uint64_t master_seed = 2023;
};

/// Validates an eval-point spec, throwing std::invalid_argument on nonsense
/// values (unknown model, bad expression, granularity or backend the fault
/// stack rejects).
void validate(const EvalPointSpec& spec);

/// The warm-entry cache key of a spec: model, backend (with replica count
/// for tmr), granularity, grid, and the *canonical* fault expression --
/// so two spellings of one stack share a pool entry. Repetitions and the
/// master seed are deliberately absent: they are per-request parameters a
/// warm entry accepts at evaluation time. The workload shape (eval images,
/// training budget) is server-wide and therefore absent too; see
/// docs/serving.md#cache-keying.
std::string eval_point_key(const EvalPointSpec& spec);

/// Evaluates one point: `spec.repetitions` derived-seed repetitions folded
/// index-ordered into a Summary (accuracy fraction), bit-identical serial
/// vs pooled (core::run_repeated's contract). `workspaces` must hold at
/// least one arena per pool worker (one when `pool` is null). `parsed`
/// optionally supplies the pre-parsed fault stack, as in
/// realize_point_vectors(), and `prefix` the plan's clean activations, as
/// in evaluate_fault_point().
core::Summary evaluate_eval_point(const EvalPointSpec& spec,
                                  const Workload& workload,
                                  const bnn::ForwardPlan& plan,
                                  std::vector<tensor::Workspace>& workspaces,
                                  core::ThreadPool* pool = nullptr,
                                  const fault::FaultStack* parsed = nullptr,
                                  bnn::CleanPrefix* prefix = nullptr);

/// Renders the canonical one-line JSON result payload: the resolved spec
/// (canonical fault expression, report-name backend/granularity, "RxC"
/// grid) plus the summary with 17-digit round-trip doubles. Every serving
/// front-end -- direct `flim_cli eval`, the server's eval_result -- emits
/// exactly this string for a given (spec, summary), which is what makes
/// "served equals direct, byte for byte" a testable contract.
std::string format_eval_payload(const EvalPointSpec& spec,
                                const core::Summary& summary);

}  // namespace flim::exp
