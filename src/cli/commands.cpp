#include "cli/commands.hpp"

#include <atomic>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>

#include "bnn/plan.hpp"
#include "core/backoff.hpp"
#include "core/check.hpp"
#include "core/clock.hpp"
#include "core/minijson.hpp"
#include "core/report.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "exp/eval_point.hpp"
#include "exp/scenario.hpp"
#include "exp/store.hpp"
#include "fault/fault_registry.hpp"
#include "fault/fault_vector_file.hpp"
#include "fault/residual.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/protocol.hpp"
#include "fleet/worker.hpp"
#include "serve/server.hpp"
#include "reliability/ecc/exhaust.hpp"
#include "reliability/ecc/exhaust_store.hpp"
#include "reliability/ecc/registry.hpp"
#include "reliability/lifetime.hpp"
#include "reliability/march.hpp"
#include "reliability/monitor.hpp"

namespace flim::cli {

namespace {

fault::FaultKind parse_kind(const std::string& s) {
  if (s == "bitflip" || s == "bit-flip") return fault::FaultKind::kBitFlip;
  if (s == "stuckat" || s == "stuck-at") return fault::FaultKind::kStuckAt;
  if (s == "dynamic") return fault::FaultKind::kDynamic;
  FLIM_REQUIRE(false, "unknown fault kind: " + s +
                          " (expected bitflip|stuckat|dynamic)");
  return fault::FaultKind::kBitFlip;
}

fault::FaultGranularity parse_granularity(const std::string& s) {
  if (s == "output" || s == "output-element") {
    return fault::FaultGranularity::kOutputElement;
  }
  if (s == "term" || s == "product-term") {
    return fault::FaultGranularity::kProductTerm;
  }
  FLIM_REQUIRE(false, "unknown granularity: " + s + " (expected output|term)");
  return fault::FaultGranularity::kOutputElement;
}

fault::FaultDistribution parse_distribution(const std::string& s) {
  if (s == "uniform") return fault::FaultDistribution::kUniform;
  if (s == "clustered") return fault::FaultDistribution::kClustered;
  FLIM_REQUIRE(false, "unknown distribution: " + s +
                          " (expected uniform|clustered)");
  return fault::FaultDistribution::kUniform;
}

/// Maps the shared model/training flags onto a workload spec; the scenario
/// layer owns the actual dataset/train/cache wiring.
exp::WorkloadSpec workload_from(const Args& args) {
  exp::WorkloadSpec w;
  w.model = args.get_string("model", "lenet");
  w.eval_images = args.get_int("images", 300);
  w.epochs = static_cast<int>(args.get_int("epochs", 3));
  w.train_samples = args.get_int("samples", 3000);
  w.verbose = args.has("verbose");
  if (args.has("weights-dir")) {
    w.weights_dir = args.get_string("weights-dir");
  }
  w.force_retrain = args.has("retrain");
  return w;
}

/// Parses "RxC" grid flags.
lim::CrossbarGeometry parse_grid(const Args& args, const std::string& flag,
                                 const std::string& fallback) {
  const std::string grid_str = args.get_string(flag, fallback);
  const auto x = grid_str.find('x');
  FLIM_REQUIRE(x != std::string::npos,
               "--" + flag + " expects RxC, e.g. " + fallback);
  return {std::stoll(grid_str.substr(0, x)),
          std::stoll(grid_str.substr(x + 1))};
}

/// Writes an ephemeral-bound port for launch scripts, atomically (tmp +
/// rename) so a polling launcher never reads a torn file. Empty path = off.
void write_port_file(const std::string& path, int port) {
  if (path.empty()) return;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    FLIM_REQUIRE(out.good(), "cannot write port file: " + tmp);
    out << port << "\n";
  }
  std::filesystem::rename(tmp, path);
}

}  // namespace

void print_usage() {
  std::cout <<
      R"(flim_cli -- fault injection for logic-in-memory BNNs

usage: flim_cli <command> [flags]

commands:
  generate   draw fault masks and write a fault-vector file
             --out FILE (required), --layers a,b,c (required)
             --kind bitflip|stuckat|dynamic  --rate R (0..1)
             or --fault EXPR (composable model stack; replaces --kind/--rate)
             --grid RxC (default 64x64)  --faulty-rows N  --faulty-cols N
             --period N (dynamic)  --sa1-fraction F  --granularity output|term
             --distribution uniform|clustered [--clusters N]
             [--cluster-radius R]  --seed S
  inspect    summarize a fault-vector file: --file FILE
  faults     list the registered fault models (name, params, time semantics)
             [--describe MODEL (full parameter docs)]
             [--expr EXPR (parse/validate an expression, print its
              canonical form)]
             expression grammar: name(k=v,...)+name(...), e.g.
             stuckat(rate=5e-4,sa1=0.7)+drift(tau=2000)
  train      train and cache a model
             --model lenet|<zoo name>  --epochs N  --samples N
             [--weights-dir DIR] [--retrain] [--verbose]
  evaluate   clean vs faulty accuracy
             --model M  --vectors FILE  [--images N] [--weights-dir DIR]
             [--engine flim|device|tmr]
  eval       one fault-evaluation point (the serving request shape); prints
             a canonical one-line JSON payload, byte-identical between the
             direct and --connect paths for the same request
             --model M  [--engine reference|flim|device|tmr] [--fault EXPR]
             [--granularity output|term] [--grid RxC] [--reps N] [--seed S]
             [--jobs N] [--out FILE (also write the payload line there)]
             direct workload shape: [--images N] [--epochs N] [--samples N]
             [--weights-dir DIR] [--retrain] [--verbose]
             remote: [--connect HOST:PORT (ask a running serve instance;
              the workload shape is the server's)] [--deadline-ms MS]
             [--busy-retries N] [--io-timeout-ms MS] [--connect-attempts N]
  serve      long-running evaluation server for `eval --connect`: keeps
             trained workloads, compiled plans, and parsed fault stacks
             warm between requests; coalesces same-key requests; answers
             busy under load; drains gracefully on SIGTERM (docs/serving.md)
             [--host A] [--port P (default 0 = ephemeral)] [--port-file F
              (write the bound port for launch scripts)]
             [--cache N (warm entries, default 8)] [--queue N (default 64)]
             [--batch-max N (default 8)] [--jobs N (parallel repetitions)]
             [--busy-retry-ms MS]  server-wide workload shape: [--images N]
             [--epochs N] [--samples N] [--weights-dir DIR]
  campaign   repeated-seed sweep over injection rates or fault expressions
             --model M  --kind K  --rates 0,0.05,0.1  [--reps N]
             or --fault EXPR: sweep a composable fault stack; a '@'
              placeholder is expanded with each --rates value, e.g.
              --fault drift(rate=@,tau=500) --rates 0.01,0.05; without
              '@' the stack is evaluated as a single point
             [--engine flim|device|tmr]  [--jobs N (parallel repetitions)]
             [--granularity output|term] [--grid RxC] [--csv FILE]
             [--json FILE]
             [--ecc EXPR (scrub every realized mask down to the codec's
              residual before injection; "none" = off)]
             [--ecc-word-bits N (default 64)] [--ecc-interleave K]
             durability: [--store RUNFILE (stream each completed point; an
              existing RUNFILE with a matching spec is resumed in place,
              never overwritten)]  [--resume RUNFILE (skip its points;
              continues RUNFILE unless --store names another file)]
             [--shard I/N (evaluate the deterministic 0-based slice I of N;
              requires --store)]
  campaign serve   coordinate a worker fleet over TCP until the grid is
             complete, then merge the uploaded shards (same spec flags as
             campaign; the merged CSV is byte-identical to a single-process
             run)
             --shards N (default 2)  [--host A] [--port P (default 7641;
              0 binds an ephemeral port)] [--port-file F (write the bound
              port for launch scripts)]
             [--lease-ttl-ms MS (default 30000; must exceed the slowest
              point)] [--heartbeat-ms MS] [--wait-retry-ms MS]
             [--work-dir DIR (default fleet-work)] [--csv FILE] [--json FILE]
  campaign work    lease and run shards for a coordinator (same spec flags
             as campaign; the spec fingerprint must match the coordinator's
             or the worker is rejected)
             [--host A] [--port P]  [--name ID]  [--work-dir DIR (shared
              with other workers to resume abandoned shards)]
             [--heartbeat-ms MS (0 = adopt the grant's cadence)]
             [--io-timeout-ms MS] [--connect-attempts N] [--no-fsync]
             [--max-points N (testing: simulate a crash after N points)]
  campaign status  inspect run files: fingerprint, shard, progress, torn
             tail bytes; exits 0 only when every file is complete
             flim_cli campaign status <run-file>...
  merge      fold shard run files into one campaign result
             --inputs a.run.jsonl,b.run.jsonl,...  [--csv FILE] [--json FILE]
             (validates spec fingerprints, rejects overlaps and gaps; the
              merged CSV is byte-identical to a single-process run)
  march      offline March test of a simulated crossbar
             --algorithm mats+|marchx|marchc-|raw1|all  [--grid RxC]
             single-fault mode: --inject KIND --at R,C [--severity S]
             coverage mode:     --coverage [--samples N] [--severity S]
             (KIND: stuckat0 stuckat1 stuckcurrent drift slowset slowreset
              readdisturb incorrectread)
  scrub      ECC scrub of a fault-vector file (residual = what the workload
             actually sees after per-word correction)
             --in FILE --out FILE [--word-bits N] [--interleave K]
             [--codec EXPR (default secded; e.g. bch(d=64,t=2) widens the
              correction radius to 2 faults/word)]
  ecc        codec registry tools (docs/ecc.md)
             ecc [list]             registered families + default geometry
             ecc --describe FAMILY  parameter schema, capability, cost
             ecc exhaust            walk EVERY error placement of the given
               weights through a codec and classify each as corrected,
               detected, or aliased (silent corruption)
               --codec EXPR  --weights 1,2,3  [--burst (contiguous windows
                instead of combinations)]  [--chunk N] [--data-seed S]
               [--jobs N] [--csv FILE] [--json FILE]
               durability: [--store FILE (checkpoint; an existing store
                with a matching spec resumes in place)]  [--shard I/N
                (deterministic chunk slice; requires --store)]
             ecc merge              fold shard stores into the full result
               --inputs a.jsonl,b.jsonl,...  [--csv FILE] [--json FILE]
               (byte-identical CSV to a single-process run)
             ecc pareto             ECC-method x fault-expression sweep:
               accuracy retained vs parity/column/cycle overhead
               [--model M] [--faults 'e1;e2' (';'-separated)]
               [--codecs 'none;secded;bch(d=64,t=2)'] [--reps N] [--seed S]
               [--grid RxC] [--word-bits N] [--interleave K] [--jobs N]
               [--csv FILE] [--json FILE]  workload shape: [--images N]
               [--epochs N] [--samples N] [--weights-dir DIR]
  monitor    canary-monitor detection latency against a fault-vector file
             --vectors FILE --layer NAME [--period N] [--slots N]
             [--policy roundrobin|random] [--reps N] [--seed S]
  lifetime   accuracy-over-lifetime simulation with a mitigation stack
             --model M  [--mitigation none|scrub|scrub+ecc|scrub+ecc+tmr]
             [--horizon H] [--step H] [--wearout-scale H] [--wearout-shape B]
             [--upsets-per-hour R] [--grid RxC] [--images N] [--csv FILE]
)";
}

namespace {

/// Aggregate plane population counts of an entry, summed over its
/// realized components.
struct EntryCounts {
  std::int64_t flips = 0;
  std::int64_t sa0 = 0;
  std::int64_t sa1 = 0;
};

EntryCounts count_entry(const fault::FaultVectorEntry& entry) {
  EntryCounts counts;
  for (const fault::RealizedFault& c : entry.components) {
    counts.flips += c.mask.count_flip();
    counts.sa0 += c.mask.count_sa0();
    counts.sa1 += c.mask.count_sa1();
  }
  return counts;
}

std::string entry_grid_string(const fault::FaultVectorEntry& entry) {
  const fault::FaultMask mask = entry.combined_mask();
  return std::to_string(mask.rows()) + "x" + std::to_string(mask.cols());
}

}  // namespace

int cmd_generate(const Args& args) {
  args.require_known({"out", "layers", "kind", "fault", "rate", "grid",
                      "faulty-rows", "faulty-cols", "period", "sa1-fraction",
                      "granularity", "seed", "distribution", "clusters",
                      "cluster-radius"});
  const std::string out_path = args.get_string("out");
  FLIM_REQUIRE(!out_path.empty(), "--out is required");
  const auto layers = args.get_list("layers");
  FLIM_REQUIRE(!layers.empty(), "--layers is required (comma-separated)");

  const lim::CrossbarGeometry grid = parse_grid(args, "grid", "64x64");
  const std::string fault_expr = args.get_string("fault");

  fault::FaultSpec spec;
  spec.injection_rate = args.get_double("rate", 0.0);
  spec.faulty_rows = args.get_int("faulty-rows", 0);
  spec.faulty_cols = args.get_int("faulty-cols", 0);
  spec.dynamic_period = static_cast<int>(args.get_int("period", 0));
  spec.stuck_at_one_fraction = args.get_double("sa1-fraction", 0.5);
  spec.granularity = parse_granularity(args.get_string("granularity", "output"));
  spec.distribution =
      parse_distribution(args.get_string("distribution", "uniform"));
  spec.cluster_count = static_cast<int>(args.get_int("clusters", 0));
  spec.cluster_radius = args.get_double("cluster-radius", 2.0);

  fault::FaultStack stack;
  if (fault_expr.empty()) {
    // The single-kind flags are sugar for the matching one-model stack.
    spec.kind = parse_kind(args.get_string("kind", "bitflip"));
    stack = fault::stack_from_spec(spec);
  } else {
    // Every single-kind flag is rejected (not silently ignored): their
    // meanings live in the model parameters now.
    FLIM_REQUIRE(!args.has("kind") && !args.has("rate") &&
                     !args.has("faulty-rows") && !args.has("faulty-cols") &&
                     !args.has("period") && !args.has("sa1-fraction"),
                 "--fault replaces --kind/--rate/--faulty-rows/--faulty-cols/"
                 "--period/--sa1-fraction; express them as model parameters, "
                 "e.g. --fault 'stuckat(rate=0.05,sa1=0.7,rows=2)' or "
                 "'dynamic(rate=0.05,period=4)'");
    stack = fault::parse_fault_expr(fault_expr);
  }
  stack.validate_granularity(spec.granularity);
  fault::RealizeContext ctx;
  ctx.grid = grid;
  ctx.distribution = spec.distribution;
  ctx.cluster_count = spec.cluster_count;
  ctx.cluster_radius = spec.cluster_radius;
  core::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 42)));
  fault::FaultVectorFile file;
  for (const auto& layer : layers) {
    file.add(stack.realize_entry(layer, spec.granularity, ctx, rng));
  }
  std::cout << "fault stack: " << stack.canonical() << "\n";
  for (const auto& entry : file.entries()) {
    const EntryCounts counts = count_entry(entry);
    std::cout << entry.layer_name << ": " << counts.flips << " flips, "
              << counts.sa0 << " SA0, " << counts.sa1 << " SA1 on "
              << grid.rows << "x" << grid.cols << "\n";
  }
  file.save(out_path);
  std::cout << "wrote " << file.size() << " fault vectors to " << out_path
            << "\n";
  return 0;
}

int cmd_inspect(const Args& args) {
  args.require_known({"file"});
  const std::string path = args.get_string("file");
  FLIM_REQUIRE(!path.empty(), "--file is required");
  const fault::FaultVectorFile file = fault::FaultVectorFile::load(path);
  core::Table table({"layer", "fault", "granularity", "grid", "flips", "sa0",
                     "sa1"});
  for (const auto& e : file.entries()) {
    const EntryCounts counts = count_entry(e);
    table.add(e.layer_name, e.describe(), to_string(e.granularity),
              entry_grid_string(e), counts.flips, counts.sa0, counts.sa1);
  }
  core::print_table(std::cout, path, table);
  return 0;
}

int cmd_faults(const Args& args) {
  args.require_known({"describe", "expr"});
  const fault::FaultRegistry& registry = fault::FaultRegistry::instance();

  const std::string expr = args.get_string("expr");
  if (!expr.empty()) {
    const fault::FaultStack stack = fault::parse_fault_expr(expr);
    std::cout << "canonical: " << stack.canonical() << "\n";
    core::Table table({"model", "params", "time"});
    for (const fault::FaultStackItem& item : stack.items()) {
      std::string params;
      for (const auto& [key, value] : item.params.values()) {
        if (!params.empty()) params += ",";
        params += key + "=" + core::format_double_shortest(value);
      }
      if (params.empty()) params = "(defaults)";
      table.add(item.model->info().name, params,
                item.model->info().time_semantics);
    }
    core::print_table(std::cout, "fault stack (" +
                                     std::to_string(stack.items().size()) +
                                     " components)",
                      table);
    return 0;
  }

  const std::string name = args.get_string("describe");
  if (!name.empty()) {
    const fault::FaultModel& model = registry.get(name);
    const fault::ModelInfo& meta = model.info();
    std::cout << meta.name << ": " << meta.summary << "\n"
              << "time semantics: " << meta.time_semantics << "\n"
              << "granularity:    " << (meta.output_element ? "output" : "")
              << (meta.output_element && meta.product_term ? "|" : "")
              << (meta.product_term ? "term" : "") << "\n"
              << "device engine:  " << (meta.device_backend ? "yes" : "no")
              << "\n";
    core::Table table({"param", "default", "range", "doc"});
    for (const fault::ParamInfo& p : meta.params) {
      const std::string lo = std::isinf(p.min_value)
                                 ? std::string("-inf")
                                 : core::format_double_shortest(p.min_value);
      const std::string hi = std::isinf(p.max_value)
                                 ? std::string("inf")
                                 : core::format_double_shortest(p.max_value);
      table.add(p.name, core::format_double_shortest(p.default_value),
                "[" + lo + ", " + hi + "]" + (p.integer ? " int" : ""),
                p.doc);
    }
    core::print_table(std::cout, "parameters of " + meta.name, table);
    return 0;
  }

  core::Table table({"model", "params", "time", "granularity", "device"});
  for (const fault::FaultModel* model : registry.models()) {
    const fault::ModelInfo& meta = model->info();
    std::string params;
    for (const fault::ParamInfo& p : meta.params) {
      if (!params.empty()) params += ",";
      params += p.name;
    }
    std::string granularity;
    if (meta.output_element) granularity += "output";
    if (meta.product_term) granularity += granularity.empty() ? "term" : "|term";
    table.add(meta.name, params, meta.time_semantics, granularity,
              meta.device_backend ? "yes" : "no");
  }
  core::print_table(std::cout, "registered fault models", table);
  std::cout << "describe one with: flim_cli faults --describe MODEL\n"
            << "compose with '+': flim_cli campaign --fault "
               "\"stuckat(rate=5e-4,sa1=0.7)+drift(tau=2000)\"\n";
  return 0;
}

int cmd_train(const Args& args) {
  args.require_known({"model", "epochs", "samples", "weights-dir", "retrain",
                      "verbose", "images"});
  exp::WorkloadSpec spec = workload_from(args);
  spec.measure_clean_accuracy = true;
  const exp::Workload loaded = exp::load_workload(spec);
  std::cout << loaded.model.name() << ": held-out accuracy "
            << core::format_double(loaded.clean_accuracy * 100.0, 2) << "% on "
            << loaded.eval_batch.labels.size() << " images\n";
  return 0;
}

int cmd_evaluate(const Args& args) {
  args.require_known({"model", "vectors", "images", "weights-dir", "epochs",
                      "samples", "retrain", "verbose", "engine"});
  const std::string vectors_path = args.get_string("vectors");
  FLIM_REQUIRE(!vectors_path.empty(), "--vectors is required");
  exp::EngineSpec engine_spec;
  engine_spec.backend = exp::parse_backend(args.get_string("engine", "flim"));
  FLIM_REQUIRE(engine_spec.backend != exp::Backend::kReference,
               "--engine reference would ignore the vectors; pick "
               "flim|device|tmr");
  const exp::Workload loaded = exp::load_workload(workload_from(args));
  const fault::FaultVectorFile vectors =
      fault::FaultVectorFile::load(vectors_path);

  exp::EngineSpec clean_spec;
  clean_spec.backend = exp::Backend::kReference;
  const auto clean = exp::make_engine(clean_spec);
  const auto faulty = exp::make_engine(engine_spec, vectors);
  // One compiled plan + one arena serves both evaluations (bit-identical to
  // the legacy Model::evaluate path).
  const bnn::ForwardPlan plan(loaded.model, loaded.eval_batch.images.shape());
  tensor::Workspace ws;
  const double clean_acc = plan.evaluate(loaded.eval_batch, ws, *clean);
  const double faulty_acc = plan.evaluate(loaded.eval_batch, ws, *faulty);
  core::Table table({"configuration", "accuracy_%"});
  table.add("clean", core::format_double(clean_acc * 100.0, 2));
  table.add("faulty (" + vectors_path + ")",
            core::format_double(faulty_acc * 100.0, 2));
  core::print_table(std::cout, loaded.model.name(), table);
  return 0;
}

namespace {

/// Parses one full --shard component; trailing garbage ("1/2x", "1/2/4")
/// must fail here, not silently run the wrong grid partition and poison a
/// multi-machine campaign at merge time.
int parse_shard_component(const std::string& token) {
  std::size_t consumed = 0;
  int value = -1;
  try {
    value = std::stoi(token, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  FLIM_REQUIRE(!token.empty() && consumed == token.size(),
               "--shard expects I/N (0-based integers), e.g. 0/4; got '" +
                   token + "'");
  return value;
}

/// Parses "--shard I/N" (0-based shard I of N) into store options.
void parse_shard(const Args& args, exp::StoreOptions& store) {
  const std::string shard = args.get_string("shard");
  if (shard.empty()) return;
  const auto slash = shard.find('/');
  FLIM_REQUIRE(slash != std::string::npos,
               "--shard expects I/N (0-based), e.g. 0/4");
  store.shard_index = parse_shard_component(shard.substr(0, slash));
  store.shard_count = parse_shard_component(shard.substr(slash + 1));
  FLIM_REQUIRE(store.shard_count >= 1 && store.shard_index >= 0 &&
                   store.shard_index < store.shard_count,
               "--shard index must be in [0, N)");
}

/// Prints `result` (or its shard slice) and honors --csv / --json. Both the
/// single-process campaign and `merge` funnel through ScenarioResult::
/// to_table(), which is what makes their outputs byte-identical.
void emit_scenario_result(const Args& args, const std::string& title,
                          const exp::ScenarioResult& result) {
  const core::Table table = result.to_table();
  core::print_table(std::cout, title, table);
  const std::string csv = args.get_string("csv");
  if (!csv.empty()) {
    table.write_csv(csv);
    std::cout << "wrote " << csv << "\n";
  }
  const std::string json = args.get_string("json");
  if (!json.empty()) {
    table.write_json(json);
    std::cout << "wrote " << json << "\n";
  }
}

/// Flags that feed the ScenarioSpec every campaign subcommand shares: the
/// coordinator, workers, and the classic single-process run must all build
/// the exact same spec, or the fingerprint handshake rejects the fleet.
std::set<std::string> campaign_spec_flags(
    std::initializer_list<const char*> extra) {
  std::set<std::string> flags = {"model",       "kind",    "fault",
                                 "rates",       "reps",    "granularity",
                                 "grid",        "images",  "weights-dir",
                                 "epochs",      "samples", "retrain",
                                 "verbose",     "seed",    "engine",
                                 "jobs",        "ecc",     "ecc-word-bits",
                                 "ecc-interleave"};
  for (const char* flag : extra) flags.insert(flag);
  return flags;
}

/// A campaign spec plus the raw --fault text (for report titles).
struct BuiltCampaign {
  exp::ScenarioSpec spec;
  std::string fault_expr;
};

/// Maps the shared campaign flags onto a ScenarioSpec (the single funnel
/// behind `campaign`, `campaign serve`, and `campaign work`).
BuiltCampaign campaign_spec_from(const Args& args) {
  auto rates = args.get_double_list("rates");
  if (rates.empty()) rates = {0.0, 0.05, 0.10, 0.20};

  BuiltCampaign built;
  exp::ScenarioSpec& spec = built.spec;
  spec.name = "campaign";
  spec.workload = workload_from(args);
  spec.engine.backend = exp::parse_backend(args.get_string("engine", "flim"));
  FLIM_REQUIRE(spec.engine.backend != exp::Backend::kReference,
               "--engine reference would inject nothing; pick flim|device|tmr");
  spec.fault.granularity =
      parse_granularity(args.get_string("granularity", "output"));
  spec.grid = parse_grid(args, "grid", "64x64");
  built.fault_expr = args.get_string("fault");
  if (!built.fault_expr.empty()) {
    FLIM_REQUIRE(!args.has("kind"),
                 "--fault replaces --kind; drop one of them");
    if (built.fault_expr.find('@') != std::string::npos) {
      // Expand the '@' placeholder with each swept rate: one composed
      // stack per grid point, e.g. "drift(rate=@)" x {0.01, 0.05}.
      spec.axes = {exp::fault_expr_axis(built.fault_expr, rates)};
    } else {
      FLIM_REQUIRE(!args.has("rates"),
                   "--rates with --fault needs a '@' placeholder in the "
                   "expression (e.g. --fault 'bitflip(rate=@)'); without "
                   "one the stack is a single point");
      spec.fault_expr = fault::canonical_fault_expr(built.fault_expr);
    }
  } else {
    spec.fault.kind = parse_kind(args.get_string("kind", "bitflip"));
    spec.axes = {exp::rate_axis(rates)};
  }
  // ECC residual scrub: "none"/"" keeps the historical no-scrub behavior
  // (and the historical store fingerprints); an expression scrubs every
  // realized mask down to the codec's residual before injection.
  const std::string ecc = args.get_string("ecc");
  if (!ecc.empty() && ecc != "none") {
    spec.ecc_expr = reliability::ecc::canonical_codec_expr(ecc);
  }
  spec.ecc_word_bits = static_cast<int>(args.get_int("ecc-word-bits", 64));
  spec.ecc_interleave = static_cast<int>(args.get_int("ecc-interleave", 1));
  spec.repetitions = static_cast<int>(args.get_int("reps", 10));
  spec.master_seed = static_cast<std::uint64_t>(args.get_int("seed", 2023));
  spec.jobs = static_cast<int>(args.get_int("jobs", 1));
  return built;
}

/// Report title for a campaign result (shared by classic and fleet runs).
std::string campaign_title(const BuiltCampaign& built,
                           const std::string& model_name) {
  std::string title = model_name + " / ";
  if (!built.fault_expr.empty()) {
    title += built.spec.fault_expr.empty() ? "fault-expression sweep"
                                           : built.spec.fault_expr;
  } else {
    title += to_string(built.spec.fault.kind) + " sweep";
  }
  if (built.spec.engine.backend != exp::Backend::kFlim) {
    title += " (" + exp::to_string(built.spec.engine.backend) + ")";
  }
  return title;
}

/// `campaign serve`: coordinate a worker fleet until the grid is complete.
int cmd_campaign_serve(const Args& args) {
  args.require_known(
      campaign_spec_flags({"shards", "host", "port", "port-file",
                           "lease-ttl-ms", "heartbeat-ms", "wait-retry-ms",
                           "work-dir", "csv", "json"}),
      1);
  const BuiltCampaign built = campaign_spec_from(args);

  fleet::CoordinatorOptions options;
  options.host = args.get_string("host", "127.0.0.1");
  options.port = static_cast<int>(args.get_int("port", 7641));
  options.shard_count = static_cast<int>(args.get_int("shards", 2));
  options.lease_ttl_ms = args.get_int("lease-ttl-ms", 30000);
  options.heartbeat_ms = args.get_int("heartbeat-ms", 5000);
  options.wait_retry_ms = args.get_int("wait-retry-ms", 500);
  options.work_dir = args.get_string("work-dir", "fleet-work");

  fleet::Coordinator coordinator(built.spec, options);
  coordinator.start();
  write_port_file(args.get_string("port-file"), coordinator.port());
  std::cout << "fleet: serving " << options.shard_count << " shard(s) on "
            << options.host << ":" << coordinator.port() << " (work dir "
            << options.work_dir << ")\n"
            << std::flush;
  const exp::ScenarioResult result = coordinator.wait();
  coordinator.stop();
  emit_scenario_result(args,
                       campaign_title(built, built.spec.workload.model) +
                           " [fleet, " + std::to_string(options.shard_count) +
                           " shards]",
                       result);
  return 0;
}

/// `campaign work`: lease and run shards until the coordinator says done.
int cmd_campaign_work(const Args& args) {
  args.require_known(
      campaign_spec_flags({"host", "port", "name", "work-dir", "heartbeat-ms",
                           "io-timeout-ms", "connect-attempts", "max-points",
                           "no-fsync"}),
      1);
  const BuiltCampaign built = campaign_spec_from(args);

  fleet::WorkerOptions options;
  options.host = args.get_string("host", "127.0.0.1");
  options.port = static_cast<int>(args.get_int("port", 7641));
  options.name = args.get_string("name", "worker");
  options.work_dir = args.get_string("work-dir", "fleet-work");
  options.heartbeat_ms = args.get_int("heartbeat-ms", 0);
  options.io_timeout_ms = args.get_int("io-timeout-ms", 30000);
  options.max_connect_attempts =
      static_cast<int>(args.get_int("connect-attempts", 8));
  options.jobs = built.spec.jobs;
  options.fsync_each_point = !args.has("no-fsync");
  options.max_points =
      static_cast<std::size_t>(args.get_int("max-points", 0));

  const fleet::WorkerReport report = run_worker(built.spec, options);
  core::Table table({"metric", "value"});
  table.add("shards_completed", report.shards_completed);
  table.add("points_evaluated", report.points_evaluated);
  table.add("leases_granted", report.leases_granted);
  table.add("leases_lost", report.leases_lost);
  table.add("saw_done", report.saw_done ? "yes" : "no");
  core::print_table(std::cout, "fleet worker " + options.name, table);
  // A worker that stopped without campaign completion (crash hook) exits
  // nonzero so scripts notice.
  return report.saw_done ? 0 : 3;
}

/// `campaign status`: inspect run files without touching them.
int cmd_campaign_status(const Args& args) {
  args.require_known({}, std::numeric_limits<std::size_t>::max());
  const std::vector<std::string>& pos = args.positionals();
  FLIM_REQUIRE(pos.size() >= 2,
               "usage: flim_cli campaign status <run-file>...");
  core::Table table({"file", "name", "backend", "fingerprint", "shard",
                     "points", "state", "torn_bytes"});
  bool all_complete = true;
  for (std::size_t i = 1; i < pos.size(); ++i) {
    const std::string& path = pos[i];
    try {
      const exp::RunFile run = exp::RunFile::load(path);
      const auto file_bytes =
          static_cast<std::size_t>(std::filesystem::file_size(path));
      const std::size_t torn = file_bytes - run.valid_prefix_bytes;
      const bool complete = run.complete();
      if (!complete) all_complete = false;
      table.add(path, run.header.name, run.header.backend,
                run.header.fingerprint,
                std::to_string(run.header.shard_index) + "/" +
                    std::to_string(run.header.shard_count),
                std::to_string(run.points.size()) + "/" +
                    std::to_string(run.owned_points()),
                complete ? "complete" : "partial", torn);
    } catch (const std::exception&) {
      all_complete = false;
      table.add(path, "-", "-", "-", "-", "-", "unreadable", "-");
    }
  }
  core::print_table(std::cout, "campaign status", table);
  // Scriptable: 0 only when every file is a complete, healthy shard.
  return all_complete ? 0 : 2;
}

}  // namespace

int cmd_campaign(const Args& args) {
  if (!args.positionals().empty()) {
    const std::string& sub = args.positionals().front();
    if (sub == "serve") return cmd_campaign_serve(args);
    if (sub == "work") return cmd_campaign_work(args);
    if (sub == "status") return cmd_campaign_status(args);
    FLIM_REQUIRE(false, "unknown campaign subcommand: " + sub +
                            " (expected serve|work|status)");
  }
  args.require_known(
      campaign_spec_flags({"csv", "json", "store", "resume", "shard"}));
  const BuiltCampaign built = campaign_spec_from(args);
  const exp::ScenarioSpec& spec = built.spec;

  exp::StoreOptions store;
  store.resume_from = args.get_string("resume");
  // --resume alone continues its own file; --store redirects/creates one.
  store.store_path = args.get_string("store", store.resume_from);
  // --store alone also resumes in place: rerunning the same command after a
  // kill must continue the checkpoint, never truncate it. (A different spec
  // pointed at the same file fails the fingerprint check instead of
  // clobbering it; delete the file to really start over.)
  if (store.resume_from.empty()) store.resume_from = store.store_path;
  parse_shard(args, store);
  FLIM_REQUIRE(store.shard_count == 1 || !store.store_path.empty(),
               "--shard needs --store so the slice can be merged later");

  exp::ScenarioRunner runner(spec);
  const exp::Workload loaded = exp::load_workload(spec.workload);
  const exp::ScenarioResult result = runner.run(loaded, store);

  std::string title = campaign_title(built, loaded.model.name());
  if (store.shard_count > 1) {
    title += " [shard " + std::to_string(store.shard_index) + "/" +
             std::to_string(store.shard_count) + "]";
  }
  emit_scenario_result(args, title, result);
  if (!store.store_path.empty()) {
    std::cout << "run file: " << store.store_path << " ("
              << result.points.size() << "/" << result.total_points
              << " points)\n";
  }
  return 0;
}

namespace {

/// SIGTERM/SIGINT flag of `flim_cli serve` (async-signal-safe: the handler
/// only stores; the serve loop polls).
std::atomic<bool> g_serve_stop{false};

void handle_serve_signal(int) { g_serve_stop.store(true); }

/// Maps the shared eval flags onto the canonical single-point spec (the
/// direct path; `--connect` sends the same fields over the wire instead).
exp::EvalPointSpec eval_spec_from(const Args& args) {
  exp::EvalPointSpec spec;
  spec.workload = workload_from(args);
  spec.engine.backend = exp::parse_backend(args.get_string("engine", "flim"));
  const std::string expr = args.get_string("fault");
  if (!expr.empty()) spec.fault_expr = fault::canonical_fault_expr(expr);
  spec.granularity =
      parse_granularity(args.get_string("granularity", "output"));
  spec.grid = parse_grid(args, "grid", "64x64");
  spec.repetitions = static_cast<int>(args.get_int("reps", 3));
  spec.master_seed = static_cast<std::uint64_t>(args.get_int("seed", 2023));
  exp::validate(spec);
  return spec;
}

/// `eval --connect`: one request/reply exchange with a serve instance,
/// backing off on busy replies. Returns the payload line.
std::string eval_remote(const Args& args) {
  const std::string connect = args.get_string("connect");
  const auto colon = connect.rfind(':');
  FLIM_REQUIRE(colon != std::string::npos && colon + 1 < connect.size(),
               "--connect expects HOST:PORT, e.g. 127.0.0.1:7642");
  const std::string host = connect.substr(0, colon);
  const int port = static_cast<int>(std::stol(connect.substr(colon + 1)));

  fleet::EvalRequest req;
  req.model = args.get_string("model", "lenet");
  req.backend = args.get_string("engine", "flim");
  req.fault_expr = args.get_string("fault");
  req.granularity = args.get_string("granularity", "output");
  req.grid = args.get_string("grid", "64x64");
  req.repetitions = static_cast<int>(args.get_int("reps", 3));
  req.master_seed = static_cast<std::uint64_t>(args.get_int("seed", 2023));
  req.deadline_ms = args.get_int("deadline-ms", -1);

  core::Rng rng(req.master_seed);
  core::BackoffPolicy policy;
  fleet::Socket socket = fleet::connect_with_retry(
      host, port, policy,
      static_cast<int>(args.get_int("connect-attempts", 8)), rng);
  fleet::LineChannel chan(std::move(socket));

  const std::int64_t io_timeout_ms = args.get_int("io-timeout-ms", 600000);
  const int busy_retries = static_cast<int>(args.get_int("busy-retries", 20));
  for (int attempt = 0;; ++attempt) {
    chan.send_line(fleet::encode_eval_request(req));
    const fleet::RecvResult recv = chan.recv_line(io_timeout_ms);
    if (recv.status != fleet::RecvStatus::kLine) {
      throw std::runtime_error(
          recv.status == fleet::RecvStatus::kEof
              ? "eval: server closed the connection"
              : "eval: timed out waiting for the server's reply");
    }
    const fleet::Message msg = fleet::parse_message(recv.line);
    if (msg.type == "busy") {
      FLIM_REQUIRE(attempt < busy_retries,
                   "server stayed busy through " +
                       std::to_string(busy_retries) + " retries");
      // The server's hint floors the shared backoff schedule.
      const auto hint =
          static_cast<std::int64_t>(core::json_number(msg.fields, "retry_ms"));
      core::sleep_ms(
          std::max(hint, core::backoff_delay_ms(policy, attempt, rng)));
      continue;
    }
    if (msg.type == "error") {
      throw std::runtime_error("eval: server error: " +
                               core::json_string(msg.fields, "what"));
    }
    FLIM_REQUIRE(msg.type == "eval_result",
                 "unexpected server reply type: " + msg.type);
    return fleet::decode_eval_result(msg);
  }
}

}  // namespace

int cmd_eval(const Args& args) {
  args.require_known({"connect", "model", "engine", "fault", "granularity",
                      "grid", "reps", "seed", "jobs", "out", "deadline-ms",
                      "busy-retries", "io-timeout-ms", "connect-attempts",
                      "images", "epochs", "samples", "weights-dir", "retrain",
                      "verbose"});
  std::string payload;
  if (args.has("connect")) {
    payload = eval_remote(args);
  } else {
    const exp::EvalPointSpec spec = eval_spec_from(args);
    const exp::Workload workload = exp::load_workload(spec.workload);
    const bnn::ForwardPlan plan(workload.model,
                                workload.eval_batch.images.shape());
    const int jobs = static_cast<int>(args.get_int("jobs", 1));
    FLIM_REQUIRE(jobs >= 1, "--jobs must be >= 1");
    std::optional<core::ThreadPool> pool;
    if (jobs > 1) pool.emplace(static_cast<std::size_t>(jobs));
    std::vector<tensor::Workspace> workspaces(pool ? pool->size() : 1);
    const core::Summary summary = exp::evaluate_eval_point(
        spec, workload, plan, workspaces, pool ? &*pool : nullptr);
    payload = exp::format_eval_payload(spec, summary);
  }
  std::cout << payload << "\n";
  const std::string out = args.get_string("out");
  if (!out.empty()) {
    std::ofstream file(out, std::ios::trunc);
    FLIM_REQUIRE(file.good(), "cannot write --out file: " + out);
    file << payload << "\n";
  }
  return 0;
}

int cmd_serve(const Args& args) {
  args.require_known({"host", "port", "port-file", "cache", "queue",
                      "batch-max", "jobs", "busy-retry-ms", "images",
                      "epochs", "samples", "weights-dir"});
  serve::ServerOptions options;
  options.host = args.get_string("host", "127.0.0.1");
  options.port = static_cast<int>(args.get_int("port", 0));
  options.cache_capacity = static_cast<std::size_t>(args.get_int("cache", 8));
  options.queue_capacity = static_cast<std::size_t>(args.get_int("queue", 64));
  options.batch_max = static_cast<std::size_t>(args.get_int("batch-max", 8));
  options.jobs = static_cast<int>(args.get_int("jobs", 1));
  options.busy_retry_ms = args.get_int("busy-retry-ms", 200);
  options.eval_images = args.get_int("images", 300);
  options.epochs = static_cast<int>(args.get_int("epochs", 3));
  options.train_samples = args.get_int("samples", 3000);
  if (args.has("weights-dir")) {
    options.weights_dir = args.get_string("weights-dir");
  }

  serve::EvalServer server(options);
  server.start();
  write_port_file(args.get_string("port-file"), server.port());
  std::cout << "serve: listening on " << options.host << ":" << server.port()
            << "\n"
            << std::flush;

  g_serve_stop.store(false);
  std::signal(SIGTERM, handle_serve_signal);
  std::signal(SIGINT, handle_serve_signal);
  while (!g_serve_stop.load()) core::sleep_ms(50);

  std::cout << "serve: draining\n" << std::flush;
  server.stop();
  std::cout << "serve: drained, exiting\n";
  return 0;
}

int cmd_merge(const Args& args) {
  args.require_known({"inputs", "csv", "json"});
  const std::vector<std::string> inputs = args.get_list("inputs");
  FLIM_REQUIRE(!inputs.empty(),
               "--inputs is required (comma-separated run files)");
  const exp::ScenarioResult result = exp::merge_run_files(inputs);
  emit_scenario_result(
      args,
      result.name + " (merged " + std::to_string(inputs.size()) +
          " run files, " + result.backend + ")",
      result);
  return 0;
}

namespace {

lim::DeviceFaultKind parse_device_kind(const std::string& s) {
  for (const lim::DeviceFaultKind kind : lim::all_device_fault_kinds()) {
    std::string name = lim::to_string(kind);
    // Accept the report name with the dashes removed ("stuck-at-0" can be
    // typed as stuckat0).
    std::string compact;
    for (const char c : name) {
      if (c != '-') compact.push_back(c);
    }
    if (s == name || s == compact) return kind;
  }
  FLIM_REQUIRE(false, "unknown device fault kind: " + s);
  return lim::DeviceFaultKind::kNone;
}

std::vector<reliability::MarchTest> parse_algorithms(const std::string& s) {
  if (s == "all") return reliability::standard_march_tests();
  if (s == "mats+") return {reliability::mats_plus()};
  if (s == "marchx") return {reliability::march_x()};
  if (s == "marchc-") return {reliability::march_cminus()};
  if (s == "raw1") return {reliability::march_raw1()};
  FLIM_REQUIRE(false, "unknown algorithm: " + s +
                          " (expected mats+|marchx|marchc-|raw1|all)");
  return {};
}

}  // namespace

int cmd_march(const Args& args) {
  args.require_known({"algorithm", "grid", "inject", "at", "severity",
                      "coverage", "samples", "seed"});
  const auto algorithms = parse_algorithms(args.get_string("algorithm", "all"));

  const lim::CrossbarGeometry march_grid = parse_grid(args, "grid", "16x16");
  lim::CrossbarConfig array_cfg;
  array_cfg.rows = march_grid.rows;
  array_cfg.cols = march_grid.cols;

  if (args.has("coverage")) {
    reliability::CoverageConfig cfg;
    cfg.crossbar = array_cfg;
    cfg.samples_per_kind = static_cast<int>(args.get_int("samples", 16));
    cfg.severity = args.get_double("severity", 1.0);
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    std::vector<std::string> columns{"fault_kind"};
    std::vector<std::vector<reliability::CoverageRow>> per_test;
    for (const auto& test : algorithms) {
      columns.push_back(test.name + "_%");
      per_test.push_back(reliability::evaluate_coverage(test, cfg));
    }
    core::Table coverage(columns);
    const auto& kinds = lim::all_device_fault_kinds();
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      std::vector<std::string> row{lim::to_string(kinds[k])};
      for (const auto& rows : per_test) {
        row.push_back(core::format_double(rows[k].coverage() * 100.0, 1));
      }
      coverage.add_row(std::move(row));
    }
    core::print_table(std::cout,
                      "March coverage @ severity " +
                          core::format_double(cfg.severity, 2),
                      coverage);
    return 0;
  }

  // Single-run mode: optional planted fault, then pass/fail per algorithm.
  const std::string inject = args.get_string("inject");
  int failing = 0;
  for (const auto& test : algorithms) {
    lim::CrossbarArray array(array_cfg);
    if (!inject.empty()) {
      const auto at = args.get_string("at", "0,0");
      const auto comma = at.find(',');
      FLIM_REQUIRE(comma != std::string::npos, "--at expects R,C");
      array.inject_device_fault(std::stoll(at.substr(0, comma)),
                                std::stoll(at.substr(comma + 1)),
                                parse_device_kind(inject),
                                args.get_double("severity", 1.0));
    }
    const reliability::MarchResult result =
        reliability::run_march(test, array);
    std::cout << test.name << " " << test.notation() << ": "
              << (result.detected() ? "FAIL" : "pass") << " ("
              << result.ops_executed << " ops)\n";
    for (std::size_t i = 0; i < result.failures.size() && i < 4; ++i) {
      const auto& f = result.failures[i];
      std::cout << "  cell (" << f.row << "," << f.col << ") element "
                << f.element_index << " op " << f.op_index << ": expected "
                << f.expected << ", got " << f.got << "\n";
    }
    if (result.detected()) ++failing;
  }
  // Exit code mirrors a test instrument: nonzero when a defect was found.
  return failing > 0 ? 2 : 0;
}

int cmd_scrub(const Args& args) {
  args.require_known({"in", "out", "word-bits", "interleave", "codec"});
  const std::string in_path = args.get_string("in");
  const std::string out_path = args.get_string("out");
  FLIM_REQUIRE(!in_path.empty(), "--in is required");
  FLIM_REQUIRE(!out_path.empty(), "--out is required");

  fault::ResidualOptions options;
  options.word_bits = static_cast<int>(args.get_int("word-bits", 64));
  options.interleave = static_cast<int>(args.get_int("interleave", 1));
  // Default stays SEC-DED (radius 1); --codec widens the radius to the
  // configured code's correction guarantee (e.g. 2 for bch(t=2)).
  const std::string codec_expr = args.get_string("codec", "secded");
  const reliability::ecc::Codec& codec =
      reliability::ecc::CodecRegistry::instance().configure(codec_expr);
  options.correct_per_word = codec.capability().correct_guarantee;

  const fault::FaultVectorFile input = fault::FaultVectorFile::load(in_path);
  fault::FaultVectorFile output;
  core::Table table({"layer", "words", "corrected", "uncorrectable",
                     "faulty_bits_before", "faulty_bits_after"});
  for (const auto& entry : input.entries()) {
    fault::ResidualStats stats;
    fault::FaultVectorEntry scrubbed = entry;
    fault::apply_entry_residual(scrubbed, options, &stats);
    table.add(entry.layer_name, stats.words, stats.corrected_words,
              stats.uncorrectable_words, stats.faulty_bits_before,
              stats.faulty_bits_after);
    output.add(std::move(scrubbed));
  }
  output.save(out_path);
  core::print_table(
      std::cout,
      codec.canonical() + " scrub (w" + std::to_string(options.word_bits) +
          ", i" + std::to_string(options.interleave) + ")",
      table);
  std::cout << "wrote residual vectors to " << out_path << "\n";
  return 0;
}

namespace {

/// ';'-separated expression list. Codec and fault expressions contain
/// commas ("bch(d=64,t=2)"), so the generic comma-list accessor cannot
/// split them.
std::vector<std::string> split_exprs(const std::string& text) {
  std::vector<std::string> out;
  std::string current;
  for (const char c : text) {
    if (c == ';') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

/// Prints `table` and honors --csv / --json (the shared Table emission
/// path, same contract as emit_scenario_result).
void emit_table(const Args& args, const std::string& title,
                const core::Table& table) {
  core::print_table(std::cout, title, table);
  const std::string csv = args.get_string("csv");
  if (!csv.empty()) {
    table.write_csv(csv);
    std::cout << "wrote " << csv << "\n";
  }
  const std::string json = args.get_string("json");
  if (!json.empty()) {
    table.write_json(json);
    std::cout << "wrote " << json << "\n";
  }
}

/// `ecc list` (and bare `ecc`): the registered code families, with the
/// capability/cost summary of each family's default configuration.
int cmd_ecc_list() {
  const reliability::ecc::CodecRegistry& registry =
      reliability::ecc::CodecRegistry::instance();
  core::Table table({"family", "params", "default", "n", "d", "correct",
                     "detect", "overhead_%", "summary"});
  for (const reliability::ecc::CodecFamily* family : registry.families()) {
    const reliability::ecc::CodecInfo& meta = family->info();
    std::string params;
    for (const reliability::ecc::ParamInfo& p : meta.params) {
      if (!params.empty()) params += ",";
      params += p.name;
    }
    if (params.empty()) params = "-";
    const reliability::ecc::Codec& codec = registry.configure(meta.name);
    const reliability::ecc::Capability& cap = codec.capability();
    table.add(meta.name, params, codec.canonical(), cap.code_bits,
              cap.data_bits, cap.correct_guarantee, cap.detect_guarantee,
              core::format_double(codec.cost().parity_overhead() * 100.0, 1),
              meta.summary);
  }
  core::print_table(std::cout, "registered ECC codec families", table);
  std::cout << "describe one with: flim_cli ecc --describe FAMILY\n"
            << "configure with an expression, e.g. \"bch(d=64,t=2)\" "
               "(no '+' composition: one code per codeword)\n";
  return 0;
}

/// `ecc --describe FAMILY`: parameter schema plus the default
/// configuration's capability and in-crossbar cost.
int cmd_ecc_describe(const std::string& name) {
  const reliability::ecc::CodecRegistry& registry =
      reliability::ecc::CodecRegistry::instance();
  const reliability::ecc::CodecFamily& family = registry.get(name);
  const reliability::ecc::CodecInfo& meta = family.info();
  std::cout << meta.name << ": " << meta.summary << "\n";
  core::Table params({"param", "default", "range", "doc"});
  for (const reliability::ecc::ParamInfo& p : meta.params) {
    const std::string lo = std::isinf(p.min_value)
                               ? std::string("-inf")
                               : core::format_double_shortest(p.min_value);
    const std::string hi = std::isinf(p.max_value)
                               ? std::string("inf")
                               : core::format_double_shortest(p.max_value);
    params.add(p.name, core::format_double_shortest(p.default_value),
               "[" + lo + ", " + hi + "]" + (p.integer ? " int" : ""), p.doc);
  }
  core::print_table(std::cout, "parameters of " + meta.name, params);

  const reliability::ecc::Codec& codec = registry.configure(name);
  const reliability::ecc::Capability& cap = codec.capability();
  const reliability::ecc::CostModel cost = codec.cost();
  core::Table caps({"metric", "value"});
  caps.add("canonical", codec.canonical());
  caps.add("codeword bits (n)", cap.code_bits);
  caps.add("data bits (d)", cap.data_bits);
  caps.add("parity bits (k)", cap.parity_bits);
  caps.add("corrects (errors/word)", cap.correct_guarantee);
  caps.add("detects (errors/word)", cap.detect_guarantee);
  caps.add("parity overhead %",
           core::format_double(cost.parity_overhead() * 100.0, 2));
  caps.add("extra columns @ 64-col crossbar", cost.extra_columns(64));
  caps.add("syndrome ops / word", cost.syndrome_ops_per_word);
  core::print_table(std::cout, "default configuration " + codec.canonical(),
                    caps);
  return 0;
}

/// `ecc exhaust`: walk EVERY error placement of the requested weights (or
/// burst windows) through a codec; durable, sharded, resumable.
int cmd_ecc_exhaust(const Args& args) {
  args.require_known({"codec", "weights", "burst", "chunk", "data-seed",
                      "store", "shard", "jobs", "csv", "json"},
                     1);
  reliability::ecc::ExhaustSpec spec;
  spec.codec_expr = args.get_string("codec", "secded");
  const std::vector<double> weights = args.get_double_list("weights");
  if (!weights.empty()) {
    spec.weights.clear();
    for (const double w : weights) spec.weights.push_back(static_cast<int>(w));
  }
  spec.burst = args.has("burst");
  spec.chunk = static_cast<std::uint64_t>(args.get_int("chunk", 4096));
  spec.data_seed = static_cast<std::uint64_t>(args.get_int("data-seed", 2023));

  exp::StoreOptions shard;
  parse_shard(args, shard);
  const std::string store = args.get_string("store");
  FLIM_REQUIRE(shard.shard_count == 1 || !store.empty(),
               "--shard needs --store so the slices can be merged later");

  const reliability::ecc::ExhaustResult result = reliability::ecc::run_exhaust(
      spec, store, shard.shard_index, shard.shard_count,
      static_cast<int>(args.get_int("jobs", 0)));

  std::string title = result.codec_expr +
                      (result.burst ? " burst" : " exhaustive") +
                      " enumeration (n=" + std::to_string(result.code_bits) +
                      ")";
  if (shard.shard_count > 1) {
    title += " [shard " + std::to_string(shard.shard_index) + "/" +
             std::to_string(shard.shard_count) + "]";
  }
  emit_table(args, title, result.to_table());
  if (!store.empty()) std::cout << "exhaust store: " << store << "\n";
  return 0;
}

/// `ecc merge`: fold shard exhaust stores into the complete enumeration.
int cmd_ecc_merge(const Args& args) {
  args.require_known({"inputs", "csv", "json"}, 1);
  const std::vector<std::string> inputs = args.get_list("inputs");
  FLIM_REQUIRE(!inputs.empty(),
               "--inputs is required (comma-separated exhaust stores)");
  const reliability::ecc::ExhaustResult result =
      reliability::ecc::merge_exhaust_files(inputs);
  emit_table(args,
             result.codec_expr + (result.burst ? " burst" : " exhaustive") +
                 " enumeration (merged " + std::to_string(inputs.size()) +
                 " shard files)",
             result.to_table());
  return 0;
}

/// `ecc pareto`: ECC-method x fault-expression sweep over a real workload --
/// accuracy retained against the parity/column/cycle overhead each codec
/// pays for it. Rides the scenario runner, so the codec axis, residual
/// scrub, and repetition protocol are exactly the campaign path's.
int cmd_ecc_pareto(const Args& args) {
  args.require_known({"model", "images", "epochs", "samples", "weights-dir",
                      "retrain", "verbose", "faults", "codecs", "engine",
                      "granularity", "grid", "reps", "seed", "jobs",
                      "word-bits", "interleave", "csv", "json"},
                     1);
  exp::ScenarioSpec spec;
  spec.name = "ecc-pareto";
  spec.workload = workload_from(args);
  spec.workload.measure_clean_accuracy = true;
  spec.engine.backend = exp::parse_backend(args.get_string("engine", "flim"));
  FLIM_REQUIRE(spec.engine.backend != exp::Backend::kReference,
               "--engine reference would inject nothing; pick flim|device|tmr");
  spec.fault.granularity =
      parse_granularity(args.get_string("granularity", "output"));
  spec.grid = parse_grid(args, "grid", "64x64");
  const std::vector<std::string> faults = split_exprs(args.get_string(
      "faults", "stuckat(rate=0.002,sa1=0.7);stuckat(rate=0.01,sa1=0.7)"));
  const std::vector<std::string> codecs = split_exprs(
      args.get_string("codecs", "none;secded;bch(d=64,t=2)"));
  FLIM_REQUIRE(!faults.empty(), "--faults needs >= 1 expression");
  FLIM_REQUIRE(!codecs.empty(), "--codecs needs >= 1 expression");
  spec.axes = {exp::fault_expr_axis(faults), exp::ecc_codec_axis(codecs)};
  spec.ecc_word_bits = static_cast<int>(args.get_int("word-bits", 64));
  spec.ecc_interleave = static_cast<int>(args.get_int("interleave", 1));
  spec.repetitions = static_cast<int>(args.get_int("reps", 3));
  spec.master_seed = static_cast<std::uint64_t>(args.get_int("seed", 2023));
  spec.jobs = static_cast<int>(args.get_int("jobs", 1));

  exp::ScenarioRunner runner(spec);
  const exp::Workload loaded = exp::load_workload(spec.workload);
  const exp::ScenarioResult result = runner.run(loaded, exp::StoreOptions{});

  // The codec's geometric cost rides along each row so the CSV alone holds
  // the Pareto frontier: accuracy retained (y) vs overhead (x).
  const std::int64_t cells = spec.grid.rows * spec.grid.cols;
  core::Table table({"fault", "ecc", "accuracy_%", "retained_%",
                     "parity_overhead_%", "extra_cols", "scrub_ops"});
  for (const exp::ScenarioPoint& point : result.points) {
    const std::string& ecc_label = point.labels[1];
    double overhead = 0.0;
    std::int64_t extra_cols = 0;
    std::int64_t scrub_ops = 0;
    if (ecc_label != "none") {
      const reliability::ecc::CostModel cost =
          reliability::ecc::CodecRegistry::instance()
              .configure(ecc_label)
              .cost();
      overhead = cost.parity_overhead() * 100.0;
      extra_cols = cost.extra_columns(spec.grid.cols);
      scrub_ops = cost.scrub_cycles(cells);
    }
    const double retained = result.clean_accuracy > 0.0
                                ? point.metric.mean / result.clean_accuracy
                                : 0.0;
    table.add(point.labels[0], ecc_label,
              core::format_double(point.metric.mean * 100.0, 2),
              core::format_double(retained * 100.0, 2),
              core::format_double(overhead, 2), extra_cols, scrub_ops);
  }
  std::cout << "clean accuracy: "
            << core::format_double(result.clean_accuracy * 100.0, 2) << "%\n";
  emit_table(args,
             loaded.model.name() + " ECC Pareto (" +
                 exp::to_string(spec.engine.backend) + ", w" +
                 std::to_string(spec.ecc_word_bits) + ", i" +
                 std::to_string(spec.ecc_interleave) + ")",
             table);
  return 0;
}

}  // namespace

int cmd_ecc(const Args& args) {
  if (args.has("describe")) {
    args.require_known({"describe"}, 1);
    return cmd_ecc_describe(args.get_string("describe"));
  }
  if (args.positionals().empty()) return cmd_ecc_list();
  const std::string& sub = args.positionals().front();
  if (sub == "list") {
    args.require_known({}, 1);
    return cmd_ecc_list();
  }
  if (sub == "exhaust") return cmd_ecc_exhaust(args);
  if (sub == "merge") return cmd_ecc_merge(args);
  if (sub == "pareto") return cmd_ecc_pareto(args);
  FLIM_REQUIRE(false, "unknown ecc subcommand: " + sub +
                          " (expected list|exhaust|merge|pareto, or "
                          "--describe FAMILY)");
  return 2;
}

int cmd_monitor(const Args& args) {
  args.require_known({"vectors", "layer", "period", "slots", "policy",
                      "reps", "seed", "max-inferences"});
  const std::string vectors_path = args.get_string("vectors");
  FLIM_REQUIRE(!vectors_path.empty(), "--vectors is required");
  const std::string layer = args.get_string("layer");
  FLIM_REQUIRE(!layer.empty(), "--layer is required");
  const fault::FaultVectorFile vectors =
      fault::FaultVectorFile::load(vectors_path);
  const fault::FaultVectorEntry* entry = vectors.find(layer);
  FLIM_REQUIRE(entry != nullptr, "no entry for layer " + layer);
  // The union of all planes is the static defect footprint the canary
  // monitor probes (composable entries carry one mask per component).
  const fault::FaultMask defects = entry->combined_mask();

  reliability::MonitorConfig cfg;
  cfg.grid = {defects.rows(), defects.cols()};
  cfg.test_period = static_cast<int>(args.get_int("period", 8));
  cfg.slots_per_round = static_cast<int>(args.get_int("slots", 16));
  const std::string policy = args.get_string("policy", "roundrobin");
  if (policy == "roundrobin") {
    cfg.policy = reliability::CanaryPolicy::kRoundRobin;
  } else if (policy == "random") {
    cfg.policy = reliability::CanaryPolicy::kRandom;
  } else {
    FLIM_REQUIRE(false, "unknown policy: " + policy +
                            " (expected roundrobin|random)");
  }

  const int reps = static_cast<int>(args.get_int("reps", 10));
  FLIM_REQUIRE(reps > 0, "--reps must be positive");
  const std::int64_t horizon = args.get_int("max-inferences", 1 << 22);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));

  double latency_total = 0.0;
  int detected = 0;
  for (int rep = 0; rep < reps; ++rep) {
    cfg.seed = seed + static_cast<std::uint64_t>(rep);
    const reliability::OnlineMonitor monitor(cfg);
    const reliability::DetectionOutcome outcome =
        monitor.run_until_detection(defects, horizon);
    if (outcome.detected) {
      ++detected;
      latency_total += static_cast<double>(outcome.inferences_elapsed);
    }
  }
  core::Table table({"metric", "value"});
  table.add("grid", std::to_string(cfg.grid.rows) + "x" +
                        std::to_string(cfg.grid.cols));
  table.add("overhead_ops_per_inference",
            core::format_double(
                reliability::OnlineMonitor(cfg).overhead_ops_per_inference(),
                2));
  table.add("detected_runs", std::to_string(detected) + "/" +
                                 std::to_string(reps));
  table.add("mean_latency_inferences",
            detected > 0 ? core::format_double(latency_total / detected, 1)
                         : std::string("n/a"));
  core::print_table(std::cout, "canary monitor on " + layer + " (" + policy
                                   + ")",
                    table);
  return 0;
}

int cmd_lifetime(const Args& args) {
  args.require_known({"model", "mitigation", "horizon", "step",
                      "wearout-scale", "wearout-shape", "upsets-per-hour",
                      "grid", "images", "weights-dir", "epochs", "samples",
                      "retrain", "verbose", "seed", "csv"});

  reliability::LifetimeConfig cfg;
  cfg.grid = parse_grid(args, "grid", "64x64");
  cfg.horizon_hours = args.get_double("horizon", 20000.0);
  cfg.step_hours = args.get_double("step", 2000.0);
  cfg.wearout.scale_hours = args.get_double("wearout-scale", 16000.0);
  cfg.wearout.shape = args.get_double("wearout-shape", 2.2);
  cfg.transients.upsets_per_grid_hour =
      args.get_double("upsets-per-hour", 0.05);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 2023));

  reliability::MitigationStack stack;
  const std::string mitigation = args.get_string("mitigation", "none");
  if (mitigation == "scrub") {
    stack.scrub = true;
  } else if (mitigation == "scrub+ecc") {
    stack.scrub = true;
    stack.ecc = true;
  } else if (mitigation == "scrub+ecc+tmr") {
    stack.scrub = true;
    stack.ecc = true;
    stack.modular_redundancy = 3;
  } else {
    FLIM_REQUIRE(mitigation == "none",
                 "unknown mitigation: " + mitigation +
                     " (expected none|scrub|scrub+ecc|scrub+ecc+tmr)");
  }
  stack.scrub_period_hours = cfg.step_hours;

  // Validate the whole configuration before the (expensive) model load.
  const reliability::LifetimeSimulator sim(cfg);
  const exp::Workload loaded = exp::load_workload(workload_from(args));
  const reliability::LifetimeCurve curve =
      sim.simulate(loaded.model, loaded.eval_batch, loaded.layers, stack);

  core::Table table({"hours", "accuracy_%", "transient_flips",
                     "stuck_raw", "stuck_effective"});
  for (const reliability::LifetimePoint& p : curve.points) {
    table.add(core::format_double(p.hours, 0),
              core::format_double(p.accuracy * 100.0, 1), p.transient_flips,
              p.stuck_cells_raw, p.stuck_cells_effective);
  }
  core::print_table(std::cout,
                    loaded.model.name() + " lifetime (" + stack.name() + ")",
                    table);
  const std::string csv = args.get_string("csv");
  if (!csv.empty()) {
    table.write_csv(csv);
    std::cout << "wrote " << csv << "\n";
  }
  return 0;
}

int run(const Args& args) {
  if (args.command().empty() || args.command() == "help" ||
      args.command() == "--help") {
    print_usage();
    return args.command().empty() ? 1 : 0;
  }
  if (args.command() == "generate") return cmd_generate(args);
  if (args.command() == "inspect") return cmd_inspect(args);
  if (args.command() == "faults") return cmd_faults(args);
  if (args.command() == "train") return cmd_train(args);
  if (args.command() == "evaluate") return cmd_evaluate(args);
  if (args.command() == "eval") return cmd_eval(args);
  if (args.command() == "serve") return cmd_serve(args);
  if (args.command() == "campaign") return cmd_campaign(args);
  if (args.command() == "merge") return cmd_merge(args);
  if (args.command() == "march") return cmd_march(args);
  if (args.command() == "scrub") return cmd_scrub(args);
  if (args.command() == "ecc") return cmd_ecc(args);
  if (args.command() == "monitor") return cmd_monitor(args);
  if (args.command() == "lifetime") return cmd_lifetime(args);
  std::cerr << "unknown command: " << args.command() << "\n";
  print_usage();
  return 1;
}

}  // namespace flim::cli
