#include "bench_common.hpp"

#include <cstdlib>
#include <iostream>

#include "bnn/flim_engine.hpp"
#include "core/log.hpp"
#include "core/report.hpp"
#include "core/rng.hpp"
#include "fault/fault_registry.hpp"
#include "models/pretrained.hpp"
#include "models/zoo.hpp"

namespace flim::benchx {

namespace {

std::int64_t env_i64(const char* name, std::int64_t fallback) {
  if (const char* v = std::getenv(name)) {
    return std::strtoll(v, nullptr, 10);
  }
  return fallback;
}

}  // namespace

BenchOptions options_from_env() {
  BenchOptions o;
  o.repetitions = static_cast<int>(env_i64("FLIM_BENCH_REPS", o.repetitions));
  o.eval_images = env_i64("FLIM_BENCH_EVAL_IMAGES", o.eval_images);
  o.train_samples = env_i64("FLIM_BENCH_TRAIN_SAMPLES", o.train_samples);
  o.epochs = static_cast<int>(env_i64("FLIM_BENCH_EPOCHS", o.epochs));
  return o;
}

LenetFixture make_lenet_fixture(const BenchOptions& options) {
  LenetFixture fx;
  data::SyntheticMnistOptions d;
  d.size = options.train_samples + options.eval_images;
  fx.dataset = data::SyntheticMnist(d);

  models::PretrainOptions p;
  p.epochs = options.epochs;
  p.train_samples = options.train_samples;
  p.verbose = true;
  fx.model = models::pretrained_lenet(fx.dataset, p);

  fx.layers = fx.model
                  .analyze(tensor::FloatTensor(tensor::Shape{1, 1, 28, 28},
                                               0.5f))
                  .binarized_layers;
  fx.eval_batch =
      data::load_batch(fx.dataset, options.train_samples, options.eval_images);

  bnn::ReferenceEngine ref;
  fx.clean_accuracy = fx.model.evaluate(fx.eval_batch, ref);
  std::cerr << "[bench] LeNet clean accuracy: " << pct(fx.clean_accuracy)
            << "% on " << options.eval_images << " images\n";
  return fx;
}

exp::WorkloadSpec lenet_workload_spec(const BenchOptions& options) {
  exp::WorkloadSpec w;
  w.model = "lenet";
  w.eval_images = options.eval_images;
  w.epochs = options.epochs;
  w.train_samples = options.train_samples;
  w.verbose = true;
  w.measure_clean_accuracy = true;
  return w;
}

exp::WorkloadSpec zoo_workload_spec(const std::string& name,
                                    const BenchOptions& options) {
  exp::WorkloadSpec w = lenet_workload_spec(options);
  w.model = name;
  return w;
}

exp::Workload load_bench_workload(const exp::WorkloadSpec& spec) {
  exp::Workload w = exp::load_workload(spec);
  std::cerr << "[bench] " << w.model.name() << " clean accuracy: "
            << pct(w.clean_accuracy) << "% on " << spec.eval_images
            << " images\n";
  return w;
}

exp::StoreOptions store_options_from_env(const std::string& scenario_name) {
  exp::StoreOptions store;
  if (const char* dir = std::getenv("FLIM_BENCH_STORE_DIR")) {
    store.store_path = std::string(dir) + "/" + scenario_name + ".run.jsonl";
    store.resume_from = store.store_path;
    std::cerr << "[bench] durable run file: " << store.store_path << "\n";
  }
  return store;
}

exp::ScenarioAxis rate_or_expr_axis(const std::vector<double>& rates) {
  const char* expr = std::getenv("FLIM_BENCH_FAULT_EXPR");
  if (expr == nullptr || *expr == '\0') {
    return exp::rate_axis(rates);
  }
  std::cerr << "[bench] fault-expression override: " << expr << "\n";
  return exp::fault_expr_axis(std::string(expr), rates);
}

ZooFixture make_zoo_fixture(const BenchOptions& options) {
  ZooFixture fx;
  data::SyntheticImagenetOptions d;
  d.size = options.train_samples + options.eval_images;
  fx.dataset = data::SyntheticImagenet(d);
  fx.eval_batch =
      data::load_batch(fx.dataset, options.train_samples, options.eval_images);
  return fx;
}

bnn::Model load_zoo_model(const std::string& name, const ZooFixture& fixture,
                          const BenchOptions& options) {
  models::PretrainOptions p;
  p.epochs = options.epochs;
  p.train_samples = options.train_samples;
  p.verbose = true;
  return models::pretrained_zoo_model(name, fixture.dataset, p);
}

double evaluate_with_faults(const bnn::Model& model, const data::Batch& batch,
                            const std::vector<bnn::LayerWorkload>& layers,
                            const std::vector<std::string>& layer_filter,
                            const fault::FaultSpec& spec, std::uint64_t seed,
                            lim::CrossbarGeometry grid) {
  const fault::FaultStack stack = fault::stack_from_spec(spec);
  fault::RealizeContext ctx;
  ctx.grid = grid;
  ctx.distribution = spec.distribution;
  ctx.cluster_count = spec.cluster_count;
  ctx.cluster_radius = spec.cluster_radius;
  core::Rng rng(seed);
  bnn::FlimEngine engine;
  for (const auto& layer : layers) {
    if (!layer_filter.empty()) {
      bool selected = false;
      for (const auto& f : layer_filter) {
        if (f == layer.layer_name) selected = true;
      }
      if (!selected) continue;
    }
    engine.set_layer_fault(
        stack.realize_entry(layer.layer_name, spec.granularity, ctx, rng));
  }
  return model.evaluate(batch, engine);
}

void emit(const std::string& title, const std::string& csv_name,
          const core::Table& table) {
  core::print_table(std::cout, title, table);
  const std::string path = core::results_dir() + "/" + csv_name + ".csv";
  table.write_csv(path);
  std::cout << "[csv] " << path << "\n\n";
}

std::string pct(double accuracy_fraction) {
  return core::format_double(accuracy_fraction * 100.0, 1);
}

}  // namespace flim::benchx
