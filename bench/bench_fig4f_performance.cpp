// Fig 4f: performance comparison -- X-Fault-style device simulation vs FLIM
// (single-thread and multi-thread) vs vanilla inference -- plus compiled-plan
// (bnn::ForwardPlan + tensor::Workspace) throughput on a multi-layer zoo
// model, serial and with the intra-GEMM thread pool.
//
// Protocol mirrors the paper: the fast paths run the full workload directly
// (with the fault mechanism mapped but no faults injected, so vanilla is the
// lower bound), while the device baseline is measured on a few images and
// extrapolated to the full workload -- exactly how the paper estimates
// X-Fault "based on five images". The reported workload is 10,000 images x
// 50 runs like the paper's; measured sizes are scaled by environment knobs:
//   FLIM_FIG4F_IMAGES         images actually run on the fast paths (1000)
//   FLIM_FIG4F_RUNS           fast-path repetitions measured (2)
//   FLIM_FIG4F_DEVICE_IMAGES  images run on the device engine (1)
//   FLIM_FIG4F_ZOO_MODEL      zoo model for the compiled-plan section
//   FLIM_FIG4F_ZOO_IMAGES     images per measured zoo run (64)
//
// Flags:
//   --quick       tiny sizes for CI smoke runs
//   --json PATH   machine-readable JSON output (default
//                 $FLIM_BENCH_JSON or ./BENCH_fig4f_performance.json)
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "bnn/flim_engine.hpp"
#include "bnn/plan.hpp"
#include "core/rng.hpp"
#include "core/sysinfo.hpp"
#include "core/thread_pool.hpp"
#include "models/zoo.hpp"
#include "tensor/workspace.hpp"
#include "xfault/device_engine.hpp"

using namespace flim;

namespace {

std::int64_t env_i64(const char* name, std::int64_t fallback) {
  if (const char* v = std::getenv(name)) return std::strtoll(v, nullptr, 10);
  return fallback;
}

std::string env_str(const char* name, const std::string& fallback) {
  if (const char* v = std::getenv(name)) return v;
  return fallback;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Evaluates `count` images in batches through a compiled plan; returns wall
// time. Batches must divide evenly (the caller rounds `count` down) so every
// batch matches the planned shape.
double run_plan_inference(const bnn::ForwardPlan& plan,
                          const data::Dataset& ds, std::int64_t count,
                          tensor::Workspace& ws,
                          bnn::XnorExecutionEngine& engine,
                          std::int64_t batch_size = 100,
                          core::ThreadPool* pool = nullptr) {
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t begin = 0; begin < count; begin += batch_size) {
    const data::Batch batch = data::load_batch(ds, begin, batch_size);
    plan.execute(batch.images, ws, engine, pool);
  }
  return seconds_since(start);
}

// FLIM engine with the fault mechanism mapped on every binarized layer but
// zero faults injected -- the paper's performance configuration and the
// campaign inner-loop shape.
bnn::FlimEngine clean_mapped_engine(
    const std::vector<bnn::LayerWorkload>& layers) {
  fault::RealizedFault no_faults;
  no_faults.model = "bitflip";
  no_faults.mask = fault::FaultMask(64, 64);
  fault::FaultVectorEntry clean_entry;
  clean_entry.components.push_back(no_faults);
  bnn::FlimEngine engine;
  for (const auto& layer : layers) {
    fault::FaultVectorEntry e = clean_entry;
    e.layer_name = layer.layer_name;
    engine.set_layer_fault(e);
  }
  return engine;
}

struct Throughput {
  double seconds = 0.0;
  std::int64_t images = 0;
  std::uint64_t steady_allocations = 0;  // plan paths only

  double images_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(images) / seconds : 0.0;
  }
  double ns_per_image() const {
    return images > 0 ? seconds * 1e9 / static_cast<double>(images) : 0.0;
  }
};

std::string json_number(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

void json_throughput(std::ostringstream& os, const std::string& key,
                     const Throughput& t, bool with_allocations,
                     const char* trailing = ",") {
  os << "    \"" << key << "\": {\"seconds\": " << json_number(t.seconds)
     << ", \"images\": " << t.images
     << ", \"images_per_sec\": " << json_number(t.images_per_sec())
     << ", \"ns_per_image\": " << json_number(t.ns_per_image());
  if (with_allocations) {
    os << ", \"workspace_allocations_steady\": " << t.steady_allocations;
  }
  os << "}" << trailing << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path =
      env_str("FLIM_BENCH_JSON", "BENCH_fig4f_performance.json");
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_fig4f_performance [--quick] [--json PATH]\n";
      return 2;
    }
  }

  benchx::BenchOptions options = benchx::options_from_env();
  if (quick) {
    options.train_samples = std::min<std::int64_t>(options.train_samples, 256);
    options.epochs = 1;
    options.eval_images = std::min<std::int64_t>(options.eval_images, 64);
  }
  const benchx::LenetFixture fx = benchx::make_lenet_fixture(options);

  const std::int64_t paper_images = 10000;
  const std::int64_t paper_runs = 50;
  // Whole batches only: the compiled plan is built for one batch shape.
  // Never exceed the dataset (tiny fixtures shrink the batch instead).
  const std::int64_t batch =
      std::min<std::int64_t>(quick ? 20 : 100, fx.dataset.size());
  std::int64_t fast_images =
      std::min<std::int64_t>(env_i64("FLIM_FIG4F_IMAGES", quick ? 100 : 1000),
                             fx.dataset.size());
  fast_images = std::max<std::int64_t>(batch, (fast_images / batch) * batch);
  const std::int64_t fast_runs = env_i64("FLIM_FIG4F_RUNS", quick ? 1 : 2);
  const std::int64_t device_images = env_i64("FLIM_FIG4F_DEVICE_IMAGES", 1);
  const double scale =
      static_cast<double>(paper_images) / static_cast<double>(fast_images) *
      static_cast<double>(paper_runs);

  const bnn::ForwardPlan lenet_plan(
      fx.model, tensor::Shape{batch, 1, 28, 28});

  std::cerr << "[fig4f] vanilla (reference engine), " << fast_runs << " x "
            << fast_images << " images...\n";
  Throughput vanilla;
  vanilla.images = fast_images;
  {
    bnn::ReferenceEngine engine;
    tensor::Workspace ws;
    for (std::int64_t r = 0; r < fast_runs; ++r) {
      vanilla.seconds += run_plan_inference(lenet_plan, fx.dataset,
                                            fast_images, ws, engine, batch);
    }
    vanilla.seconds /= static_cast<double>(fast_runs);
  }

  std::cerr << "[fig4f] FLIM CPU single-thread (masks mapped, no faults)...\n";
  Throughput flim_plan;
  flim_plan.images = fast_images;
  {
    bnn::FlimEngine engine = clean_mapped_engine(fx.layers);
    tensor::Workspace ws;
    // Warm-up: buffers grow to their high-water mark once.
    run_plan_inference(lenet_plan, fx.dataset, batch, ws, engine, batch);
    const std::uint64_t before = ws.allocation_count();
    for (std::int64_t r = 0; r < fast_runs; ++r) {
      flim_plan.seconds += run_plan_inference(lenet_plan, fx.dataset,
                                              fast_images, ws, engine, batch);
    }
    flim_plan.seconds /= static_cast<double>(fast_runs);
    flim_plan.steady_allocations = ws.allocation_count() - before;
  }

  std::cerr << "[fig4f] FLIM multi-threaded (GPU stand-in)...\n";
  core::ThreadPool pool;
  Throughput flim_mt;
  flim_mt.images = fast_images;
  {
    const std::int64_t num_batches = fast_images / batch;
    for (std::int64_t r = 0; r < fast_runs; ++r) {
      const auto start = std::chrono::steady_clock::now();
      pool.parallel_for(static_cast<std::size_t>(num_batches),
                        [&](std::size_t b) {
                          // One engine per task: engines are stateful.
                          bnn::FlimEngine engine =
                              clean_mapped_engine(fx.layers);
                          const std::int64_t begin =
                              static_cast<std::int64_t>(b) * batch;
                          const data::Batch images =
                              data::load_batch(fx.dataset, begin, batch);
                          fx.model.forward(images.images, engine);
                        });
      flim_mt.seconds += seconds_since(start);
    }
    flim_mt.seconds /= static_cast<double>(fast_runs);
  }

  std::cerr << "[fig4f] device engine (X-Fault baseline) on " << device_images
            << " image(s)...\n";
  double device_per_image_s = 0.0;
  {
    xfault::DeviceEngineConfig cfg;
    cfg.crossbar.rows = 64;
    cfg.crossbar.cols = 256;
    xfault::DeviceEngine engine(cfg);
    const auto start = std::chrono::steady_clock::now();
    const data::Batch db = data::load_batch(fx.dataset, 0, device_images);
    fx.model.forward(db.images, engine);
    device_per_image_s =
        seconds_since(start) / static_cast<double>(device_images);
  }

  // ------------------------------------------------------------------
  // Compiled plan on a multi-layer zoo model, serial and with the
  // intra-GEMM pool: the campaign inner loop. Untrained weights --
  // throughput does not depend on training, and skipping it keeps the
  // smoke run fast and deterministic.
  const std::string zoo_name =
      env_str("FLIM_FIG4F_ZOO_MODEL", "BinaryResNetE18");
  const std::int64_t zoo_batch = quick ? 8 : 32;
  const std::int64_t zoo_images =
      std::max<std::int64_t>(
          zoo_batch,
          (env_i64("FLIM_FIG4F_ZOO_IMAGES", quick ? 16 : 64) / zoo_batch) *
              zoo_batch);
  std::cerr << "[fig4f] zoo model " << zoo_name << ", compiled plan on "
            << zoo_images << " images x " << fast_runs << " runs...\n";
  bnn::Model zoo_model =
      models::build_zoo_graph(zoo_name, options.master_seed)
          .to_inference_model();
  const auto zoo_layers =
      zoo_model.analyze(tensor::FloatTensor(tensor::Shape{1, 3, 32, 32}, 0.3f))
          .binarized_layers;
  tensor::FloatTensor zoo_input(tensor::Shape{zoo_batch, 3, 32, 32});
  {
    core::Rng rng(options.master_seed);
    for (std::int64_t i = 0; i < zoo_input.numel(); ++i) {
      zoo_input[i] = static_cast<float>(rng.uniform_double() * 2.0 - 1.0);
    }
  }
  const std::int64_t zoo_batches = zoo_images / zoo_batch;

  const bnn::ForwardPlan zoo_plan(zoo_model, zoo_input.shape());
  Throughput zoo_plan_tp;
  zoo_plan_tp.images = zoo_images;
  {
    bnn::FlimEngine engine = clean_mapped_engine(zoo_layers);
    tensor::Workspace ws;
    zoo_plan.execute(zoo_input, ws, engine);  // warm-up
    const std::uint64_t before = ws.allocation_count();
    for (std::int64_t r = 0; r < fast_runs; ++r) {
      const auto start = std::chrono::steady_clock::now();
      for (std::int64_t b = 0; b < zoo_batches; ++b) {
        zoo_plan.execute(zoo_input, ws, engine);
      }
      zoo_plan_tp.seconds += seconds_since(start);
    }
    zoo_plan_tp.seconds /= static_cast<double>(fast_runs);
    zoo_plan_tp.steady_allocations = ws.allocation_count() - before;
  }

  Throughput zoo_plan_pooled;
  zoo_plan_pooled.images = zoo_images;
  {
    bnn::FlimEngine engine = clean_mapped_engine(zoo_layers);
    tensor::Workspace ws;
    zoo_plan.execute(zoo_input, ws, engine, &pool);  // warm-up
    const std::uint64_t before = ws.allocation_count();
    for (std::int64_t r = 0; r < fast_runs; ++r) {
      const auto start = std::chrono::steady_clock::now();
      for (std::int64_t b = 0; b < zoo_batches; ++b) {
        zoo_plan.execute(zoo_input, ws, engine, &pool);
      }
      zoo_plan_pooled.seconds += seconds_since(start);
    }
    zoo_plan_pooled.seconds /= static_cast<double>(fast_runs);
    zoo_plan_pooled.steady_allocations = ws.allocation_count() - before;
  }

  const double pooled_vs_serial =
      zoo_plan_pooled.seconds > 0.0
          ? zoo_plan_tp.seconds / zoo_plan_pooled.seconds
          : 0.0;

  const double vanilla_total = vanilla.seconds * scale;
  const double flim_cpu_total = flim_plan.seconds * scale;
  const double flim_mt_total = flim_mt.seconds * scale;
  const double device_total = device_per_image_s *
                              static_cast<double>(paper_images) *
                              static_cast<double>(paper_runs);

  core::Table table({"platform", "measured_s", "extrapolated_total_s",
                     "speedup_vs_device"});
  table.add("X-Fault-style device sim",
            core::format_double(device_per_image_s, 3) + " /image",
            core::format_double(device_total, 0), std::string("1x"));
  table.add("FLIM (CPU, single-thread)",
            core::format_double(flim_plan.seconds, 3),
            core::format_double(flim_cpu_total, 1),
            core::format_double(device_total / flim_cpu_total, 0) + "x");
  table.add("FLIM (CPU, multi-threaded)",
            core::format_double(flim_mt.seconds, 3),
            core::format_double(flim_mt_total, 1),
            core::format_double(device_total / flim_mt_total, 0) + "x");
  table.add("Vanilla (no fault hooks)", core::format_double(vanilla.seconds, 3),
            core::format_double(vanilla_total, 1),
            core::format_double(device_total / vanilla_total, 0) + "x");
  table.add(zoo_name + " compiled plan",
            core::format_double(zoo_plan_tp.seconds, 3), "-", "-");
  table.add(zoo_name + " plan + pool (" +
                core::format_double(pooled_vs_serial, 2) + "x serial)",
            core::format_double(zoo_plan_pooled.seconds, 3), "-", "-");

  benchx::emit(
      "Fig 4f: runtime for 10,000 images x 50 runs (device baseline "
      "extrapolated from " +
          std::to_string(device_images) + " image(s), as in the paper)",
      "fig4f_performance", table);

  // Machine-readable trajectory record.
  std::ostringstream js;
  js << "{\n"
     << "  \"bench\": \"fig4f_performance\",\n"
     << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
     << "  \"threads\": " << pool.size() << ",\n"
     << "  \"device_seconds_per_image\": " << json_number(device_per_image_s)
     << ",\n"
     << "  \"lenet\": {\n";
  json_throughput(js, "vanilla_reference", vanilla, false);
  json_throughput(js, "plan_flim", flim_plan, true);
  json_throughput(js, "flim_multithread", flim_mt, false, "");
  js << "  },\n"
     << "  \"zoo\": {\n"
     << "    \"model\": \"" << zoo_name << "\",\n";
  json_throughput(js, "plan_flim", zoo_plan_tp, true);
  json_throughput(js, "plan_flim_pooled", zoo_plan_pooled, true);
  js << "    \"pooled_vs_serial\": " << json_number(pooled_vs_serial) << "\n"
     << "  }\n"
     << "}\n";
  std::ofstream out(json_path);
  out << js.str();
  out.close();
  std::cout << "[json] " << json_path << "\n";

  std::cout << "expected shape: FLIM is orders of magnitude faster than the "
               "device-level baseline; vanilla bounds FLIM from below; the "
               "compiled plan runs with zero steady-state workspace "
               "allocations and the multi-threaded configuration scales "
               "with cores (the paper's GPU doubled its CPU).\n";
  std::cout << core::format_system_info(core::collect_system_info());
  return 0;
}
