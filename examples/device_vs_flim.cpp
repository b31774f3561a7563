// Device-level vs FLIM execution: the cross-validation and the speed gap.
//
// Runs the same binarized layer through (a) the FLIM fast path and (b) the
// X-Fault-style crossbar simulation with identical fault masks, shows the
// results are bit-identical, and reports the runtime ratio -- the essence of
// the paper's Fig 4f argument on a single layer.
#include <chrono>
#include <iostream>

#include "bnn/binary_dense.hpp"
#include "bnn/engine.hpp"
#include "bnn/flim_engine.hpp"
#include "bnn/model.hpp"
#include "core/rng.hpp"
#include "fault/fault_registry.hpp"
#include "xfault/device_engine.hpp"

int main() {
  using namespace flim;
  using Clock = std::chrono::steady_clock;

  // A binarized dense layer: 128 inputs -> 32 outputs.
  core::Rng rng(3);
  tensor::FloatTensor weights(tensor::Shape{32, 128});
  for (std::int64_t i = 0; i < weights.numel(); ++i) {
    weights[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  }
  bnn::Model layer("demo");
  layer.add(std::make_unique<bnn::BinaryDense>("demo", 128, 32, weights));

  tensor::FloatTensor x(tensor::Shape{8, 128});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  }

  // Identical product-term fault masks for both engines (gate-grid layout).
  fault::RealizeContext ctx;
  ctx.grid = {16, 16};  // 256 gates
  core::Rng mask_rng(7);
  const fault::FaultVectorEntry entry =
      fault::parse_fault_expr("stuckat(rate=0.08)")
          .realize_entry("demo", fault::FaultGranularity::kProductTerm, ctx,
                         mask_rng);
  const fault::FaultMask& mask = entry.components.front().mask;
  std::cout << "mask: " << mask.count_sa0() << " SA0 + " << mask.count_sa1()
            << " SA1 gates of 256\n";

  bnn::FlimEngine flim;
  flim.set_layer_fault(entry);

  xfault::DeviceEngineConfig cfg;
  cfg.family = lim::LogicFamilyKind::kMagic;
  xfault::DeviceEngine device(cfg);
  device.set_layer_fault(entry);

  auto t0 = Clock::now();
  const tensor::FloatTensor flim_out = layer.forward(x, flim);
  const double flim_s = std::chrono::duration<double>(Clock::now() - t0).count();

  t0 = Clock::now();
  const tensor::FloatTensor dev_out = layer.forward(x, device);
  const double dev_s = std::chrono::duration<double>(Clock::now() - t0).count();

  const bool identical = flim_out == dev_out;
  std::cout << "outputs bit-identical: " << (identical ? "YES" : "NO") << "\n";
  std::cout << "FLIM fast path: " << flim_s * 1e3 << " ms\n";
  std::cout << "device simulation (" << device.stats().xnor_ops
            << " XNOR gate executions): " << dev_s * 1e3 << " ms\n";
  std::cout << "speedup: " << dev_s / flim_s << "x on this single layer -- "
            << "the per-memristor transient simulation is what makes "
            << "X-Fault-style platforms slow.\n";
  const auto stats = device.stats();
  std::cout << "device activity: " << stats.crossbar.set_pulses << " SET + "
            << stats.crossbar.reset_pulses << " RESET pulses, "
            << stats.crossbar.gate_steps << " gate steps, "
            << stats.crossbar.energy_joules * 1e9 << " nJ modeled energy\n";
  return identical ? 0 : 1;
}
