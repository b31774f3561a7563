#include "xfault/device_engine.hpp"

#include "core/check.hpp"
#include "fault/fault_registry.hpp"

namespace flim::xfault {

DeviceEngine::DeviceEngine(DeviceEngineConfig config)
    : config_(config), family_(lim::make_logic_family(config.family)) {}

DeviceEngine::DeviceEngine(DeviceEngineConfig config,
                           const fault::FaultVectorFile& vectors)
    : DeviceEngine(config) {
  for (const auto& entry : vectors.entries()) {
    set_layer_fault(entry);
  }
}

void DeviceEngine::set_layer_fault(const fault::FaultVectorEntry& entry) {
  pending_entries_[entry.layer_name] = entry;
  layers_.erase(entry.layer_name);  // rebuild lazily with the new faults
}

void DeviceEngine::inject_device_fault(const std::string& layer_name,
                                       std::int64_t row, std::int64_t col,
                                       lim::DeviceFaultKind kind,
                                       double severity) {
  LayerState& state = state_for(layer_name);
  state.xbar->inject_device_fault(row, col, kind, severity);
  state.has_faults = true;
}

DeviceEngine::LayerState DeviceEngine::make_state(
    const fault::FaultVectorEntry* entry) const {
  // Resolve the entry's component stack against the model registry.
  const fault::FaultRegistry& registry = fault::FaultRegistry::instance();
  std::vector<FlipComponent> components;
  if (entry != nullptr) {
    for (const fault::RealizedFault& fault : entry->components) {
      FlipComponent component;
      component.model = &registry.get(fault.model);
      component.fault = fault;
      components.push_back(std::move(component));
    }
    for (const FlipComponent& component : components) {
      const fault::ModelInfo& meta = component.model->info();
      FLIM_REQUIRE(meta.device_backend,
                   "fault model '" + meta.name +
                       "' is not supported by the device backend (it does "
                       "not reduce to per-gate flips plus static stuck "
                       "cells); use the flim engine");
      FLIM_REQUIRE(component.fault.mask.rows() ==
                           components.front().fault.mask.rows() &&
                       component.fault.mask.cols() ==
                           components.front().fault.mask.cols(),
                   "fault components of one layer must share a mask grid");
    }
  }

  LayerState state;
  lim::CrossbarConfig cfg = config_.crossbar;
  if (!components.empty()) {
    // Mask grid at gate granularity: one slot per gate.
    cfg.rows = components.front().fault.mask.rows();
    cfg.cols = components.front().fault.mask.cols() * lim::kCellsPerGate;
  }
  state.xbar = std::make_unique<lim::CrossbarArray>(cfg);
  const std::int64_t gates = state.xbar->num_gates();
  const std::int64_t gates_per_row = state.xbar->gates_per_row();

  for (FlipComponent& component : components) {
    const fault::FaultMask& mask = component.fault.mask;
    component.gate.assign(static_cast<std::size_t>(gates), 0);
    for (std::int64_t slot = 0; slot < mask.num_slots(); ++slot) {
      const std::int64_t row = slot / gates_per_row;
      const std::int64_t base_col =
          (slot % gates_per_row) * lim::kCellsPerGate;
      if (mask.flip(slot)) {
        component.gate[static_cast<std::size_t>(slot)] = 1;
        state.has_faults = true;
      }
      const auto result_col =
          base_col + static_cast<int>(family_->result_cell());
      if (mask.sa0(slot)) {
        state.xbar->inject_device_fault(row, result_col,
                                        lim::DeviceFaultKind::kStuckAt0);
        state.has_faults = true;
      }
      if (mask.sa1(slot)) {
        state.xbar->inject_device_fault(row, result_col,
                                        lim::DeviceFaultKind::kStuckAt1);
        state.has_faults = true;
      }
    }
  }
  state.flips = std::move(components);
  return state;
}

DeviceEngine::LayerState& DeviceEngine::state_for(
    const std::string& layer_name) {
  auto it = layers_.find(layer_name);
  if (it == layers_.end()) {
    const auto pending = pending_entries_.find(layer_name);
    const fault::FaultVectorEntry* entry =
        pending != pending_entries_.end() ? &pending->second : nullptr;
    it = layers_.emplace(layer_name, make_state(entry)).first;
  }
  return it->second;
}

void DeviceEngine::execute(const std::string& layer_name,
                           const tensor::BitMatrix& activations,
                           const tensor::BitMatrix& weights,
                           std::int64_t positions_per_image,
                           tensor::IntTensor& out) {
  FLIM_REQUIRE(activations.cols() == weights.cols(),
               "activations and weights must agree on K");
  FLIM_REQUIRE(positions_per_image > 0, "positions_per_image must be > 0");
  const std::int64_t m = activations.rows();
  const std::int64_t n = weights.rows();
  const std::int64_t k = activations.cols();
  if (out.shape() != tensor::Shape{m, n}) {
    out = tensor::IntTensor(tensor::Shape{m, n});
  }

  LayerState& state = state_for(layer_name);
  const std::int64_t gates = state.xbar->num_gates();

  std::vector<std::uint8_t> folded_flips;  // reused across images
  for (std::int64_t begin = 0; begin < m; begin += positions_per_image) {
    const std::int64_t end = std::min(begin + positions_per_image, m);
    // Each component's model decides whether its flips are sensitized on
    // this execution (e.g. the dynamic model fires every period-th one).
    // The active planes fold into one per-gate lookup outside the hot
    // product-term loop (XOR: stacked flip mechanisms cancel, matching
    // FaultModel::fold_term_planes).
    const std::int64_t exec = state.execution_counter++;
    const std::vector<std::uint8_t>* flip_plane = nullptr;
    std::size_t active_count = 0;
    for (const FlipComponent& component : state.flips) {
      if (!component.model->active(component.fault, exec)) continue;
      if (++active_count == 1) {
        flip_plane = &component.gate;
      } else {
        if (active_count == 2) folded_flips = *flip_plane;
        for (std::size_t g = 0; g < folded_flips.size(); ++g) {
          folded_flips[g] ^= component.gate[g];
        }
        flip_plane = &folded_flips;
      }
    }

    for (std::int64_t i = begin; i < end; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        std::int32_t acc = 0;
        for (std::int64_t t = 0; t < k; ++t) {
          // Weight-stationary gate assignment, identical to the FLIM
          // product-term mapping.
          const std::int64_t gate = (j * k + t) % gates;
          bool a = activations.get(i, t) > 0;
          const bool w = weights.get(j, t) > 0;
          if (flip_plane != nullptr &&
              (*flip_plane)[static_cast<std::size_t>(gate)] != 0) {
            a = !a;  // transient deviation of the stored operand state
          }
          const bool r = state.xbar->execute_xnor_on_gate(*family_, gate, a, w);
          acc += r ? 1 : -1;
          ++xnor_ops_;
        }
        out.at2(i, j) = acc;
      }
    }
  }
}

void DeviceEngine::reset_time() {
  for (auto& [name, state] : layers_) {
    state.execution_counter = 0;
  }
}

DeviceEngineStats DeviceEngine::stats() const {
  DeviceEngineStats s;
  s.xnor_ops = xnor_ops_;
  for (const auto& [name, state] : layers_) {
    const auto& cs = state.xbar->stats();
    s.crossbar.set_pulses += cs.set_pulses;
    s.crossbar.reset_pulses += cs.reset_pulses;
    s.crossbar.gate_steps += cs.gate_steps;
    s.crossbar.reads += cs.reads;
    s.crossbar.switching_events += cs.switching_events;
    s.crossbar.energy_joules += cs.energy_joules;
    s.crossbar.sim_time_seconds += cs.sim_time_seconds;
  }
  return s;
}

}  // namespace flim::xfault
