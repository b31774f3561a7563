// X-Fault-style device-level execution engine.
//
// Reproduces the baseline the paper compares against: "X-Fault describes the
// most detailed end-to-end fault injection platform injecting different
// traditional faults at the device level. However, this approach limits the
// platform's performance." Every XNOR product term is executed as a full
// micro-op schedule (operand programming pulses, MAGIC/IMPLY gate steps with
// transient device integration, sense-amp read) on a simulated crossbar.
//
// Fault realization at device level is driven by the registered fault
// models of each entry's component stack (fault_registry.hpp): a
// component's flip plane corrupts the stored state of operand A before the
// gate evaluates (transient deviation, gated by the model's time
// semantics, e.g. the dynamic model's period), and its stuck-at planes
// plant stuck result-cell devices (kStuckAt0/1). Models whose effect does
// not reduce to that shape (drift, readdisturb) are rejected with a
// pointer to the FLIM engine.
//
// Gate assignment is weight-stationary and identical to the FLIM
// product-term mapping (gate = (channel*K + term) mod gates), so FLIM and
// the device engine are bit-equivalent on the same mask -- the
// cross-validation the paper performs between FLIM and X-Fault.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bnn/engine.hpp"
#include "fault/fault_vector_file.hpp"
#include "lim/crossbar.hpp"
#include "lim/logic_family.hpp"

namespace flim::xfault {

/// Configuration of the device platform.
struct DeviceEngineConfig {
  /// Electrical configuration; rows/cols give the default per-layer array
  /// geometry (gates = rows * (cols / kCellsPerGate)) used when a layer has
  /// no fault entry. Layers with an entry get an array sized to the entry's
  /// mask grid (rows = mask rows, cols = mask cols * kCellsPerGate).
  lim::CrossbarConfig crossbar;
  lim::LogicFamilyKind family = lim::LogicFamilyKind::kMagic;
};

/// Aggregate device-activity counters across all layer arrays.
struct DeviceEngineStats {
  std::uint64_t xnor_ops = 0;
  lim::CrossbarStats crossbar;
};

/// Engine routing every XNOR through the memristive crossbar simulation.
class DeviceEngine final : public bnn::XnorExecutionEngine {
 public:
  explicit DeviceEngine(DeviceEngineConfig config);

  /// Builds per-layer fault state from a fault vector file. Mask grids are
  /// interpreted at GATE granularity: slot (r, c) is the gate in row r,
  /// column group c.
  DeviceEngine(DeviceEngineConfig config,
               const fault::FaultVectorFile& vectors);

  /// Adds/replaces the fault entry of one layer.
  void set_layer_fault(const fault::FaultVectorEntry& entry);

  /// Plants an arbitrary device fault on one cell of `layer_name`'s array
  /// (created lazily; honoring any mask entry set before). This is how the
  /// extended taxonomy -- transition faults, read disturb, incorrect read,
  /// drift -- reaches end-to-end inference: mask entries only express the
  /// abstract flip/stuck-at planes.
  void inject_device_fault(const std::string& layer_name, std::int64_t row,
                           std::int64_t col, lim::DeviceFaultKind kind,
                           double severity = 1.0);

  void execute(const std::string& layer_name,
               const tensor::BitMatrix& activations,
               const tensor::BitMatrix& weights,
               std::int64_t positions_per_image,
               tensor::IntTensor& out) override;

  void reset_time() override;

  /// Aggregated counters (includes per-layer crossbar activity).
  DeviceEngineStats stats() const;

 private:
  /// One realized flip-plane component: transient operand corruption over
  /// the gate grid, sensitized per execution through the component's model.
  struct FlipComponent {
    const fault::FaultModel* model = nullptr;
    fault::RealizedFault fault;
    std::vector<std::uint8_t> gate;  // flip plane at gate granularity
  };

  struct LayerState {
    std::unique_ptr<lim::CrossbarArray> xbar;
    std::vector<FlipComponent> flips;
    std::int64_t execution_counter = 0;
    bool has_faults = false;
  };

  LayerState& state_for(const std::string& layer_name);
  LayerState make_state(const fault::FaultVectorEntry* entry) const;

  DeviceEngineConfig config_;
  std::unique_ptr<lim::LogicFamily> family_;
  std::map<std::string, LayerState> layers_;
  std::map<std::string, fault::FaultVectorEntry> pending_entries_;
  std::uint64_t xnor_ops_ = 0;
};

}  // namespace flim::xfault
