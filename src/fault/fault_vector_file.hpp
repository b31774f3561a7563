// Binary fault-vector files ("noise vector extraction").
//
// "The 2-dimensional arrays are flattened to 1 dimension. Furthermore, the
// vectors are stored in a binary file annotated with meta-information about
// the assigned layer and mask type. The binary file is independent of the
// dataset and reusable for a myriad of experiments." (paper, Section III).
//
// File layout (little-endian):
//   u64 magic 'FLIMFVC1'  u32 version  u32 entry_count
//   per entry:
//     u32 name_len, name bytes
//     u8 kind, u8 granularity, u32 dynamic_period
//     u64 rows, u64 cols
//     bit-packed flip plane, sa0 plane, sa1 plane (rows*cols bits each,
//     padded to whole bytes)
//   version 2 appends, per entry, the realized fault-model components:
//     u32 component_count
//     per component:
//       u32 model_len, model bytes
//       u32 param_count; per param: u32 key_len, key bytes, f64 value
//       i64 first_active
//       u64 rows, u64 cols, the three bit-packed planes
//       u64 site_value_count; i64 site values
// Only version 2 is written. Its kind, dynamic_period and mask fields are
// stand-ins (bit-flip, 0, a clear 1x1 mask) that keep the header readable by
// older builds. Version 1 is read-only: each of its entries is one fault of
// the paper taxonomy and loads as a single component of the matching
// registered model.
#pragma once

#include <string>
#include <vector>

#include "fault/fault_mask.hpp"
#include "fault/fault_model.hpp"
#include "fault/fault_spec.hpp"

namespace flim::fault {

/// One named fault entry (typically one per BNN layer): the paper's fault
/// vector, held as the realized components of a FaultStack in application
/// order.
struct FaultVectorEntry {
  std::string layer_name;
  FaultGranularity granularity = FaultGranularity::kOutputElement;
  /// Realized fault-model components, in stack order.
  std::vector<RealizedFault> components;

  /// Canonical description: the component stack expression.
  std::string describe() const;

  /// Union of every component's planes -- the static defect footprint
  /// consumers like the canary monitor and ECC scrubber see. Empty for an
  /// entry without components.
  FaultMask combined_mask() const;

  bool operator==(const FaultVectorEntry& other) const = default;
};

/// A reusable set of fault vectors.
class FaultVectorFile {
 public:
  FaultVectorFile() = default;

  void add(FaultVectorEntry entry) { entries_.push_back(std::move(entry)); }
  const std::vector<FaultVectorEntry>& entries() const { return entries_; }
  /// Mutable view, for post-realization rewrites (the ECC residual scrub
  /// edits masks in place so the realization RNG stream stays untouched).
  std::vector<FaultVectorEntry>& mutable_entries() { return entries_; }
  std::size_t size() const { return entries_.size(); }

  /// Finds the entry for a layer; nullptr when absent.
  const FaultVectorEntry* find(const std::string& layer_name) const;

  /// Serializes to / from the binary representation.
  std::vector<std::uint8_t> serialize() const;
  static FaultVectorFile deserialize(const std::vector<std::uint8_t>& bytes);

  /// File I/O wrappers.
  void save(const std::string& path) const;
  static FaultVectorFile load(const std::string& path);

  bool operator==(const FaultVectorFile& other) const {
    return entries_ == other.entries_;
  }

 private:
  std::vector<FaultVectorEntry> entries_;
};

}  // namespace flim::fault
