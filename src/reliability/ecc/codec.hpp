// Polymorphic ECC codecs over crossbar-stored bit vectors.
//
// This subsystem mirrors the fault-registry design (fault/fault_model.hpp):
// each code family is a plugin with a declarative parameter schema,
// configured instances expose encode/decode/correct over plain bit vectors
// plus a capability report and an in-crossbar cost model, and families are
// resolved by name through a string-keyed registry (registry.hpp) from
// expressions such as "hamming(d=64,k=8)", "hsiao(d=64,k=0)" or
// "bch(d=64,t=2)". A scrub pass applies a configured code's correction
// radius to a fault mask through fault/residual.hpp.
//
// Codewords are std::vector<uint8_t> of 0/1 values so every family --
// whatever its internal representation -- presents one exhaustively
// enumerable surface (exhaust.hpp walks all nCr error placements through
// this interface).
#pragma once

/// \file
/// Polymorphic ECC codec interface: code families as plugins with
/// declarative parameter schemas, configured instances exposing
/// encode/decode/correct over explicit bit vectors plus capability and
/// in-crossbar cost reports. See docs/ecc.md.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_model.hpp"

namespace flim::reliability::ecc {

/// One codeword (or data word) as explicit bits; element values are 0 or 1.
using BitVec = std::vector<std::uint8_t>;

/// Parameter schema entries are shared with the fault registry: same
/// declarative shape, same range/integer validation, same expression
/// grammar.
using fault::ModelParams;
using fault::ParamInfo;

/// Static description of one registered code family.
struct CodecInfo {
  /// Registry key and expression name ("hamming", "hsiao", "bch", "secded").
  std::string name;
  /// One-line summary for `flim_cli ecc list`.
  std::string summary;
  /// Declared parameters, in documentation order.
  std::vector<ParamInfo> params;
};

/// Guarantee report of one configured codec.
struct Capability {
  /// Data bits per codeword (d).
  int data_bits = 0;
  /// Parity bits per codeword (k).
  int parity_bits = 0;
  /// Total codeword bits (d + k).
  int code_bits = 0;
  /// Every error pattern of weight <= correct_guarantee is corrected.
  int correct_guarantee = 0;
  /// Every error pattern of weight <= detect_guarantee is corrected or
  /// flagged -- never silently aliased to wrong data. Beyond this weight
  /// miscorrection is possible (exhaust.hpp measures how often).
  int detect_guarantee = 0;
};

/// In-crossbar cost of deploying one configured codec: spare columns for
/// parity cells and crossbar read cycles for a scrubbing pass.
struct CostModel {
  /// Data bits per codeword (d).
  int data_bits = 0;
  /// Parity bits per codeword (k).
  int parity_bits = 0;
  /// Crossbar read-XOR operations one syndrome computation costs (one per
  /// parity equation term). Scrubbing decodes every word once.
  std::int64_t syndrome_ops_per_word = 0;

  /// Parity storage overhead: parity cells per data cell.
  double parity_overhead() const {
    return static_cast<double>(parity_bits) / static_cast<double>(data_bits);
  }

  /// Spare columns a crossbar of `data_columns` weight columns must add to
  /// hold parity (ceiling: partial words still need full parity).
  std::int64_t extra_columns(std::int64_t data_columns) const {
    const auto d = static_cast<std::int64_t>(data_bits);
    const std::int64_t words = (data_columns + d - 1) / d;
    return words * static_cast<std::int64_t>(parity_bits);
  }

  /// Read cycles one scrub pass over `data_cells` stored bits costs.
  std::int64_t scrub_cycles(std::int64_t data_cells) const {
    const auto d = static_cast<std::int64_t>(data_bits);
    const std::int64_t words = (data_cells + d - 1) / d;
    return words * syndrome_ops_per_word;
  }
};

/// Decode verdicts, family-agnostic.
enum class DecodeStatus : std::uint8_t {
  kClean = 0,   ///< codeword intact
  kCorrected,   ///< errors found and repaired (data is trustworthy)
  kDetected,    ///< uncorrectable; flagged, data NOT repaired
};

/// Result of decoding one (possibly corrupted) codeword.
struct DecodeOutcome {
  /// Decoded (possibly corrected) data bits; on kDetected the raw data
  /// bits as stored, unrepaired.
  BitVec data;
  /// Decode verdict for `data`.
  DecodeStatus status = DecodeStatus::kClean;
};

/// A configured codec instance: one code family resolved against one
/// parameter set. Instances are immutable and thread-safe after
/// construction; the registry caches them per canonical expression.
class Codec {
 public:
  virtual ~Codec() = default;

  /// Family name ("hamming", ...).
  virtual const std::string& family() const = 0;

  /// Canonical expression of this configuration (family name plus the
  /// explicitly-set parameters, sorted -- the registry cache key and the
  /// store-fingerprint spelling).
  virtual const std::string& canonical() const = 0;

  /// Guarantee report of this configuration.
  virtual const Capability& capability() const = 0;
  /// In-crossbar deployment cost of this configuration.
  virtual CostModel cost() const = 0;

  /// Encodes `data` (capability().data_bits entries) into a codeword of
  /// capability().code_bits bits.
  virtual BitVec encode(const BitVec& data) const = 0;

  /// Decodes a (possibly corrupted) codeword of capability().code_bits
  /// bits.
  virtual DecodeOutcome decode(const BitVec& code) const = 0;

  /// Re-encodes the decoded data: the scrubbed codeword a repair pass would
  /// write back. On kDetected the input is returned unchanged (nothing
  /// trustworthy to write).
  BitVec correct(const BitVec& code) const;
};

/// A registered code family: schema plus configured-instance factory.
/// Families are stateless singletons owned by the registry.
class CodecFamily {
 public:
  virtual ~CodecFamily() = default;

  /// Static description: registry name, summary, parameter schema.
  virtual const CodecInfo& info() const = 0;

  /// Resolves `params` against the declared schema: unknown names and
  /// out-of-range values throw std::invalid_argument with the offending
  /// key. Override for cross-parameter rules (call the base first).
  virtual void validate(const ModelParams& params) const;

  /// Builds one configured instance; `params` has been validated.
  virtual std::unique_ptr<Codec> make(const ModelParams& params) const = 0;
};

/// Canonical expression text: `name` plus the explicitly-set parameters in
/// sorted order with shortest round-trip number formatting -- the exact
/// spelling rules of fault::FaultStack::canonical().
std::string canonical_codec_text(const std::string& name,
                                 const ModelParams& params);

}  // namespace flim::reliability::ecc
