// Built-in linear code families: hamming (SEC / extended SEC-DED), hsiao
// (odd-weight-column SEC-DED), and secded (the (72,64) extended Hamming
// code, identical to hamming(d=64)). The BCH family lives in bch.cpp.
#include <bit>
#include <utility>

#include "core/check.hpp"
#include "reliability/ecc/codec.hpp"
#include "reliability/ecc/registry.hpp"

namespace flim::reliability::ecc {

namespace {

bool is_power_of_two(int x) { return x > 0 && (x & (x - 1)) == 0; }

/// Smallest m with 2^m >= data_bits + m + 1: the Hamming parity-bit count
/// of a SEC code over `data_bits` data bits (add one for SEC-DED).
int hamming_parity_bits(int data_bits) {
  FLIM_REQUIRE(data_bits >= 1, "a code needs at least one data bit");
  int m = 2;
  while ((1 << m) < data_bits + m + 1) ++m;
  return m;
}

/// Shared immutable-instance plumbing: identity, capability, and cost.
class ConfiguredBase : public Codec {
 public:
  ConfiguredBase(std::string family, std::string canonical, Capability cap,
                 std::int64_t syndrome_ops)
      : family_(std::move(family)),
        canonical_(std::move(canonical)),
        capability_(cap),
        syndrome_ops_(syndrome_ops) {}

  const std::string& family() const override { return family_; }
  const std::string& canonical() const override { return canonical_; }
  const Capability& capability() const override { return capability_; }
  CostModel cost() const override {
    return CostModel{capability_.data_bits, capability_.parity_bits,
                     syndrome_ops_};
  }

 protected:
  void check_data(const BitVec& data) const {
    FLIM_REQUIRE(data.size() ==
                     static_cast<std::size_t>(capability_.data_bits),
                 canonical_ + ": expected " +
                     std::to_string(capability_.data_bits) + " data bits, got " +
                     std::to_string(data.size()));
  }
  void check_code(const BitVec& code) const {
    FLIM_REQUIRE(code.size() ==
                     static_cast<std::size_t>(capability_.code_bits),
                 canonical_ + ": expected " +
                     std::to_string(capability_.code_bits) + " code bits, got " +
                     std::to_string(code.size()));
  }

 private:
  std::string family_;
  std::string canonical_;
  Capability capability_;
  std::int64_t syndrome_ops_;
};

// ---------------------------------------------------------------------------
// hamming: classical 1-based power-of-two-position layout, parameterized
// over the data width, with or without the extending overall-parity bit.

/// Read-XOR incidences of the Hamming parity equations over positions
/// 1..n_h (each position contributes to popcount(position) equations),
/// plus the overall-parity equation when extended.
std::int64_t hamming_syndrome_ops(int n_h, bool extended) {
  std::int64_t ops = 0;
  for (int p = 1; p <= n_h; ++p) {
    ops += std::popcount(static_cast<unsigned>(p));
  }
  if (extended) ops += n_h + 1;
  return ops;
}

/// Hamming codeword layout: when extended, vector index 0 holds the
/// overall parity and index i (1..n_h) holds 1-based code position i;
/// plain SEC drops the overall bit and index i holds position i+1.
class HammingCodec : public ConfiguredBase {
 public:
  HammingCodec(std::string family, std::string canonical, int data_bits,
               bool extended)
      : ConfiguredBase(
            std::move(family), std::move(canonical),
            make_capability(data_bits, extended),
            hamming_syndrome_ops(data_bits + hamming_parity_bits(data_bits),
                                 extended)),
        extended_(extended) {
    const int m = hamming_parity_bits(data_bits);
    positions_ = data_bits + m;
    data_position_.reserve(static_cast<std::size_t>(data_bits));
    position_to_data_.assign(static_cast<std::size_t>(positions_) + 1, -1);
    for (int pos = 1; pos <= positions_; ++pos) {
      if (is_power_of_two(pos)) continue;
      position_to_data_[static_cast<std::size_t>(pos)] =
          static_cast<int>(data_position_.size());
      data_position_.push_back(pos);
    }
    FLIM_ASSERT(static_cast<int>(data_position_.size()) == data_bits);
  }

  BitVec encode(const BitVec& data) const override {
    check_data(data);
    BitVec code(static_cast<std::size_t>(capability().code_bits), 0);
    int syn = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (data[i] == 0) continue;
      set_position(code, data_position_[i]);
      syn ^= data_position_[i];
    }
    for (int b = 0; (1 << b) <= positions_; ++b) {
      if ((syn >> b) & 1) set_position(code, 1 << b);
    }
    if (extended_) {
      std::uint8_t overall = 0;
      for (std::size_t j = 1; j < code.size(); ++j) overall ^= code[j];
      code[0] = overall;
    }
    return code;
  }

  DecodeOutcome decode(const BitVec& code) const override {
    check_code(code);
    DecodeOutcome out;
    out.data = extract_data(code);
    int syn = 0;
    int ones = 0;
    for (int pos = 1; pos <= positions_; ++pos) {
      if (get_position(code, pos) != 0) {
        syn ^= pos;
        ++ones;
      }
    }
    if (!extended_) {
      if (syn == 0) {
        out.status = DecodeStatus::kClean;
      } else if (syn <= positions_) {
        // SEC assumes a single error at position `syn` and corrects it.
        out.status = DecodeStatus::kCorrected;
        const int di = position_to_data_[static_cast<std::size_t>(syn)];
        if (di >= 0) out.data[static_cast<std::size_t>(di)] ^= 1;
      } else {
        // No single error produces a syndrome beyond the code length.
        out.status = DecodeStatus::kDetected;
      }
      return out;
    }

    const bool parity_mismatch = ((ones + code[0]) & 1) != 0;
    if (syn == 0 && !parity_mismatch) {
      out.status = DecodeStatus::kClean;
      return out;
    }
    if (parity_mismatch) {
      if (syn == 0) {
        // The overall parity bit itself flipped; data is intact.
        out.status = DecodeStatus::kCorrected;
        return out;
      }
      if (syn > positions_) {
        // >= 3 errors; report detection rather than miscorrect.
        out.status = DecodeStatus::kDetected;
        return out;
      }
      out.status = DecodeStatus::kCorrected;
      const int di = position_to_data_[static_cast<std::size_t>(syn)];
      if (di >= 0) out.data[static_cast<std::size_t>(di)] ^= 1;
      return out;
    }
    // Non-zero syndrome with intact overall parity: even error count.
    out.status = DecodeStatus::kDetected;
    return out;
  }

 private:
  static Capability make_capability(int data_bits, bool extended) {
    const int m = hamming_parity_bits(data_bits);
    Capability cap;
    cap.data_bits = data_bits;
    cap.parity_bits = extended ? m + 1 : m;
    cap.code_bits = data_bits + cap.parity_bits;
    cap.correct_guarantee = 1;
    cap.detect_guarantee = extended ? 2 : 1;
    return cap;
  }

  std::size_t index_of(int position) const {
    return static_cast<std::size_t>(extended_ ? position : position - 1);
  }
  void set_position(BitVec& code, int position) const {
    code[index_of(position)] ^= 1;
  }
  std::uint8_t get_position(const BitVec& code, int position) const {
    return code[index_of(position)];
  }
  BitVec extract_data(const BitVec& code) const {
    BitVec data(data_position_.size(), 0);
    for (std::size_t i = 0; i < data_position_.size(); ++i) {
      data[i] = get_position(code, data_position_[i]);
    }
    return data;
  }

  bool extended_;
  int positions_ = 0;               // n_h = data + hamming parity
  std::vector<int> data_position_;  // data bit index -> 1-based position
  std::vector<int> position_to_data_;
};

class HammingFamily : public CodecFamily {
 public:
  HammingFamily() {
    info_.name = "hamming";
    info_.summary =
        "classical Hamming code: SEC with k=m parity bits, extended SEC-DED "
        "with k=m+1 (m = smallest with 2^m >= d+m+1)";
    info_.params = {
        {"d", 64.0, 1.0, 4096.0, true, "data bits per codeword"},
        {"k", 0.0, 0.0, 64.0, true,
         "parity bits: m (SEC), m+1 (SEC-DED), or 0 to auto-size to m+1"},
    };
  }

  const CodecInfo& info() const override { return info_; }

  void validate(const ModelParams& params) const override {
    CodecFamily::validate(params);
    const int d = static_cast<int>(params.get("d", 64.0));
    const int m = hamming_parity_bits(d);
    const int k = static_cast<int>(params.get("k", 0.0));
    FLIM_REQUIRE(k == 0 || k == m || k == m + 1,
                 "hamming: d=" + std::to_string(d) + " needs k=" +
                     std::to_string(m) + " (SEC) or k=" + std::to_string(m + 1) +
                     " (SEC-DED); got k=" + std::to_string(k));
  }

  std::unique_ptr<Codec> make(const ModelParams& params) const override {
    const int d = static_cast<int>(params.get("d", 64.0));
    const int m = hamming_parity_bits(d);
    const int k = static_cast<int>(params.get("k", 0.0));
    const bool extended = (k == 0 || k == m + 1);
    return std::make_unique<HammingCodec>(
        info_.name, canonical_codec_text(info_.name, params), d, extended);
  }

 private:
  CodecInfo info_;
};

// ---------------------------------------------------------------------------
// hsiao: odd-weight-column SEC-DED. The parity-check matrix H = [A | I]
// uses distinct odd-weight (>= 3) columns for the data bits -- every double
// error yields an even-weight (hence non-column, hence detected) syndrome
// with strictly fewer parity-tree levels than the extended Hamming code.

/// Smallest k whose odd-weight (>= 3) k-bit patterns cover d data columns:
/// 2^(k-1) odd patterns minus the k weight-1 columns reserved for parity.
int hsiao_auto_parity_bits(int data_bits) {
  int k = 4;
  while ((std::int64_t{1} << (k - 1)) - k < data_bits) ++k;
  return k;
}

class HsiaoCodec : public ConfiguredBase {
 public:
  HsiaoCodec(std::string family, std::string canonical, int data_bits,
             int parity_bits)
      : ConfiguredBase(std::move(family), std::move(canonical),
                       make_capability(data_bits, parity_bits),
                       /*syndrome_ops=*/0) {
    // Deterministic column choice: all odd-weight >= 3 patterns in
    // ascending weight, then ascending numeric value -- the minimal-weight
    // (fastest-tree) subset, reproducible across runs and platforms.
    columns_.reserve(static_cast<std::size_t>(data_bits));
    for (int weight = 3; weight <= parity_bits &&
                         static_cast<int>(columns_.size()) < data_bits;
         weight += 2) {
      for (std::uint64_t pattern = 0;
           pattern < (std::uint64_t{1} << parity_bits) &&
           static_cast<int>(columns_.size()) < data_bits;
           ++pattern) {
        if (std::popcount(pattern) == weight) columns_.push_back(pattern);
      }
    }
    FLIM_ASSERT(static_cast<int>(columns_.size()) == data_bits);
    std::int64_t ops = 0;
    for (const std::uint64_t c : columns_) ops += std::popcount(c);
    ops += parity_bits;  // the identity columns
    syndrome_ops_ = ops;
  }

  CostModel cost() const override {
    return CostModel{capability().data_bits, capability().parity_bits,
                     syndrome_ops_};
  }

  BitVec encode(const BitVec& data) const override {
    check_data(data);
    BitVec code(static_cast<std::size_t>(capability().code_bits), 0);
    std::uint64_t parity = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      code[i] = data[i];
      if (data[i] != 0) parity ^= columns_[i];
    }
    for (int j = 0; j < capability().parity_bits; ++j) {
      code[data.size() + static_cast<std::size_t>(j)] =
          static_cast<std::uint8_t>((parity >> j) & 1);
    }
    return code;
  }

  DecodeOutcome decode(const BitVec& code) const override {
    check_code(code);
    const auto d = static_cast<std::size_t>(capability().data_bits);
    DecodeOutcome out;
    out.data.assign(code.begin(), code.begin() + static_cast<std::ptrdiff_t>(d));
    std::uint64_t syn = 0;
    for (std::size_t i = 0; i < d; ++i) {
      if (code[i] != 0) syn ^= columns_[i];
    }
    for (int j = 0; j < capability().parity_bits; ++j) {
      if (code[d + static_cast<std::size_t>(j)] != 0) {
        syn ^= std::uint64_t{1} << j;
      }
    }
    if (syn == 0) {
      out.status = DecodeStatus::kClean;
      return out;
    }
    if ((std::popcount(syn) & 1) == 0) {
      // Even-weight syndromes are never columns (all columns have odd
      // weight): a double error, detected by construction.
      out.status = DecodeStatus::kDetected;
      return out;
    }
    if (std::popcount(syn) == 1) {
      // A parity column: the parity bit itself flipped; data is intact.
      out.status = DecodeStatus::kCorrected;
      return out;
    }
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      if (columns_[i] == syn) {
        out.status = DecodeStatus::kCorrected;
        out.data[i] ^= 1;
        return out;
      }
    }
    // Odd-weight non-column syndrome: >= 3 errors, detected.
    out.status = DecodeStatus::kDetected;
    return out;
  }

 private:
  static Capability make_capability(int data_bits, int parity_bits) {
    Capability cap;
    cap.data_bits = data_bits;
    cap.parity_bits = parity_bits;
    cap.code_bits = data_bits + parity_bits;
    cap.correct_guarantee = 1;
    cap.detect_guarantee = 2;
    return cap;
  }

  std::vector<std::uint64_t> columns_;  // data-bit parity columns (H's A)
  std::int64_t syndrome_ops_ = 0;
};

class HsiaoFamily : public CodecFamily {
 public:
  HsiaoFamily() {
    info_.name = "hsiao";
    info_.summary =
        "Hsiao odd-weight-column SEC-DED: the standard DRAM/SRAM code, "
        "shallower parity trees than extended Hamming";
    info_.params = {
        {"d", 64.0, 1.0, 4096.0, true, "data bits per codeword"},
        {"k", 0.0, 0.0, 48.0, true,
         "parity bits (0 auto-sizes to the smallest k whose odd-weight "
         "columns cover d)"},
    };
  }

  const CodecInfo& info() const override { return info_; }

  void validate(const ModelParams& params) const override {
    CodecFamily::validate(params);
    const int d = static_cast<int>(params.get("d", 64.0));
    const int k = static_cast<int>(params.get("k", 0.0));
    const int k_min = hsiao_auto_parity_bits(d);
    FLIM_REQUIRE(k == 0 || k >= k_min,
                 "hsiao: d=" + std::to_string(d) + " needs k >= " +
                     std::to_string(k_min) +
                     " (odd-weight columns must cover every data bit); got "
                     "k=" + std::to_string(k));
  }

  std::unique_ptr<Codec> make(const ModelParams& params) const override {
    const int d = static_cast<int>(params.get("d", 64.0));
    int k = static_cast<int>(params.get("k", 0.0));
    if (k == 0) k = hsiao_auto_parity_bits(d);
    return std::make_unique<HsiaoCodec>(
        info_.name, canonical_codec_text(info_.name, params), d, k);
  }

 private:
  CodecInfo info_;
};

// ---------------------------------------------------------------------------
// secded: the (72,64) SEC-DED code of memory scrubbing, served by the
// extended Hamming codec at d=64 under its own family name.

class SecDedFamily : public CodecFamily {
 public:
  SecDedFamily() {
    info_.name = "secded";
    info_.summary =
        "the (72,64) extended Hamming SEC-DED scrub code, identical to "
        "hamming(d=64)";
    info_.params = {};  // fixed geometry; use hamming(d=...) to resize
  }

  const CodecInfo& info() const override { return info_; }

  std::unique_ptr<Codec> make(const ModelParams& params) const override {
    return std::make_unique<HammingCodec>(
        info_.name, canonical_codec_text(info_.name, params), 64,
        /*extended=*/true);
  }

 private:
  CodecInfo info_;
};

}  // namespace

std::unique_ptr<CodecFamily> make_hamming_family() {
  return std::make_unique<HammingFamily>();
}
std::unique_ptr<CodecFamily> make_hsiao_family() {
  return std::make_unique<HsiaoFamily>();
}
std::unique_ptr<CodecFamily> make_secded_family() {
  return std::make_unique<SecDedFamily>();
}

}  // namespace flim::reliability::ecc
