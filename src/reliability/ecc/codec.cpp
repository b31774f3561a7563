#include "reliability/ecc/codec.hpp"

#include <cmath>

#include "core/check.hpp"
#include "core/report.hpp"

namespace flim::reliability::ecc {

BitVec Codec::correct(const BitVec& code) const {
  const DecodeOutcome outcome = decode(code);
  if (outcome.status == DecodeStatus::kDetected) return code;
  return encode(outcome.data);
}

void CodecFamily::validate(const ModelParams& params) const {
  const CodecInfo& meta = info();
  for (const auto& [key, value] : params.values()) {
    const ParamInfo* declared = nullptr;
    for (const ParamInfo& p : meta.params) {
      if (p.name == key) declared = &p;
    }
    if (declared == nullptr) {
      std::string known;
      for (const ParamInfo& p : meta.params) {
        if (!known.empty()) known += ", ";
        known += p.name;
      }
      FLIM_REQUIRE(false, "ecc codec '" + meta.name + "' has no parameter '" +
                              key + "' (known: " + known + ")");
    }
    FLIM_REQUIRE(std::isfinite(value) && value >= declared->min_value &&
                     value <= declared->max_value,
                 "ecc codec '" + meta.name + "': parameter '" + key +
                     "' out of range (" + std::to_string(value) + ")");
    FLIM_REQUIRE(!declared->integer || std::floor(value) == value,
                 "ecc codec '" + meta.name + "': parameter '" + key +
                     "' must be a whole number (" + std::to_string(value) +
                     ")");
  }
}

std::string canonical_codec_text(const std::string& name,
                                 const ModelParams& params) {
  std::string out = name;
  const auto& values = params.values();
  if (!values.empty()) {
    out += "(";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) out += ",";
      out += values[i].first + "=" +
             core::format_double_shortest(values[i].second);
    }
    out += ")";
  }
  return out;
}

}  // namespace flim::reliability::ecc
