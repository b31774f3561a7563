#include "fault/fault_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "core/check.hpp"

namespace flim::fault {

double ModelParams::get(const std::string& name, double fallback) const {
  for (const auto& [key, value] : values_) {
    if (key == name) return value;
  }
  return fallback;
}

bool ModelParams::has(const std::string& name) const {
  for (const auto& [key, value] : values_) {
    if (key == name) return true;
  }
  return false;
}

double realized_param(const RealizedFault& fault, const std::string& name,
                      double fallback) {
  for (const auto& [key, value] : fault.params) {
    if (key == name) return value;
  }
  return fallback;
}

ModelParams make_params(std::vector<std::pair<std::string, double>> values) {
  std::sort(values.begin(), values.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < values.size(); ++i) {
    FLIM_REQUIRE(values[i - 1].first != values[i].first,
                 "duplicate fault-model parameter: " + values[i].first);
  }
  return ModelParams(std::move(values));
}

void TermScanner::skip_blanks() {
  while (pos_ < expr_.size() && (expr_[pos_] == ' ' || expr_[pos_] == '\t')) {
    ++pos_;
  }
}

bool TermScanner::done() {
  skip_blanks();
  return pos_ >= expr_.size();
}

bool TermScanner::accept(char c) {
  if (done() || expr_[pos_] != c) return false;
  ++pos_;
  return true;
}

std::string TermScanner::name() {
  skip_blanks();
  const std::size_t begin = pos_;
  const auto is_name_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
  };
  while (pos_ < expr_.size() && is_name_char(expr_[pos_])) ++pos_;
  if (pos_ == begin) fail(begin, std::string("expected a ") + head_ + " name");
  return expr_.substr(begin, pos_ - begin);
}

std::vector<std::pair<std::string, double>> TermScanner::params() {
  std::vector<std::pair<std::string, double>> out;
  if (!accept('(') || accept(')')) return out;
  while (true) {
    const std::string key = name();
    if (!accept('=')) {
      fail(pos_, "expected '=' after parameter '" + key + "'");
    }
    skip_blanks();
    const char* begin = expr_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) {
      fail(pos_, "expected a number for parameter '" + key + "'");
    }
    pos_ += static_cast<std::size_t>(end - begin);
    out.emplace_back(key, value);
    if (accept(',')) continue;
    if (accept(')')) return out;
    fail(pos_, "expected ',' or ')' in parameter list");
  }
}

void TermScanner::fail(std::size_t at, const std::string& what) const {
  FLIM_REQUIRE(false, std::string("bad ") + kind_ + " expression '" + expr_ +
                          "' at position " + std::to_string(at) + ": " + what);
  std::abort();  // unreachable; FLIM_REQUIRE(false, ...) always throws
}

void FaultModel::validate(const ModelParams& params) const {
  const ModelInfo& meta = info();
  bool declares_clustered = false;
  bool declares_rate = false;
  for (const ParamInfo& p : meta.params) {
    if (p.name == "clustered") declares_clustered = true;
    if (p.name == "rate") declares_rate = true;
  }
  // Every placement-based model (declares both `clustered` and `rate`)
  // gets the clustered-needs-sites rule automatically -- registered
  // third-party models included.
  if (declares_clustered && declares_rate &&
      params.get("clustered", 0.0) != 0.0 && params.get("rate", 0.0) == 0.0) {
    FLIM_REQUIRE(false, "fault model '" + meta.name +
                            "': clustered placement with rate=0 places no "
                            "faults; set rate > 0 or drop clustered=1");
  }
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
      FLIM_REQUIRE(false, "fault model '" + meta.name +
                              "' has no parameter '" + key + "' (known: " +
                              known + ")");
    }
    FLIM_REQUIRE(std::isfinite(value) && value >= declared->min_value &&
                     value <= declared->max_value,
                 "fault model '" + meta.name + "': parameter '" + key +
                     "' out of range (" + std::to_string(value) + ")");
    FLIM_REQUIRE(!declared->integer || std::floor(value) == value,
                 "fault model '" + meta.name + "': parameter '" + key +
                     "' must be a whole number (" + std::to_string(value) +
                     ")");
  }
}

bool FaultModel::active(const RealizedFault& fault,
                        std::int64_t execution) const {
  return execution >= fault.first_active;
}

void FaultModel::apply_output_element(const RealizedFault& fault,
                                      tensor::IntTensor& feature,
                                      std::int64_t row_begin,
                                      std::int64_t row_end,
                                      std::int64_t /*execution*/,
                                      std::int32_t full_scale) const {
  const std::int64_t channels = feature.shape()[1];
  const std::int64_t slots = fault.mask.num_slots();
  std::int64_t op = 0;  // op index within this image, position-major
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    std::int32_t* row = feature.data() + r * channels;
    for (std::int64_t c = 0; c < channels; ++c, ++op) {
      const std::int64_t slot = op % slots;
      std::int32_t v = row[c];
      if (fault.mask.flip(slot)) v = -v;
      // Stuck-at dominates (a stuck op cannot toggle) and pins the element
      // to the full-scale ±K accumulator value.
      if (fault.mask.sa0(slot)) v = -full_scale;
      if (fault.mask.sa1(slot)) v = +full_scale;
      row[c] = v;
    }
  }
}

void FaultModel::fold_term_planes(const RealizedFault& fault, TermMasks& masks,
                                  std::int64_t out_channels,
                                  std::int64_t k) const {
  const std::int64_t slots = fault.mask.num_slots();
  for (std::int64_t ch = 0; ch < out_channels; ++ch) {
    for (std::int64_t t = 0; t < k; ++t) {
      const std::int64_t slot = (ch * k + t) % slots;
      // Two stacked flip mechanisms on one term cancel (XOR); stuck-at
      // planes accumulate (OR).
      if (fault.mask.flip(slot)) {
        masks.flip.set_bit(ch, t, masks.flip.get(ch, t) <= 0);
      }
      if (fault.mask.sa0(slot)) masks.sa0.set_bit(ch, t, true);
      if (fault.mask.sa1(slot)) masks.sa1.set_bit(ch, t, true);
    }
  }
}

namespace {

/// Scatters `marked` distinct slots around random cluster centers: each
/// site is a discrete Gaussian offset from a uniformly chosen center.
/// Slots falling off-grid or onto an occupied slot are redrawn; if the
/// clusters saturate (tiny radius, many faults) the remainder falls back
/// to uniform placement so the exact count is always honored.
std::vector<std::int64_t> place_clustered(const lim::CrossbarGeometry& grid,
                                          std::int64_t marked,
                                          int cluster_count,
                                          double cluster_radius,
                                          core::Rng& rng) {
  const std::int64_t slots = grid.num_cells();
  const int centers = cluster_count > 0
                          ? cluster_count
                          : std::max<int>(1, static_cast<int>(marked / 24));
  std::vector<std::int64_t> center_slots;
  center_slots.reserve(static_cast<std::size_t>(centers));
  for (int i = 0; i < centers; ++i) {
    center_slots.push_back(static_cast<std::int64_t>(
        rng.uniform(static_cast<std::uint64_t>(slots))));
  }

  std::vector<std::uint8_t> occupied(static_cast<std::size_t>(slots), 0);
  std::vector<std::int64_t> placed;
  placed.reserve(static_cast<std::size_t>(marked));
  std::int64_t attempts_left = 64 * marked + 64;
  while (static_cast<std::int64_t>(placed.size()) < marked &&
         attempts_left-- > 0) {
    const std::int64_t center = center_slots[static_cast<std::size_t>(
        rng.uniform(static_cast<std::uint64_t>(centers)))];
    const std::int64_t r =
        center / grid.cols +
        static_cast<std::int64_t>(std::llround(rng.normal(0.0, cluster_radius)));
    const std::int64_t c =
        center % grid.cols +
        static_cast<std::int64_t>(std::llround(rng.normal(0.0, cluster_radius)));
    if (r < 0 || r >= grid.rows || c < 0 || c >= grid.cols) continue;
    const std::int64_t slot = r * grid.cols + c;
    if (occupied[static_cast<std::size_t>(slot)] != 0) continue;
    occupied[static_cast<std::size_t>(slot)] = 1;
    placed.push_back(slot);
  }
  // Saturated clusters: fill the remainder uniformly (exact-count contract).
  while (static_cast<std::int64_t>(placed.size()) < marked) {
    const auto slot = static_cast<std::int64_t>(
        rng.uniform(static_cast<std::uint64_t>(slots)));
    if (occupied[static_cast<std::size_t>(slot)] != 0) continue;
    occupied[static_cast<std::size_t>(slot)] = 1;
    placed.push_back(slot);
  }
  return placed;
}

}  // namespace

std::vector<std::int64_t> draw_sites(const ModelParams& params,
                                     const RealizeContext& ctx,
                                     std::int64_t marked, core::Rng& rng) {
  const std::int64_t slots = ctx.grid.num_cells();
  FLIM_REQUIRE(marked >= 0 && marked <= slots,
               "cannot place " + std::to_string(marked) + " fault sites on " +
                   std::to_string(slots) + " grid slots");
  const bool clustered =
      params.has("clustered")
          ? params.get("clustered", 0.0) != 0.0
          : ctx.distribution == FaultDistribution::kClustered;
  if (clustered) {
    const int clusters = static_cast<int>(
        params.get("clusters", static_cast<double>(ctx.cluster_count)));
    const double radius = params.get("radius", ctx.cluster_radius);
    FLIM_REQUIRE(clusters >= 0, "cluster count must be >= 0");
    FLIM_REQUIRE(radius > 0.0, "cluster radius must be positive");
    return place_clustered(ctx.grid, marked, clusters, radius, rng);
  }
  std::vector<std::int64_t> sites;
  sites.reserve(static_cast<std::size_t>(marked));
  for (const auto slot : rng.sample_without_replacement(
           static_cast<std::uint64_t>(slots),
           static_cast<std::uint64_t>(marked))) {
    sites.push_back(static_cast<std::int64_t>(slot));
  }
  return sites;
}

}  // namespace flim::fault
