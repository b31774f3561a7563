#include "fault/fault_vector_file.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/check.hpp"
#include "core/report.hpp"
#include "fault/fault_registry.hpp"

namespace flim::fault {

namespace {

constexpr std::uint64_t kMagic = 0x314356464d494c46ull;  // "FLIMFVC1"
// Version 1: one single-kind fault per entry (read-only). Version 2 appends
// the realized fault-model components.
constexpr std::uint32_t kVersionSingleKind = 1;
constexpr std::uint32_t kVersionComponents = 2;
// Slots per mask accepted on load.
constexpr std::int64_t kMaxMaskSlots = (std::int64_t{1} << 32) - 1;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    require(1);
    return bytes_[pos_++];
  }
  std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{bytes_[pos_++]} << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{bytes_[pos_++]} << (8 * i);
    return v;
  }
  std::string str(std::size_t len) {
    require(len);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }
  std::vector<std::uint8_t> raw(std::size_t len) {
    require(len);
    std::vector<std::uint8_t> v(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return v;
  }
  /// Throws unless `n` more bytes remain.
  void require(std::size_t n) const {
    FLIM_REQUIRE(n <= bytes_.size() - pos_,
                 "fault vector file truncated or corrupt");
  }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

void put_packed_plane(std::vector<std::uint8_t>& out,
                      const std::vector<std::uint8_t>& plane) {
  std::uint8_t acc = 0;
  int bits = 0;
  for (const auto v : plane) {
    if (v) acc |= static_cast<std::uint8_t>(1u << bits);
    if (++bits == 8) {
      out.push_back(acc);
      acc = 0;
      bits = 0;
    }
  }
  if (bits > 0) out.push_back(acc);
}

std::vector<std::uint8_t> read_packed_plane(Reader& r, std::size_t n) {
  const std::size_t bytes = (n + 7) / 8;
  const auto packed = r.raw(bytes);
  std::vector<std::uint8_t> plane(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    plane[i] = (packed[i / 8] >> (i % 8)) & 1u;
  }
  return plane;
}

std::uint64_t bit_cast_u64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bit_cast_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

void put_mask(std::vector<std::uint8_t>& out, const FaultMask& mask) {
  put_u64(out, static_cast<std::uint64_t>(mask.rows()));
  put_u64(out, static_cast<std::uint64_t>(mask.cols()));
  put_packed_plane(out, mask.flip_plane());
  put_packed_plane(out, mask.sa0_plane());
  put_packed_plane(out, mask.sa1_plane());
}

FaultMask read_mask(Reader& r) {
  const auto rows = static_cast<std::int64_t>(r.u64());
  const auto cols = static_cast<std::int64_t>(r.u64());
  FLIM_REQUIRE(rows > 0 && cols > 0 && rows <= kMaxMaskSlots / cols,
               "implausible mask dimensions in fault vector file");
  const auto n = static_cast<std::size_t>(rows * cols);
  r.require(3 * ((n + 7) / 8));  // all three planes, before allocating
  FaultMask mask(rows, cols);
  mask.mutable_flip_plane() = read_packed_plane(r, n);
  mask.mutable_sa0_plane() = read_packed_plane(r, n);
  mask.mutable_sa1_plane() = read_packed_plane(r, n);
  return mask;
}

}  // namespace

std::string FaultVectorEntry::describe() const {
  std::string out;
  for (const RealizedFault& c : components) {
    if (!out.empty()) out += "+";
    out += c.model;
    if (!c.params.empty()) {
      out += "(";
      for (std::size_t i = 0; i < c.params.size(); ++i) {
        if (i) out += ",";
        out += c.params[i].first + "=" +
               core::format_double_shortest(c.params[i].second);
      }
      out += ")";
    }
  }
  return out;
}

FaultMask FaultVectorEntry::combined_mask() const {
  if (components.empty()) return FaultMask();
  FaultMask combined = components.front().mask;
  for (std::size_t i = 1; i < components.size(); ++i) {
    const FaultMask& mask = components[i].mask;
    FLIM_REQUIRE(mask.rows() == combined.rows() &&
                     mask.cols() == combined.cols(),
                 "fault components of one entry must share a mask grid");
    for (std::int64_t slot = 0; slot < mask.num_slots(); ++slot) {
      if (mask.flip(slot)) combined.set_flip(slot, true);
      if (mask.sa0(slot)) combined.set_sa0(slot, true);
      if (mask.sa1(slot)) combined.set_sa1(slot, true);
    }
  }
  return combined;
}

const FaultVectorEntry* FaultVectorFile::find(
    const std::string& layer_name) const {
  for (const auto& e : entries_) {
    if (e.layer_name == layer_name) return &e;
  }
  return nullptr;
}

std::vector<std::uint8_t> FaultVectorFile::serialize() const {
  std::vector<std::uint8_t> out;
  put_u64(out, kMagic);
  put_u32(out, kVersionComponents);
  put_u32(out, static_cast<std::uint32_t>(entries_.size()));
  const FaultMask stand_in(1, 1);
  for (const auto& e : entries_) {
    put_u32(out, static_cast<std::uint32_t>(e.layer_name.size()));
    out.insert(out.end(), e.layer_name.begin(), e.layer_name.end());
    out.push_back(static_cast<std::uint8_t>(FaultKind::kBitFlip));
    out.push_back(static_cast<std::uint8_t>(e.granularity));
    put_u32(out, 0);  // dynamic period
    put_mask(out, stand_in);
    put_u32(out, static_cast<std::uint32_t>(e.components.size()));
    for (const RealizedFault& c : e.components) {
      put_u32(out, static_cast<std::uint32_t>(c.model.size()));
      out.insert(out.end(), c.model.begin(), c.model.end());
      put_u32(out, static_cast<std::uint32_t>(c.params.size()));
      for (const auto& [key, value] : c.params) {
        put_u32(out, static_cast<std::uint32_t>(key.size()));
        out.insert(out.end(), key.begin(), key.end());
        put_u64(out, bit_cast_u64(value));
      }
      put_u64(out, static_cast<std::uint64_t>(c.first_active));
      put_mask(out, c.mask);
      put_u64(out, static_cast<std::uint64_t>(c.site_values.size()));
      for (const std::int64_t v : c.site_values) {
        put_u64(out, static_cast<std::uint64_t>(v));
      }
    }
  }
  return out;
}

FaultVectorFile FaultVectorFile::deserialize(
    const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  FLIM_REQUIRE(r.u64() == kMagic, "not a FLIM fault vector file");
  const std::uint32_t version = r.u32();
  FLIM_REQUIRE(version == kVersionSingleKind || version == kVersionComponents,
               "unsupported fault vector file version");
  const std::uint32_t count = r.u32();
  FaultVectorFile file;
  for (std::uint32_t i = 0; i < count; ++i) {
    FaultVectorEntry e;
    const std::uint32_t name_len = r.u32();
    e.layer_name = r.str(name_len);
    const std::uint8_t kind = r.u8();
    FLIM_REQUIRE(kind <= static_cast<std::uint8_t>(FaultKind::kDynamic),
                 "unknown fault kind in fault vector file");
    const std::uint8_t granularity = r.u8();
    FLIM_REQUIRE(granularity <= static_cast<std::uint8_t>(
                                    FaultGranularity::kProductTerm),
                 "unknown fault granularity in fault vector file");
    e.granularity = static_cast<FaultGranularity>(granularity);
    const std::uint32_t period = r.u32();
    FaultMask mask = read_mask(r);
    if (version == kVersionSingleKind) {
      // The single-kind triple is one component of the matching registered
      // model; only dynamic carries a parameter, its period.
      RealizedFault c;
      c.model = model_name_for(static_cast<FaultKind>(kind));
      if (static_cast<FaultKind>(kind) == FaultKind::kDynamic) {
        c.params = {{"period", static_cast<double>(period)}};
      }
      c.mask = std::move(mask);
      e.components.push_back(std::move(c));
    } else {
      // Counts from the file reserve nothing: each item is bounds-checked
      // as it is read.
      const std::uint32_t component_count = r.u32();
      for (std::uint32_t c = 0; c < component_count; ++c) {
        RealizedFault rf;
        rf.model = r.str(r.u32());
        const std::uint32_t param_count = r.u32();
        for (std::uint32_t p = 0; p < param_count; ++p) {
          std::string key = r.str(r.u32());
          rf.params.emplace_back(std::move(key), bit_cast_double(r.u64()));
        }
        rf.first_active = static_cast<std::int64_t>(r.u64());
        rf.mask = read_mask(r);
        const std::uint64_t n_values = r.u64();
        // All-or-nothing: models that carry per-site state (drift) always
        // serialize one value per slot and index the vector by slot, so a
        // partial vector would read out of bounds at apply time.
        FLIM_REQUIRE(n_values == 0 ||
                         n_values == static_cast<std::uint64_t>(
                                         rf.mask.num_slots()),
                     "implausible site-value count in fault vector file");
        r.require(static_cast<std::size_t>(n_values) * 8);
        rf.site_values.reserve(static_cast<std::size_t>(n_values));
        for (std::uint64_t v = 0; v < n_values; ++v) {
          rf.site_values.push_back(static_cast<std::int64_t>(r.u64()));
        }
        e.components.push_back(std::move(rf));
      }
    }
    file.add(std::move(e));
  }
  return file;
}

void FaultVectorFile::save(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  FLIM_REQUIRE(out.good(), "cannot open fault vector file for writing: " + path);
  const auto bytes = serialize();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

FaultVectorFile FaultVectorFile::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FLIM_REQUIRE(in.good(), "cannot open fault vector file: " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return deserialize(bytes);
}

}  // namespace flim::fault
