#include "reliability/ecc/registry.hpp"

#include <algorithm>
#include <utility>

#include "core/check.hpp"

namespace flim::reliability::ecc {

// Family constructors live in codecs.cpp / bch.cpp.
std::unique_ptr<CodecFamily> make_hamming_family();
std::unique_ptr<CodecFamily> make_hsiao_family();
std::unique_ptr<CodecFamily> make_secded_family();
std::unique_ptr<CodecFamily> make_bch_family();

CodecRegistry::CodecRegistry() {
  add(make_hamming_family());
  add(make_hsiao_family());
  add(make_secded_family());
  add(make_bch_family());
}

CodecRegistry& CodecRegistry::instance() {
  static CodecRegistry registry;
  return registry;
}

void CodecRegistry::add(std::unique_ptr<CodecFamily> family) {
  FLIM_REQUIRE(family != nullptr, "cannot register a null codec family");
  const std::string& name = family->info().name;
  FLIM_REQUIRE(!name.empty(), "codec family name must be non-empty");
  const core::MutexLock lock(mutex_);
  const auto at = std::lower_bound(
      slots_.begin(), slots_.end(), name,
      [](const Slot& s, const std::string& n) { return s.name < n; });
  FLIM_REQUIRE(at == slots_.end() || at->name != name,
               "ecc codec '" + name + "' is already registered");
  slots_.insert(at, Slot{name, std::move(family)});
}

const CodecFamily* CodecRegistry::find_locked(const std::string& name) const {
  const auto at = std::lower_bound(
      slots_.begin(), slots_.end(), name,
      [](const Slot& s, const std::string& n) { return s.name < n; });
  if (at == slots_.end() || at->name != name) return nullptr;
  return at->family.get();
}

const CodecFamily* CodecRegistry::find(const std::string& name) const {
  const core::MutexLock lock(mutex_);
  return find_locked(name);
}

const CodecFamily& CodecRegistry::get(const std::string& name) const {
  const core::MutexLock lock(mutex_);
  const CodecFamily* family = find_locked(name);
  if (family == nullptr) {
    std::string known;
    for (const Slot& s : slots_) {
      if (!known.empty()) known += ", ";
      known += s.name;
    }
    FLIM_REQUIRE(false, "unknown ecc codec: '" + name +
                            "' (registered codecs: " + known + ")");
  }
  return *family;
}

std::vector<const CodecFamily*> CodecRegistry::families() const {
  const core::MutexLock lock(mutex_);
  std::vector<const CodecFamily*> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) out.push_back(s.family.get());
  return out;
}

const Codec& CodecRegistry::configure(const std::string& expr) const {
  // Parse outside the lock (parsing takes the lock for family lookup).
  const ParsedCodec parsed = parse_codec_expr(expr);
  const std::string key = parsed.canonical();

  const core::MutexLock lock(mutex_);
  const auto at = std::lower_bound(
      configured_.begin(), configured_.end(), key,
      [](const Configured& c, const std::string& k) {
        return c.canonical < k;
      });
  if (at != configured_.end() && at->canonical == key) return *at->codec;
  std::unique_ptr<Codec> codec = parsed.family->make(parsed.params);
  FLIM_REQUIRE(codec != nullptr, "codec family '" +
                                     parsed.family->info().name +
                                     "' produced no instance");
  const Codec& ref = *codec;
  configured_.insert(at, Configured{key, std::move(codec)});
  return ref;
}

std::string ParsedCodec::canonical() const {
  return canonical_codec_text(family->info().name, params);
}

ParsedCodec parse_codec_expr(const std::string& expr) {
  const CodecRegistry& registry = CodecRegistry::instance();
  fault::TermScanner scan(expr, "codec", "codec");
  if (scan.done()) {
    FLIM_REQUIRE(false, "empty codec expression (expected e.g. "
                        "\"hamming(d=64,k=8)\")");
  }
  const std::size_t name_pos = scan.pos();
  const std::string name = scan.name();
  const CodecFamily* family = registry.find(name);
  if (family == nullptr) {
    std::string known;
    for (const CodecFamily* f : registry.families()) {
      if (!known.empty()) known += ", ";
      known += f->info().name;
    }
    scan.fail(name_pos, "unknown ecc codec '" + name +
                            "' (registered codecs: " + known + ")");
  }

  std::vector<std::pair<std::string, double>> params = scan.params();
  if (!scan.done()) {
    scan.fail(scan.pos(), "trailing text after the codec term (a codeword "
                          "is protected by exactly one code; there is no "
                          "'+' composition)");
  }

  ParsedCodec parsed;
  parsed.family = family;
  parsed.params = fault::make_params(std::move(params));
  family->validate(parsed.params);
  return parsed;
}

std::string canonical_codec_expr(const std::string& expr) {
  return parse_codec_expr(expr).canonical();
}

}  // namespace flim::reliability::ecc
