#include "exp/store.hpp"

#include <map>
#include <set>
#include <sstream>

#include "core/check.hpp"
#include "core/minijson.hpp"
#include "core/report.hpp"
#include "core/sysinfo.hpp"
#include "fault/fault_registry.hpp"
#include "lim/logic_family.hpp"
#include "reliability/ecc/registry.hpp"

namespace flim::exp {

namespace {

// ---------------------------------------------------------------------------
// Canonical spec serialization. Line-based key=value text, one field per
// line in a fixed order, doubles at full round-trip precision -- the exact
// bytes are what the fingerprint hashes, so the order and formatting here
// are part of the run-file format and must stay stable (bump
// kRunFormatVersion and the leading tag when they change).

void put_s(std::ostringstream& os, const char* key, const std::string& v) {
  os << key << '=' << core::json_escape(v) << '\n';
}

void put_i(std::ostringstream& os, const char* key, long long v) {
  os << key << '=' << v << '\n';
}

void put_u(std::ostringstream& os, const char* key, std::uint64_t v) {
  os << key << '=' << v << '\n';
}

void put_d(std::ostringstream& os, const char* key, double v) {
  os << key << '=' << core::format_double_roundtrip(v) << '\n';
}

// ---------------------------------------------------------------------------
// JSON for the flat run-file objects comes from core/minijson (numbers,
// strings, and arrays of either), every integer through a checked
// accessor. Parse failures throw core::JsonError, which the journal scan
// maps to "corrupt tail" for point lines and to std::invalid_argument for
// the header; semantic violations use FLIM_REQUIRE directly.

using core::JsonError;
using core::JsonValue;
using core::json_array;
using core::json_int;
using core::json_number;
using core::json_quote;
using core::json_string;
using core::json_u64_string;

constexpr const char* kKind = "run file";

// ---------------------------------------------------------------------------
// Line formatting.

std::string header_line(const RunHeader& h) {
  std::ostringstream os;
  os << kRunHeaderTag << ": " << h.format
     << ", \"name\": " << json_quote(h.name)
     << ", \"backend\": " << json_quote(h.backend)
     << ", \"fingerprint\": " << json_quote(h.fingerprint)
     << ", \"library_version\": " << json_quote(h.library_version)
     // As a string: JSON numbers decay to binary64 on parse, which cannot
     // hold every 64-bit seed exactly.
     << ", \"master_seed\": \"" << h.master_seed << '"'
     << ", \"repetitions\": " << h.repetitions
     << ", \"total_points\": " << h.total_points
     << ", \"shard_index\": " << h.shard_index
     << ", \"shard_count\": " << h.shard_count
     << ", \"clean_accuracy\": "
     << core::format_double_roundtrip(h.clean_accuracy)
     << ", \"axis_names\": [";
  for (std::size_t i = 0; i < h.axis_names.size(); ++i) {
    if (i) os << ", ";
    os << json_quote(h.axis_names[i]);
  }
  os << "], \"axis_sizes\": [";
  for (std::size_t i = 0; i < h.axis_sizes.size(); ++i) {
    if (i) os << ", ";
    os << h.axis_sizes[i];
  }
  os << "]}";
  return os.str();
}

std::string point_line(std::size_t flat_index, const ScenarioPoint& p) {
  std::ostringstream os;
  os << "{\"point\": " << flat_index << ", \"values\": [";
  for (std::size_t i = 0; i < p.values.size(); ++i) {
    if (i) os << ", ";
    os << core::format_double_roundtrip(p.values[i]);
  }
  os << "], \"labels\": [";
  for (std::size_t i = 0; i < p.labels.size(); ++i) {
    if (i) os << ", ";
    os << json_quote(p.labels[i]);
  }
  os << "], \"mean\": " << core::format_double_roundtrip(p.metric.mean)
     << ", \"stddev\": " << core::format_double_roundtrip(p.metric.stddev)
     << ", \"min\": " << core::format_double_roundtrip(p.metric.min)
     << ", \"max\": " << core::format_double_roundtrip(p.metric.max)
     << ", \"count\": " << p.metric.count << "}";
  return os.str();
}

RunHeader parse_header(const std::string& line) {
  const auto obj = core::parse_json_object_line(line);
  RunHeader h;
  h.format = json_int<int>(obj, "flim_run_format");
  h.name = json_string(obj, "name");
  h.backend = json_string(obj, "backend");
  h.fingerprint = json_string(obj, "fingerprint");
  h.library_version = json_string(obj, "library_version");
  h.master_seed = json_u64_string(obj, "master_seed");
  h.repetitions = json_int<int>(obj, "repetitions");
  h.total_points = json_int<std::uint64_t>(obj, "total_points");
  h.shard_index = json_int<int>(obj, "shard_index");
  h.shard_count = json_int<int>(obj, "shard_count");
  h.clean_accuracy = json_number(obj, "clean_accuracy");
  for (const JsonValue& v : json_array(obj, "axis_names")) {
    if (v.kind != JsonValue::Kind::kString) {
      throw JsonError{"axis_names entry is not a string"};
    }
    h.axis_names.push_back(v.text);
  }
  for (const JsonValue& v : json_array(obj, "axis_sizes")) {
    h.axis_sizes.push_back(json_int<std::uint64_t>(v, "axis_sizes entry"));
  }
  return h;
}

StoredPoint parse_point(const std::string& line) {
  const auto obj = core::parse_json_object_line(line);
  StoredPoint sp;
  sp.flat_index = json_int<std::uint64_t>(obj, "point");
  for (const JsonValue& v : json_array(obj, "values")) {
    if (v.kind != JsonValue::Kind::kNumber) {
      throw JsonError{"values entry is not a number"};
    }
    sp.point.values.push_back(v.number);
  }
  for (const JsonValue& v : json_array(obj, "labels")) {
    if (v.kind != JsonValue::Kind::kString) {
      throw JsonError{"labels entry is not a string"};
    }
    sp.point.labels.push_back(v.text);
  }
  sp.point.metric.mean = json_number(obj, "mean");
  sp.point.metric.stddev = json_number(obj, "stddev");
  sp.point.metric.min = json_number(obj, "min");
  sp.point.metric.max = json_number(obj, "max");
  sp.point.metric.count = json_int<std::uint64_t>(obj, "count");
  return sp;
}

}  // namespace

std::string canonical_spec(const ScenarioSpec& spec) {
  std::ostringstream os;
  os << "flim-scenario-v1\n";
  const WorkloadSpec& w = spec.workload;
  put_s(os, "workload.model", w.model);
  put_i(os, "workload.eval_images", w.eval_images);
  put_i(os, "workload.epochs", w.epochs);
  put_i(os, "workload.train_samples", w.train_samples);
  put_i(os, "workload.measure_clean_accuracy", w.measure_clean_accuracy);

  put_s(os, "engine.backend", to_string(spec.engine.backend));
  if (spec.engine.backend == Backend::kTmr) {
    put_i(os, "engine.tmr_replicas", spec.engine.tmr_replicas);
  }
  if (spec.engine.backend == Backend::kDevice) {
    const xfault::DeviceEngineConfig& d = spec.engine.device;
    put_s(os, "device.family", lim::to_string(d.family));
    put_i(os, "device.rows", d.crossbar.rows);
    put_i(os, "device.cols", d.crossbar.cols);
    put_d(os, "device.v_prog", d.crossbar.v_prog);
    put_d(os, "device.v_apply", d.crossbar.v_apply);
    put_d(os, "device.v_cond", d.crossbar.v_cond);
    put_d(os, "device.v_set", d.crossbar.v_set);
    put_d(os, "device.r_load", d.crossbar.r_load);
    put_d(os, "device.v_read", d.crossbar.v_read);
    const lim::MemristorParams& m = d.crossbar.device;
    put_d(os, "device.cell.r_on", m.r_on);
    put_d(os, "device.cell.r_off", m.r_off);
    put_d(os, "device.cell.v_on", m.v_on);
    put_d(os, "device.cell.v_off", m.v_off);
    put_d(os, "device.cell.k_on", m.k_on);
    put_d(os, "device.cell.k_off", m.k_off);
    put_d(os, "device.cell.dt", m.dt);
    put_i(os, "device.cell.steps_per_pulse", m.steps_per_pulse);
    put_d(os, "device.cell.read_threshold", m.read_threshold);
  }

  put_s(os, "fault.kind", fault::to_string(spec.fault.kind));
  put_d(os, "fault.injection_rate", spec.fault.injection_rate);
  put_i(os, "fault.faulty_rows", spec.fault.faulty_rows);
  put_i(os, "fault.faulty_cols", spec.fault.faulty_cols);
  put_i(os, "fault.dynamic_period", spec.fault.dynamic_period);
  put_d(os, "fault.stuck_at_one_fraction", spec.fault.stuck_at_one_fraction);
  put_s(os, "fault.granularity", fault::to_string(spec.fault.granularity));
  put_s(os, "fault.distribution", fault::to_string(spec.fault.distribution));
  put_i(os, "fault.cluster_count", spec.fault.cluster_count);
  put_d(os, "fault.cluster_radius", spec.fault.cluster_radius);
  // Emitted only when set, in canonical form (model names + sorted params,
  // round-trip numbers): legacy single-kind specs keep their pre-expression
  // fingerprints, so their old run files still resume, and two spellings of
  // one stack fingerprint identically.
  if (!spec.fault_expr.empty()) {
    put_s(os, "fault.expr", fault::canonical_fault_expr(spec.fault_expr));
  }
  // Same only-when-set rule as fault.expr: a spec without an ECC codec
  // fingerprints exactly as it did before the codec subsystem existed, so
  // every legacy run file stays resumable. The word organization rides
  // along with the codec because it changes the residual, not on its own.
  if (!spec.ecc_expr.empty()) {
    put_s(os, "ecc.expr", reliability::ecc::canonical_codec_expr(spec.ecc_expr));
    put_i(os, "ecc.word_bits", spec.ecc_word_bits);
    put_i(os, "ecc.interleave", spec.ecc_interleave);
  }

  put_i(os, "grid.rows", spec.grid.rows);
  put_i(os, "grid.cols", spec.grid.cols);
  for (const std::string& name : spec.layer_filter) {
    put_s(os, "layer_filter", name);
  }

  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    const ScenarioAxis& axis = spec.axes[a];
    const std::string prefix = "axis." + std::to_string(a);
    put_i(os, (prefix + ".kind").c_str(),
          static_cast<long long>(static_cast<std::uint8_t>(axis.kind)));
    put_s(os, (prefix + ".name").c_str(), axis.name);
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      const AxisValue& v = axis.values[i];
      const std::string vkey = prefix + ".value." + std::to_string(i);
      put_d(os, (vkey + ".number").c_str(), v.number);
      put_s(os, (vkey + ".text").c_str(), v.text);
      put_s(os, (vkey + ".label").c_str(), v.label);
    }
  }

  put_i(os, "repetitions", spec.repetitions);
  put_u(os, "master_seed", spec.master_seed);
  return os.str();
}

std::string spec_fingerprint(const ScenarioSpec& spec) {
  return core::hash_hex(
      core::fnv1a64(core::code_fingerprint() + "\n" + canonical_spec(spec)));
}

RunHeader make_run_header(const ScenarioSpec& spec, double clean_accuracy,
                          int shard_index, int shard_count) {
  core::check_shard(shard_index, shard_count);
  RunHeader h;
  h.name = spec.name;
  h.backend = to_string(spec.engine.backend);
  h.fingerprint = spec_fingerprint(spec);
  h.library_version = core::code_fingerprint();
  h.master_seed = spec.master_seed;
  h.repetitions = spec.repetitions;
  h.total_points = 1;
  for (const ScenarioAxis& axis : spec.axes) {
    h.total_points *= axis.values.size();
    h.axis_names.push_back(axis.name);
    h.axis_sizes.push_back(axis.values.size());
  }
  h.shard_index = shard_index;
  h.shard_count = shard_count;
  h.clean_accuracy = clean_accuracy;
  return h;
}

RunFile RunFile::load(const std::string& path) {
  RunFile run;
  std::set<std::size_t> seen;
  const core::JournalScan scan = core::scan_journal(
      path, kKind,
      [&](const std::string& line) {
        run.header = parse_header(line);
        FLIM_REQUIRE(run.header.format == kRunFormatVersion,
                     "unsupported run file format version " +
                         std::to_string(run.header.format) + " in " + path);
        core::check_shard(run.header.shard_index, run.header.shard_count,
                          path);
      },
      [&](const std::string& line) {
        StoredPoint sp = parse_point(line);
        FLIM_REQUIRE(sp.flat_index < run.header.total_points,
                     "run file " + path + " has a point outside its grid");
        FLIM_REQUIRE(sp.point.labels.size() == run.header.axis_names.size(),
                     "run file " + path + " has a point of the wrong rank");
        if (seen.insert(sp.flat_index).second) {
          run.points.push_back(std::move(sp));
        }
      });
  run.valid_prefix_bytes = scan.valid_prefix_bytes;
  run.truncated_tail = scan.truncated_tail;
  return run;
}

std::size_t RunFile::owned_points() const {
  return core::shard_owned_count(header.total_points, header.shard_index,
                                 header.shard_count);
}

bool RunFile::complete() const { return points.size() == owned_points(); }

RunStoreWriter::RunStoreWriter(core::JournalWriter journal)
    : journal_(std::move(journal)) {}

RunStoreWriter::RunStoreWriter(const std::string& path,
                               const RunHeader& header, bool fsync_each_point)
    : journal_(path, kKind, header_line(header), fsync_each_point) {}

RunStoreWriter RunStoreWriter::resume(const std::string& path,
                                      std::size_t valid_prefix_bytes,
                                      bool fsync_each_point) {
  return RunStoreWriter(core::JournalWriter::resume(
      path, kKind, valid_prefix_bytes, fsync_each_point));
}

void RunStoreWriter::append(std::size_t flat_index,
                            const ScenarioPoint& point) {
  journal_.append(point_line(flat_index, point));
}

ScenarioResult merge_run_files(const std::vector<std::string>& paths) {
  FLIM_REQUIRE(!paths.empty(), "merge needs at least one run file");
  std::vector<RunFile> runs;
  runs.reserve(paths.size());
  for (const std::string& path : paths) {
    runs.push_back(RunFile::load(path));
  }

  const RunHeader& first = runs.front().header;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const RunHeader& h = runs[i].header;
    FLIM_REQUIRE(h.fingerprint == first.fingerprint,
                 "spec fingerprint mismatch between run files " + paths[0] +
                     " and " + paths[i]);
    FLIM_REQUIRE(h.total_points == first.total_points &&
                     h.axis_names == first.axis_names &&
                     h.axis_sizes == first.axis_sizes,
                 "grid mismatch between run files " + paths[0] + " and " +
                     paths[i]);
    FLIM_REQUIRE(h.clean_accuracy == first.clean_accuracy,
                 "clean-accuracy mismatch between run files " + paths[0] +
                     " and " + paths[i]);
  }

  std::map<std::size_t, ScenarioPoint> merged;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (StoredPoint& sp : runs[i].points) {
      const auto inserted = merged.emplace(sp.flat_index,
                                           std::move(sp.point));
      FLIM_REQUIRE(inserted.second,
                   "overlapping grid point " + std::to_string(sp.flat_index) +
                       " in " + paths[i] +
                       " (shard run files must be disjoint)");
    }
  }
  std::string torn;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].truncated_tail) {
      torn += "; " + paths[i] + " stops at a torn or malformed line";
    }
  }
  FLIM_REQUIRE(
      merged.size() == first.total_points,
      "merged run files cover " + std::to_string(merged.size()) + " of " +
          std::to_string(first.total_points) +
          " grid points (missing shards?)" + torn);

  ScenarioResult result;
  result.name = first.name;
  result.backend = first.backend;
  result.axis_names = first.axis_names;
  result.axis_sizes = first.axis_sizes;
  result.clean_accuracy = first.clean_accuracy;
  result.total_points = first.total_points;
  result.points.reserve(merged.size());
  result.flat_indices.reserve(merged.size());
  for (auto& [flat, point] : merged) {
    result.flat_indices.push_back(flat);
    result.points.push_back(std::move(point));
  }
  return result;
}

}  // namespace flim::exp
