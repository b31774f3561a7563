#include "fleet/protocol.hpp"

#include <sstream>

#include "core/report.hpp"

namespace flim::fleet {

using core::json_quote;

Message parse_message(const std::string& line) {
  Message msg;
  msg.fields = core::parse_json_object_line(line);
  msg.type = core::json_string(msg.fields, "type");
  return msg;
}

std::string encode_hello(const std::string& worker,
                         const std::string& fingerprint) {
  std::ostringstream os;
  os << "{\"type\": \"hello\", \"protocol\": " << kProtocolVersion
     << ", \"worker\": " << json_quote(worker)
     << ", \"fingerprint\": " << json_quote(fingerprint) << "}";
  return os.str();
}

std::string encode_lease_request(const std::string& worker) {
  return "{\"type\": \"lease_request\", \"worker\": " + json_quote(worker) +
         "}";
}

std::string encode_heartbeat(int shard_index, std::uint64_t token,
                             std::size_t completed, std::size_t owned) {
  std::ostringstream os;
  os << "{\"type\": \"heartbeat\", \"shard_index\": " << shard_index
     << ", \"token\": " << token << ", \"completed\": " << completed
     << ", \"owned\": " << owned << "}";
  return os.str();
}

std::string encode_upload(int shard_index, std::uint64_t token,
                          const std::string& file_bytes) {
  std::ostringstream os;
  os << "{\"type\": \"upload\", \"shard_index\": " << shard_index
     << ", \"token\": " << token << ", \"bytes\": " << json_quote(file_bytes)
     << "}";
  return os.str();
}

std::string encode_hello_ok(int shard_count) {
  std::ostringstream os;
  os << "{\"type\": \"hello_ok\", \"protocol\": " << kProtocolVersion
     << ", \"shard_count\": " << shard_count << "}";
  return os.str();
}

std::string encode_lease_grant(int shard_index, int shard_count,
                               std::uint64_t token,
                               std::int64_t heartbeat_ms) {
  std::ostringstream os;
  os << "{\"type\": \"lease_grant\", \"shard_index\": " << shard_index
     << ", \"shard_count\": " << shard_count << ", \"token\": " << token
     << ", \"heartbeat_ms\": " << heartbeat_ms << "}";
  return os.str();
}

std::string encode_wait(std::int64_t retry_ms) {
  std::ostringstream os;
  os << "{\"type\": \"wait\", \"retry_ms\": " << retry_ms << "}";
  return os.str();
}

std::string encode_done() { return "{\"type\": \"done\"}"; }

std::string encode_heartbeat_ok() { return "{\"type\": \"heartbeat_ok\"}"; }

std::string encode_upload_ok() { return "{\"type\": \"upload_ok\"}"; }

std::string encode_lease_lost() { return "{\"type\": \"lease_lost\"}"; }

std::string encode_error(const std::string& what) {
  return "{\"type\": \"error\", \"what\": " + json_quote(what) + "}";
}

std::string encode_eval_request(const EvalRequest& req) {
  std::ostringstream os;
  os << "{\"type\": \"eval_request\", \"protocol\": " << kProtocolVersion
     << ", \"model\": " << json_quote(req.model)
     << ", \"backend\": " << json_quote(req.backend)
     << ", \"tmr_replicas\": " << req.tmr_replicas
     << ", \"fault\": " << json_quote(req.fault_expr)
     << ", \"granularity\": " << json_quote(req.granularity)
     << ", \"grid\": " << json_quote(req.grid)
     << ", \"reps\": " << req.repetitions << ", \"seed\": " << req.master_seed
     << ", \"deadline_ms\": " << req.deadline_ms << "}";
  return os.str();
}

EvalRequest decode_eval_request(const Message& msg) {
  EvalRequest req;
  req.model = core::json_string(msg.fields, "model");
  req.backend = core::json_string(msg.fields, "backend");
  req.tmr_replicas =
      static_cast<int>(core::json_number(msg.fields, "tmr_replicas"));
  req.fault_expr = core::json_string(msg.fields, "fault");
  req.granularity = core::json_string(msg.fields, "granularity");
  req.grid = core::json_string(msg.fields, "grid");
  req.repetitions = static_cast<int>(core::json_number(msg.fields, "reps"));
  req.master_seed =
      static_cast<std::uint64_t>(core::json_number(msg.fields, "seed"));
  req.deadline_ms =
      static_cast<std::int64_t>(core::json_number(msg.fields, "deadline_ms"));
  return req;
}

std::string encode_eval_result(const std::string& payload) {
  return "{\"type\": \"eval_result\", \"payload\": " + json_quote(payload) +
         "}";
}

std::string decode_eval_result(const Message& msg) {
  return core::json_string(msg.fields, "payload");
}

std::string encode_busy(std::int64_t retry_ms) {
  std::ostringstream os;
  os << "{\"type\": \"busy\", \"retry_ms\": " << retry_ms << "}";
  return os.str();
}

std::string encode_stats_request() { return "{\"type\": \"stats\"}"; }

std::string encode_stats_ok(const ServeStats& stats) {
  std::ostringstream os;
  os << "{\"type\": \"stats_ok\", \"cache_hits\": " << stats.cache_hits
     << ", \"cache_misses\": " << stats.cache_misses
     << ", \"cache_evictions\": " << stats.cache_evictions
     << ", \"cache_entries\": " << stats.cache_entries
     << ", \"requests_completed\": " << stats.requests_completed
     << ", \"requests_expired\": " << stats.requests_expired
     << ", \"requests_rejected\": " << stats.requests_rejected
     << ", \"batches\": " << stats.batches
     << ", \"coalesced\": " << stats.coalesced << "}";
  return os.str();
}

ServeStats decode_stats_ok(const Message& msg) {
  const auto u64 = [&](const char* key) {
    return static_cast<std::uint64_t>(core::json_number(msg.fields, key));
  };
  ServeStats stats;
  stats.cache_hits = u64("cache_hits");
  stats.cache_misses = u64("cache_misses");
  stats.cache_evictions = u64("cache_evictions");
  stats.cache_entries = u64("cache_entries");
  stats.requests_completed = u64("requests_completed");
  stats.requests_expired = u64("requests_expired");
  stats.requests_rejected = u64("requests_rejected");
  stats.batches = u64("batches");
  stats.coalesced = u64("coalesced");
  return stats;
}

}  // namespace flim::fleet
