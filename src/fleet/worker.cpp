#include "fleet/worker.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/check.hpp"
#include "core/clock.hpp"
#include "core/journal.hpp"
#include "core/log.hpp"
#include "core/minijson.hpp"
#include "exp/store.hpp"
#include "fleet/protocol.hpp"
#include "fleet/wire.hpp"

namespace flim::fleet {

namespace {

/// Thrown (by value, file-local) when a heartbeat answers lease_lost: the
/// shard belongs to someone else now, unwind out of the runner.
struct LeaseLost {};

/// Thrown when the max_points crash hook fires: stop everything, upload
/// nothing, leave the partial file exactly as a SIGKILL would.
struct SimulatedCrash {};

/// Sends `line` and awaits the coordinator's one-line answer.
Message exchange(LineChannel& chan, const std::string& line,
                 std::int64_t timeout_ms) {
  chan.send_line(line);
  const RecvResult recv = chan.recv_line(timeout_ms);
  if (recv.status == RecvStatus::kEof) {
    throw std::runtime_error("fleet: coordinator closed the connection");
  }
  if (recv.status == RecvStatus::kTimeout) {
    throw std::runtime_error("fleet: coordinator unresponsive after " +
                             std::to_string(timeout_ms) + " ms");
  }
  try {
    return parse_message(recv.line);
  } catch (const core::JsonError& e) {
    throw std::runtime_error("fleet: malformed coordinator message: " +
                             e.what);
  }
}

[[noreturn]] void rethrow_error(const Message& msg) {
  throw std::runtime_error("fleet: coordinator rejected us: " +
                           core::json_string(msg.fields, "what"));
}

std::string partial_path(const WorkerOptions& options, int shard_index,
                         int shard_count) {
  return options.work_dir + "/shard-" + std::to_string(shard_index) + "-of-" +
         std::to_string(shard_count) + ".partial.jsonl";
}

/// Points already durably stored in a partial file (0 when absent or not
/// yet holding a complete header -- the same cases StoreOptions::resume_from
/// treats as a fresh start).
std::size_t restored_points(const std::string& path) {
  if (!std::filesystem::exists(path)) return 0;
  try {
    return exp::RunFile::load(path).points.size();
  } catch (const std::invalid_argument&) {
    return 0;
  }
}

}  // namespace

WorkerReport run_worker(const exp::ScenarioSpec& spec,
                        const exp::Workload& workload,
                        const WorkerOptions& options) {
  FLIM_REQUIRE(options.max_connect_attempts >= 1,
               "max_connect_attempts must be >= 1");
  FLIM_REQUIRE(options.io_timeout_ms >= 1, "io_timeout_ms must be >= 1");
  FLIM_REQUIRE(!options.work_dir.empty(), "work_dir must be set");
  core::validate(options.connect_backoff);

  exp::ScenarioSpec worker_spec = spec;
  if (options.jobs >= 1) worker_spec.jobs = options.jobs;
  exp::ScenarioRunner runner(worker_spec);
  const std::string fingerprint = exp::spec_fingerprint(worker_spec);

  std::size_t total_points = 1;
  for (const exp::ScenarioAxis& axis : worker_spec.axes) {
    total_points *= axis.values.size();
  }

  std::filesystem::create_directories(options.work_dir);
  core::Rng backoff_rng(options.backoff_seed);
  LineChannel chan(connect_with_retry(options.host, options.port,
                                      options.connect_backoff,
                                      options.max_connect_attempts,
                                      backoff_rng));

  const Message hello_reply = exchange(
      chan, encode_hello(options.name, fingerprint), options.io_timeout_ms);
  if (hello_reply.type == "error") rethrow_error(hello_reply);
  if (hello_reply.type != "hello_ok") {
    throw std::runtime_error("fleet: expected hello_ok, got " +
                             hello_reply.type);
  }

  WorkerReport report;
  while (true) {
    const Message reply = exchange(chan, encode_lease_request(options.name),
                                   options.io_timeout_ms);
    if (reply.type == "done") {
      report.saw_done = true;
      FLIM_LOG_INFO << "fleet: " << options.name << " done ("
                    << report.shards_completed << " shard(s), "
                    << report.points_evaluated << " point(s))";
      return report;
    }
    if (reply.type == "wait") {
      core::sleep_ms(static_cast<std::int64_t>(
          core::json_number(reply.fields, "retry_ms")));
      continue;
    }
    if (reply.type == "error") rethrow_error(reply);
    if (reply.type != "lease_grant") {
      throw std::runtime_error("fleet: expected lease_grant, got " +
                               reply.type);
    }

    const int shard =
        static_cast<int>(core::json_number(reply.fields, "shard_index"));
    const int shard_count =
        static_cast<int>(core::json_number(reply.fields, "shard_count"));
    const auto token =
        static_cast<std::uint64_t>(core::json_number(reply.fields, "token"));
    const auto granted_hb = static_cast<std::int64_t>(
        core::json_number(reply.fields, "heartbeat_ms"));
    const std::int64_t heartbeat_ms =
        options.heartbeat_ms >= 1 ? options.heartbeat_ms : granted_hb;
    ++report.leases_granted;

    const std::string path = partial_path(options, shard, shard_count);
    exp::StoreOptions store;
    store.store_path = path;
    store.resume_from = path;
    store.shard_index = shard;
    store.shard_count = shard_count;
    store.fsync_each_point = options.fsync_each_point;

    std::size_t completed = restored_points(path);
    const std::size_t owned =
        core::shard_owned_count(total_points, shard, shard_count);
    FLIM_LOG_INFO << "fleet: " << options.name << " running shard " << shard
                  << "/" << shard_count << " (" << completed << "/" << owned
                  << " restored)";

    auto beat = [&](std::size_t done_points) {
      const Message ack =
          exchange(chan, encode_heartbeat(shard, token, done_points, owned),
                   options.io_timeout_ms);
      if (ack.type == "lease_lost") throw LeaseLost{};
      if (ack.type == "error") rethrow_error(ack);
      if (ack.type != "heartbeat_ok") {
        throw std::runtime_error("fleet: expected heartbeat_ok, got " +
                                 ack.type);
      }
    };

    try {
      // One beat up front: it registers progress before the first point and
      // confirms the lease is still ours after the (possibly long) resume
      // file load.
      beat(completed);
      std::int64_t last_beat = core::steady_now_ms();
      runner.run(workload, store, [&](const exp::ScenarioPoint&) {
        ++completed;
        ++report.points_evaluated;
        if (options.max_points > 0 &&
            report.points_evaluated >= options.max_points) {
          throw SimulatedCrash{};
        }
        const std::int64_t now = core::steady_now_ms();
        if (now - last_beat >= heartbeat_ms) {
          beat(completed);
          last_beat = now;
        }
      });

      std::ifstream in(path, std::ios::binary);
      FLIM_REQUIRE(in.good(), "cannot read completed shard file: " + path);
      std::ostringstream bytes;
      bytes << in.rdbuf();
      const Message ack = exchange(
          chan, encode_upload(shard, token, bytes.str()),
          options.io_timeout_ms);
      if (ack.type == "error") rethrow_error(ack);
      if (ack.type != "upload_ok") {
        throw std::runtime_error("fleet: expected upload_ok, got " + ack.type);
      }
      ++report.shards_completed;
    } catch (const LeaseLost&) {
      // The lease expired and someone else owns the shard now. The partial
      // file stays behind for the new lessee; ask for different work.
      ++report.leases_lost;
      FLIM_LOG_WARN << "fleet: " << options.name << " lost the lease on "
                    << "shard " << shard << "; abandoning";
    } catch (const SimulatedCrash&) {
      report.aborted = true;
      FLIM_LOG_WARN << "fleet: " << options.name
                    << " simulated crash after " << report.points_evaluated
                    << " point(s)";
      return report;
    }
  }
}

WorkerReport run_worker(const exp::ScenarioSpec& spec,
                        const WorkerOptions& options) {
  exp::ScenarioSpec worker_spec = spec;
  if (options.jobs >= 1) worker_spec.jobs = options.jobs;
  const exp::Workload workload = exp::load_workload(worker_spec.workload);
  return run_worker(spec, workload, options);
}

}  // namespace flim::fleet
