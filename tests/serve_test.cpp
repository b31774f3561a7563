// Tests for the serving path: eval wire-message round-trips, cache keying
// and the warm-entry pool (hit/miss/LRU counters, spelling-insensitive
// sharing), batching and backpressure semantics, and the end-to-end server
// contract -- headlined by the claim that a served eval_result payload is
// byte-identical to a direct in-process evaluation of the same request,
// and that a client killed mid-request does not take the server down.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "core/minijson.hpp"
#include "core/thread_pool.hpp"
#include "data/synthetic_mnist.hpp"
#include "exp/eval_point.hpp"
#include "exp/scenario.hpp"
#include "fleet/protocol.hpp"
#include "fleet/wire.hpp"
#include "models/zoo.hpp"
#include "serve/batcher.hpp"
#include "serve/plan_cache.hpp"
#include "serve/server.hpp"

namespace flim {
namespace {

/// ctest runs every test in its own concurrent process; all scratch paths
/// are process-unique so the suite is parallel-safe.
std::string process_tag() {
#if defined(__unix__) || defined(__APPLE__)
  static const std::string tag = std::to_string(::getpid());
#else
  static const std::string tag = "solo";
#endif
  return tag;
}

std::string tmp_dir(const std::string& name) {
  return ::testing::TempDir() + "flim_serve_" + process_tag() + "_" + name;
}

/// The tiny lenet workload every serving test shares: one epoch over 32
/// samples trains in well under a second, and the per-process weight cache
/// makes every spec after the first load instantly.
exp::WorkloadSpec tiny_workload() {
  exp::WorkloadSpec w;
  w.model = "lenet";
  w.eval_images = 16;
  w.epochs = 1;
  w.train_samples = 32;
  w.weights_dir = tmp_dir("weights");
  return w;
}

exp::EvalPointSpec tiny_spec(const std::string& fault_expr) {
  exp::EvalPointSpec spec;
  spec.workload = tiny_workload();
  spec.engine.backend = exp::Backend::kFlim;
  spec.fault_expr = fault_expr;
  spec.repetitions = 2;
  spec.master_seed = 7;
  return spec;
}

/// The cold direct path: fresh workload load, fresh plan, fresh workspace.
/// Every warm-path assertion compares against this string byte-for-byte.
std::string direct_payload(const exp::EvalPointSpec& spec) {
  const exp::Workload workload = exp::load_workload(spec.workload);
  const bnn::ForwardPlan plan(workload.model, workload.eval_batch.images.shape());
  std::vector<tensor::Workspace> workspaces(1);
  const core::Summary summary =
      exp::evaluate_eval_point(spec, workload, plan, workspaces);
  return exp::format_eval_payload(spec, summary);
}

// ---------------------------------------------------------------------------
// Protocol: the serving messages round-trip through parse_message

TEST(ServeProtocol, EvalRequestRoundTrips) {
  fleet::EvalRequest req;
  req.model = "lenet";
  req.backend = "tmr";
  req.tmr_replicas = 5;
  req.fault_expr = "stuckat(rate=2e-3,sa1=0.7)+drift(tau=500)";
  req.granularity = "term";
  req.grid = "32x128";
  req.repetitions = 9;
  req.master_seed = 424242;
  req.deadline_ms = 1500;

  const fleet::Message m = fleet::parse_message(fleet::encode_eval_request(req));
  EXPECT_EQ(m.type, "eval_request");
  EXPECT_EQ(core::json_number(m.fields, "protocol"), fleet::kProtocolVersion);

  const fleet::EvalRequest back = fleet::decode_eval_request(m);
  EXPECT_EQ(back.model, req.model);
  EXPECT_EQ(back.backend, req.backend);
  EXPECT_EQ(back.tmr_replicas, req.tmr_replicas);
  EXPECT_EQ(back.fault_expr, req.fault_expr);
  EXPECT_EQ(back.granularity, req.granularity);
  EXPECT_EQ(back.grid, req.grid);
  EXPECT_EQ(back.repetitions, req.repetitions);
  EXPECT_EQ(back.master_seed, req.master_seed);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
}

TEST(ServeProtocol, ResultBusyAndStatsRoundTrip) {
  // The payload is an arbitrary JSON line; quotes and backslashes must
  // survive the escape round-trip byte-for-byte.
  const std::string payload = "{\"mean\": 0.5, \"note\": \"a\\\"b\"}";
  fleet::Message m = fleet::parse_message(fleet::encode_eval_result(payload));
  EXPECT_EQ(m.type, "eval_result");
  EXPECT_EQ(fleet::decode_eval_result(m), payload);

  m = fleet::parse_message(fleet::encode_busy(250));
  EXPECT_EQ(m.type, "busy");
  EXPECT_EQ(core::json_number(m.fields, "retry_ms"), 250);

  EXPECT_EQ(fleet::parse_message(fleet::encode_stats_request()).type, "stats");

  fleet::ServeStats stats;
  stats.cache_hits = 1;
  stats.cache_misses = 2;
  stats.cache_evictions = 3;
  stats.cache_entries = 4;
  stats.requests_completed = 5;
  stats.requests_expired = 6;
  stats.requests_rejected = 7;
  stats.batches = 8;
  stats.coalesced = 9;
  m = fleet::parse_message(fleet::encode_stats_ok(stats));
  EXPECT_EQ(m.type, "stats_ok");
  const fleet::ServeStats back = fleet::decode_stats_ok(m);
  EXPECT_EQ(back.cache_hits, 1u);
  EXPECT_EQ(back.cache_misses, 2u);
  EXPECT_EQ(back.cache_evictions, 3u);
  EXPECT_EQ(back.cache_entries, 4u);
  EXPECT_EQ(back.requests_completed, 5u);
  EXPECT_EQ(back.requests_expired, 6u);
  EXPECT_EQ(back.requests_rejected, 7u);
  EXPECT_EQ(back.batches, 8u);
  EXPECT_EQ(back.coalesced, 9u);
}

TEST(ServeProtocol, MalformedLinesAndMissingFieldsThrowJsonError) {
  // Garbage and type-less lines fail at parse_message.
  EXPECT_THROW(fleet::parse_message("not json"), core::JsonError);
  EXPECT_THROW(fleet::parse_message("{\"reps\": 3}"), core::JsonError);

  // A structurally valid message of the wrong shape fails at decode: the
  // session's error reply must come from the decoder, never from reading
  // uninitialized fields.
  const fleet::Message stats =
      fleet::parse_message(fleet::encode_stats_request());
  EXPECT_THROW(fleet::decode_eval_request(stats), core::JsonError);
  EXPECT_THROW(fleet::decode_stats_ok(
                   fleet::parse_message(fleet::encode_busy(100))),
               core::JsonError);
}

// ---------------------------------------------------------------------------
// Cache keying

TEST(EvalPointKey, CleanModelKeyIsStableAndSeparatedFromFaulted) {
  // The clean model (empty expression) is a first-class cache key of its
  // own: deterministic across calls, distinct from any faulted spec, and
  // separated by the model dimension.
  const exp::EvalPointSpec clean = tiny_spec("");
  EXPECT_EQ(exp::eval_point_key(clean), exp::eval_point_key(clean));
  EXPECT_NE(exp::eval_point_key(clean),
            exp::eval_point_key(tiny_spec("stuckat(rate=2e-3)")));

  exp::EvalPointSpec other_model = clean;
  other_model.workload.model = "BinaryDenseNet45";
  EXPECT_NE(exp::eval_point_key(clean), exp::eval_point_key(other_model));
}

TEST(EvalPointKey, CanonicalizesSpellingsAndSeparatesSubstrates) {
  // Two spellings of one stack share a key; repetitions/seed are absent.
  exp::EvalPointSpec a = tiny_spec("stuckat(rate=2e-3)");
  exp::EvalPointSpec b = tiny_spec("stuckat(rate=0.002)");
  b.repetitions = 99;
  b.master_seed = 1;
  EXPECT_EQ(exp::eval_point_key(a), exp::eval_point_key(b));

  // Every cached dimension separates keys.
  exp::EvalPointSpec c = a;
  c.granularity = fault::FaultGranularity::kProductTerm;
  EXPECT_NE(exp::eval_point_key(a), exp::eval_point_key(c));

  exp::EvalPointSpec d = a;
  d.grid = lim::CrossbarGeometry{32, 128};
  EXPECT_NE(exp::eval_point_key(a), exp::eval_point_key(d));

  exp::EvalPointSpec e = a;
  e.engine.backend = exp::Backend::kTmr;
  exp::EvalPointSpec f = e;
  f.engine.tmr_replicas = 5;
  EXPECT_NE(exp::eval_point_key(a), exp::eval_point_key(e));
  EXPECT_NE(exp::eval_point_key(e), exp::eval_point_key(f));
}

TEST(EvalPointSpecValidate, RejectsNonsense) {
  exp::EvalPointSpec bad_model = tiny_spec("");
  bad_model.workload.model = "no-such-model";
  EXPECT_THROW(exp::validate(bad_model), std::invalid_argument);

  exp::EvalPointSpec bad_expr = tiny_spec("definitely-not-a-fault(");
  EXPECT_THROW(exp::validate(bad_expr), std::invalid_argument);

  exp::EvalPointSpec bad_reps = tiny_spec("");
  bad_reps.repetitions = 0;
  EXPECT_THROW(exp::validate(bad_reps), std::invalid_argument);

  EXPECT_NO_THROW(exp::validate(tiny_spec("stuckat(rate=1e-3)")));
}

// ---------------------------------------------------------------------------
// PlanCache: counters, sharing, eviction, warm-vs-cold identity

TEST(PlanCache, MissThenHitReturnsTheSameEntry) {
  serve::PlanCache cache(4, 1);
  const exp::EvalPointSpec spec = tiny_spec("stuckat(rate=2e-3)");

  const auto first = cache.get_or_create(spec);
  const auto second = cache.get_or_create(spec);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.size(), 1u);

  const serve::CacheCounters c = cache.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.evictions, 0u);
}

TEST(PlanCache, TwoSpellingsOfOneStackShareOneEntry) {
  serve::PlanCache cache(4, 1);
  const auto a = cache.get_or_create(tiny_spec("stuckat(rate=2e-3)"));
  const auto b = cache.get_or_create(tiny_spec("stuckat(rate=0.002)"));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.counters().hits, 1u);
}

TEST(PlanCache, EntriesShareOneWorkloadAcrossFaultExpressions) {
  serve::PlanCache cache(4, 1);
  const auto a = cache.get_or_create(tiny_spec("stuckat(rate=2e-3)"));
  const auto b = cache.get_or_create(tiny_spec("bitflip(rate=1e-3)"));
  EXPECT_NE(a.get(), b.get());
  // One trained model underneath both entries.
  EXPECT_EQ(&a->workload(), &b->workload());
}

TEST(PlanCache, LruEvictsTheColdestEntry) {
  serve::PlanCache cache(2, 1);
  cache.get_or_create(tiny_spec("stuckat(rate=1e-3)"));
  cache.get_or_create(tiny_spec("bitflip(rate=1e-3)"));
  // Touch the first so the second is now coldest.
  cache.get_or_create(tiny_spec("stuckat(rate=1e-3)"));
  // A third key evicts bitflip, not stuckat.
  cache.get_or_create(tiny_spec("dynamic(rate=1e-3)"));

  serve::CacheCounters c = cache.counters();
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);

  // stuckat is still warm; bitflip went cold and must rebuild.
  cache.get_or_create(tiny_spec("stuckat(rate=1e-3)"));
  EXPECT_EQ(cache.counters().hits, c.hits + 1);
  cache.get_or_create(tiny_spec("bitflip(rate=1e-3)"));
  EXPECT_EQ(cache.counters().misses, c.misses + 1);
}

TEST(PlanCache, WarmEvaluationIsByteIdenticalToColdDirect) {
  const exp::EvalPointSpec spec = tiny_spec("stuckat(rate=2e-3)+drift(tau=500)");
  const std::string cold = direct_payload(spec);

  serve::PlanCache cache(4, 1);
  const auto entry = cache.get_or_create(spec);
  // Twice: the workspace arena is dirty on the second pass, which is
  // exactly the state a long-running server evaluates from.
  EXPECT_EQ(entry->evaluate_payload(spec.repetitions, spec.master_seed, nullptr),
            cold);
  EXPECT_EQ(entry->evaluate_payload(spec.repetitions, spec.master_seed, nullptr),
            cold);
}

TEST(PlanCache, WarmEntryAnswersPerRequestProtocols) {
  // One warm entry answers requests differing in repetitions/seed; each
  // answer matches the cold direct run of that exact protocol.
  serve::PlanCache cache(4, 1);
  const auto entry = cache.get_or_create(tiny_spec("stuckat(rate=2e-3)"));

  exp::EvalPointSpec other = tiny_spec("stuckat(rate=2e-3)");
  other.repetitions = 3;
  other.master_seed = 99;
  EXPECT_EQ(entry->evaluate_payload(3, 99, nullptr), direct_payload(other));
  EXPECT_EQ(cache.counters().misses, 1u);
}

/// An untrained LeNet built from its seed, so the pinned payloads below need
/// no weight cache and no training.
std::shared_ptr<const exp::Workload> untrained_lenet(std::int64_t images) {
  data::SyntheticMnistOptions d;
  d.size = images;
  const data::SyntheticMnist ds(d);
  auto w = std::make_shared<exp::Workload>();
  w->model = models::build_lenet_binary(7).to_inference_model();
  w->eval_batch = data::load_batch(ds, 0, images);
  w->layers = w->model
                  .analyze(tensor::FloatTensor(tensor::Shape{1, 1, 28, 28}, 0.5f))
                  .binarized_layers;
  return w;
}

TEST(PlanCache, ServedPayloadsMatchPinnedStrings) {
  // The committed payloads pin what a warm entry answers for a faulted
  // flim key and the clean reference key; edit them only for an intended
  // change in fault realization or arithmetic.
  const auto workload = untrained_lenet(64);
  exp::EvalPointSpec flim = tiny_spec("bitflip(rate=0.05)");
  flim.workload.eval_images = 64;
  serve::CacheEntry flim_entry(flim, workload, 1);
  EXPECT_EQ(flim_entry.evaluate_payload(3, 11, nullptr),
            "{\"model\": \"lenet\", \"backend\": \"flim\", \"tmr_replicas\": 3, "
            "\"fault\": \"bitflip(rate=0.05)\", \"granularity\": "
            "\"output-element\", \"grid\": \"64x64\", \"images\": 64, "
            "\"reps\": 3, \"seed\": 11, \"mean\": 0.078125, \"stddev\": "
            "0.027063293868263706, \"min\": 0.0625, \"max\": 0.109375}");

  exp::EvalPointSpec reference = tiny_spec("");
  reference.workload.eval_images = 64;
  reference.engine.backend = exp::Backend::kReference;
  serve::CacheEntry reference_entry(reference, workload, 1);
  EXPECT_EQ(reference_entry.evaluate_payload(3, 11, nullptr),
            "{\"model\": \"lenet\", \"backend\": \"reference\", \"tmr_replicas\": "
            "3, \"fault\": \"\", \"granularity\": \"output-element\", "
            "\"grid\": \"64x64\", \"images\": 64, \"reps\": 3, \"seed\": 11, "
            "\"mean\": 0.078125, \"stddev\": 0, \"min\": 0.078125, \"max\": "
            "0.078125}");
}

// ---------------------------------------------------------------------------
// Batcher: manual-mode (pump) semantics

serve::BatcherOptions manual_options(std::size_t queue = 8,
                                     std::size_t batch_max = 8) {
  serve::BatcherOptions o;
  o.queue_capacity = queue;
  o.batch_max = batch_max;
  o.start_thread = false;
  return o;
}

TEST(Batcher, PumpCompletesAQueuedRequest) {
  const exp::EvalPointSpec spec = tiny_spec("stuckat(rate=2e-3)");
  serve::PlanCache cache(4, 1);
  const auto entry = cache.get_or_create(spec);

  serve::Batcher batcher(manual_options());
  const auto ticket = std::make_shared<serve::Ticket>();
  ASSERT_EQ(batcher.submit(entry, spec.repetitions, spec.master_seed, -1, ticket),
            serve::SubmitStatus::kAccepted);
  EXPECT_TRUE(batcher.pump());
  ticket->wait();
  EXPECT_TRUE(ticket->ok());
  EXPECT_EQ(ticket->payload(), direct_payload(spec));
  // Queue is dry.
  EXPECT_FALSE(batcher.pump());

  const serve::BatcherCounters c = batcher.counters();
  EXPECT_EQ(c.submitted, 1u);
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.batches, 1u);
}

TEST(Batcher, CoalescesSameKeyRequestsIntoOneBatch) {
  const exp::EvalPointSpec spec = tiny_spec("stuckat(rate=2e-3)");
  serve::PlanCache cache(4, 1);
  const auto entry = cache.get_or_create(spec);

  serve::Batcher batcher(manual_options());
  std::vector<std::shared_ptr<serve::Ticket>> tickets;
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(std::make_shared<serve::Ticket>());
    ASSERT_EQ(batcher.submit(entry, spec.repetitions, spec.master_seed, -1,
                             tickets.back()),
              serve::SubmitStatus::kAccepted);
  }
  // One pump drains all three: same key, one batch.
  EXPECT_TRUE(batcher.pump());
  EXPECT_FALSE(batcher.pump());

  // Batched answers are bit-identical to the serial direct run.
  const std::string expect = direct_payload(spec);
  for (const auto& t : tickets) {
    t->wait();
    EXPECT_TRUE(t->ok());
    EXPECT_EQ(t->payload(), expect);
  }

  const serve::BatcherCounters c = batcher.counters();
  EXPECT_EQ(c.batches, 1u);
  EXPECT_EQ(c.coalesced, 2u);
  EXPECT_EQ(c.completed, 3u);
}

TEST(Batcher, BatchMaxBoundsCoalescing) {
  const exp::EvalPointSpec spec = tiny_spec("stuckat(rate=2e-3)");
  serve::PlanCache cache(4, 1);
  const auto entry = cache.get_or_create(spec);

  serve::Batcher batcher(manual_options(/*queue=*/8, /*batch_max=*/2));
  std::vector<std::shared_ptr<serve::Ticket>> tickets;
  for (int i = 0; i < 3; ++i) {
    tickets.push_back(std::make_shared<serve::Ticket>());
    ASSERT_EQ(batcher.submit(entry, spec.repetitions, spec.master_seed, -1,
                             tickets.back()),
              serve::SubmitStatus::kAccepted);
  }
  EXPECT_TRUE(batcher.pump());  // first two
  EXPECT_TRUE(batcher.pump());  // the straggler
  EXPECT_FALSE(batcher.pump());
  const serve::BatcherCounters c = batcher.counters();
  EXPECT_EQ(c.batches, 2u);
  EXPECT_EQ(c.coalesced, 1u);
}

TEST(Batcher, ExpiredDeadlineAnswersErrorInsteadOfEvaluating) {
  const exp::EvalPointSpec spec = tiny_spec("stuckat(rate=2e-3)");
  serve::PlanCache cache(4, 1);
  const auto entry = cache.get_or_create(spec);

  serve::Batcher batcher(manual_options());
  const auto ticket = std::make_shared<serve::Ticket>();
  // A zero budget has deterministically elapsed by pump time.
  ASSERT_EQ(batcher.submit(entry, spec.repetitions, spec.master_seed, 0, ticket),
            serve::SubmitStatus::kAccepted);
  EXPECT_TRUE(batcher.pump());
  ticket->wait();
  EXPECT_FALSE(ticket->ok());
  EXPECT_NE(ticket->payload().find("deadline"), std::string::npos);

  const serve::BatcherCounters c = batcher.counters();
  EXPECT_EQ(c.expired, 1u);
  EXPECT_EQ(c.completed, 0u);
}

TEST(Batcher, FullQueueAnswersBusyAndDrainingRejectsSubmits) {
  const exp::EvalPointSpec spec = tiny_spec("stuckat(rate=2e-3)");
  serve::PlanCache cache(4, 1);
  const auto entry = cache.get_or_create(spec);

  serve::Batcher batcher(manual_options(/*queue=*/1));
  const auto first = std::make_shared<serve::Ticket>();
  const auto second = std::make_shared<serve::Ticket>();
  ASSERT_EQ(batcher.submit(entry, spec.repetitions, spec.master_seed, -1, first),
            serve::SubmitStatus::kAccepted);
  EXPECT_EQ(batcher.submit(entry, spec.repetitions, spec.master_seed, -1, second),
            serve::SubmitStatus::kBusy);
  EXPECT_EQ(batcher.counters().rejected_busy, 1u);

  // drain() in manual mode runs the queue dry; the accepted request still
  // completes, later submits are refused.
  batcher.drain();
  first->wait();
  EXPECT_TRUE(first->ok());
  EXPECT_EQ(batcher.submit(entry, spec.repetitions, spec.master_seed, -1, second),
            serve::SubmitStatus::kDraining);
}

// ---------------------------------------------------------------------------
// End-to-end: a live server over loopback

serve::ServerOptions tiny_server_options() {
  serve::ServerOptions o;
  o.eval_images = 16;
  o.epochs = 1;
  o.train_samples = 32;
  o.weights_dir = tmp_dir("weights");
  return o;
}

fleet::EvalRequest tiny_request(const std::string& fault_expr) {
  fleet::EvalRequest req;
  req.model = "lenet";
  req.backend = "flim";
  req.fault_expr = fault_expr;
  req.repetitions = 2;
  req.master_seed = 7;
  return req;
}

/// One request/reply exchange on a fresh connection.
fleet::Message ask(int port, const std::string& line) {
  fleet::LineChannel chan(fleet::connect_to("127.0.0.1", port));
  chan.send_line(line);
  const fleet::RecvResult got = chan.recv_line(60000);
  EXPECT_EQ(got.status, fleet::RecvStatus::kLine);
  return fleet::parse_message(got.line);
}

TEST(EvalServer, ServedResultIsByteIdenticalToDirectEvaluation) {
  serve::EvalServer server(tiny_server_options());
  server.start();

  // The direct reference for the same request, spelled differently: the
  // request says 2e-3, the reference 0.002; canonicalization makes them
  // one point.
  exp::EvalPointSpec spec = tiny_spec("stuckat(rate=0.002)");
  const std::string expect = direct_payload(spec);

  const fleet::Message reply = ask(
      server.port(), fleet::encode_eval_request(tiny_request("stuckat(rate=2e-3)")));
  ASSERT_EQ(reply.type, "eval_result");
  EXPECT_EQ(fleet::decode_eval_result(reply), expect);

  // Same request again: answered from the warm entry, still byte-identical.
  const fleet::Message again = ask(
      server.port(), fleet::encode_eval_request(tiny_request("stuckat(rate=0.002)")));
  ASSERT_EQ(again.type, "eval_result");
  EXPECT_EQ(fleet::decode_eval_result(again), expect);

  const serve::CacheCounters c = server.cache().counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 1u);
  server.stop();
}

TEST(EvalServer, KilledClientMidRequestDoesNotTakeTheServerDown) {
  serve::EvalServer server(tiny_server_options());
  server.start();

  // A client submits a request and vanishes without reading the reply.
  {
    fleet::LineChannel doomed(fleet::connect_to("127.0.0.1", server.port()));
    doomed.send_line(fleet::encode_eval_request(tiny_request("stuckat(rate=1e-3)")));
    doomed.close();
  }

  // A well-behaved client on a fresh connection is served normally.
  const fleet::Message reply = ask(
      server.port(), fleet::encode_eval_request(tiny_request("bitflip(rate=1e-3)")));
  ASSERT_EQ(reply.type, "eval_result");
  server.stop();
}

TEST(EvalServer, StatsReportsTheServingCounters) {
  serve::EvalServer server(tiny_server_options());
  server.start();

  const std::string req =
      fleet::encode_eval_request(tiny_request("stuckat(rate=1e-3)"));
  ASSERT_EQ(ask(server.port(), req).type, "eval_result");
  ASSERT_EQ(ask(server.port(), req).type, "eval_result");

  const fleet::Message reply = ask(server.port(), fleet::encode_stats_request());
  ASSERT_EQ(reply.type, "stats_ok");
  const fleet::ServeStats stats = fleet::decode_stats_ok(reply);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
  EXPECT_EQ(stats.requests_completed, 2u);
  EXPECT_EQ(stats.requests_rejected, 0u);
  EXPECT_GE(stats.batches, 1u);
  server.stop();
}

TEST(EvalServer, BadRequestAnswersErrorAndKeepsTheConnection) {
  serve::EvalServer server(tiny_server_options());
  server.start();

  fleet::LineChannel chan(fleet::connect_to("127.0.0.1", server.port()));

  // A config error (unknown model) is answered with error...
  fleet::EvalRequest bad = tiny_request("");
  bad.model = "no-such-model";
  chan.send_line(fleet::encode_eval_request(bad));
  fleet::RecvResult got = chan.recv_line(60000);
  ASSERT_EQ(got.status, fleet::RecvStatus::kLine);
  EXPECT_EQ(fleet::parse_message(got.line).type, "error");

  // ...and the connection stays usable for a valid request.
  chan.send_line(fleet::encode_eval_request(tiny_request("")));
  got = chan.recv_line(60000);
  ASSERT_EQ(got.status, fleet::RecvStatus::kLine);
  EXPECT_EQ(fleet::parse_message(got.line).type, "eval_result");

  // A protocol violation (not JSON) is answered with error and the
  // connection dropped.
  chan.send_line("not json at all");
  got = chan.recv_line(60000);
  ASSERT_EQ(got.status, fleet::RecvStatus::kLine);
  EXPECT_EQ(fleet::parse_message(got.line).type, "error");
  got = chan.recv_line(60000);
  EXPECT_EQ(got.status, fleet::RecvStatus::kEof);
  server.stop();
}

TEST(EvalServer, ExpiredDeadlineAnswersErrorOverTheWire) {
  serve::EvalServer server(tiny_server_options());
  server.start();

  fleet::EvalRequest req = tiny_request("stuckat(rate=1e-3)");
  req.deadline_ms = 0;  // deterministically elapsed by batch time
  const fleet::Message reply =
      ask(server.port(), fleet::encode_eval_request(req));
  EXPECT_EQ(reply.type, "error");
  server.stop();
}

TEST(EvalServer, StopIsIdempotentAndDrainsCleanly) {
  serve::EvalServer server(tiny_server_options());
  server.start();
  ASSERT_EQ(ask(server.port(),
                fleet::encode_eval_request(tiny_request(""))).type,
            "eval_result");
  server.stop();
  server.stop();  // second stop is a no-op
  // Destruction after stop() must also be clean (covered by scope exit).
}

TEST(EvalServer, ParallelRepetitionPoolIsByteIdenticalToSerial) {
  serve::ServerOptions options = tiny_server_options();
  options.jobs = 2;
  serve::EvalServer server(options);
  server.start();

  exp::EvalPointSpec spec = tiny_spec("stuckat(rate=2e-3)");
  spec.repetitions = 4;
  const std::string expect = direct_payload(spec);  // serial, one workspace

  fleet::EvalRequest req = tiny_request("stuckat(rate=2e-3)");
  req.repetitions = 4;
  const fleet::Message reply =
      ask(server.port(), fleet::encode_eval_request(req));
  ASSERT_EQ(reply.type, "eval_result");
  EXPECT_EQ(fleet::decode_eval_result(reply), expect);
  server.stop();
}

}  // namespace
}  // namespace flim
