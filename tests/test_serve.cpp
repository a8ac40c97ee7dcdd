// hipo::serve — wire JSON parser strictness, frame codec, LRU cache
// semantics, and the Service/Server request paths. The headline contract:
// served placements (cold miss, warm hit, post-delta) are byte-identical to
// what core::solve / opt::DeltaSolver produce directly.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/solver.hpp"
#include "src/model/io.hpp"
#include "src/obs/log.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/opt/delta.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/serve/cache.hpp"
#include "src/serve/hash.hpp"
#include "src/serve/server.hpp"
#include "src/serve/service.hpp"
#include "src/serve/wire.hpp"
#include "src/util/error.hpp"
#include "tests/test_helpers.hpp"

namespace hipo {
namespace {

// --- wire: parser ---------------------------------------------------------

TEST(WireJson, ParsesDocumentsAndAccessesFields) {
  const serve::Json doc = serve::parse_json(
      R"({"b":true,"n":-1.5e2,"s":"a\"\\\nAb","arr":[1,2],"o":{"k":null}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.find("b")->as_bool());
  EXPECT_EQ(doc.find("n")->as_number(), -150.0);
  EXPECT_EQ(doc.find("s")->as_string(), "a\"\\\nAb");
  EXPECT_EQ(doc.find("arr")->as_array().size(), 2u);
  EXPECT_TRUE(doc.find("o")->find("k")->is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(WireJson, RejectsMalformedDocumentsWithByteOffsets) {
  const auto expect_fails = [](const std::string& text) {
    try {
      serve::parse_json(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos)
          << e.what();
    }
  };
  expect_fails("");
  expect_fails("{");
  expect_fails("{\"a\":1,}");
  expect_fails("{\"a\" 1}");
  expect_fails("[1 2]");
  expect_fails("{\"a\":1} trailing");
  expect_fails("{\"a\":nan}");
  expect_fails("{\"a\":1e999}");          // non-finite number
  expect_fails("{\"a\":1,\"a\":2}");      // duplicate key
  expect_fails("\"unterminated");
  expect_fails("{\"bad\\q\":1}");         // unknown escape
  expect_fails("tru");
}

TEST(WireJson, DumpIsCanonicalAndRoundTrips) {
  serve::Json doc = serve::Json::object();
  doc.set("zeta", serve::Json::number(1.0));
  doc.set("alpha", serve::Json::string("x\"y\n"));
  serve::Json arr = serve::Json::array();
  arr.push(serve::Json::boolean(false));
  arr.push(serve::Json::null());
  doc.set("list", std::move(arr));
  const std::string text = doc.dump();
  // Keys come out sorted, so equal documents dump to equal bytes.
  EXPECT_LT(text.find("alpha"), text.find("list"));
  EXPECT_LT(text.find("list"), text.find("zeta"));
  const serve::Json again = serve::parse_json(text);
  EXPECT_EQ(again.dump(), text);
}

// --- wire: framing --------------------------------------------------------

TEST(WireFrame, HeaderRoundTripsBigEndian) {
  unsigned char header[serve::kFrameHeaderBytes];
  serve::encode_frame_header(0x01020304u, header);
  EXPECT_EQ(header[0], 0x01);
  EXPECT_EQ(header[1], 0x02);
  EXPECT_EQ(header[2], 0x03);
  EXPECT_EQ(header[3], 0x04);
  EXPECT_EQ(serve::decode_frame_header(header, 1u << 30), 0x01020304u);
}

TEST(WireFrame, RejectsOversizedFrames) {
  unsigned char header[serve::kFrameHeaderBytes];
  serve::encode_frame_header(1025, header);
  EXPECT_THROW(serve::decode_frame_header(header, 1024), ConfigError);
  EXPECT_EQ(serve::decode_frame_header(header, 1025), 1025u);
}

// --- cache ----------------------------------------------------------------

std::shared_ptr<serve::CacheEntry> make_entry(parallel::ThreadPool* pool) {
  opt::DeltaOptions opts;
  opts.workers = pool;
  return std::make_shared<serve::CacheEntry>(
      opt::DeltaSolver(test::simple_scenario().to_config(), std::move(opts)));
}

TEST(ScenarioCache, LruEvictsOldestAndTouchRefreshes) {
  parallel::ThreadPool pool(1);
  serve::ScenarioCache cache(2);
  auto e = make_entry(&pool);
  cache.insert("aaaaaaaaaaaaaaaa", e);
  cache.insert("bbbbbbbbbbbbbbbb", e);
  EXPECT_NE(cache.find("aaaaaaaaaaaaaaaa"), nullptr);  // touch: a is MRU
  cache.insert("cccccccccccccccc", e);                 // evicts b
  EXPECT_NE(cache.find("aaaaaaaaaaaaaaaa"), nullptr);
  EXPECT_EQ(cache.find("bbbbbbbbbbbbbbbb"), nullptr);
  EXPECT_NE(cache.find("cccccccccccccccc"), nullptr);
  const serve::CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.capacity, 2u);
}

TEST(ScenarioCache, RekeyMovesAndSupersedes) {
  parallel::ThreadPool pool(1);
  serve::ScenarioCache cache(4);
  auto e1 = make_entry(&pool);
  auto e2 = make_entry(&pool);
  cache.insert("aaaaaaaaaaaaaaaa", e1);
  cache.insert("bbbbbbbbbbbbbbbb", e2);
  cache.rekey("aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb");
  EXPECT_EQ(cache.find("aaaaaaaaaaaaaaaa"), nullptr);
  EXPECT_EQ(cache.find("bbbbbbbbbbbbbbbb"), e1);  // the rekeyed entry wins
  EXPECT_EQ(cache.stats().entries, 1u);
  // Rekey of an absent key is a no-op (entry evicted mid-request).
  cache.rekey("cccccccccccccccc", "dddddddddddddddd");
  EXPECT_EQ(cache.find("dddddddddddddddd"), nullptr);
}

TEST(ScenarioCache, ZeroCapacityDisablesCaching) {
  parallel::ThreadPool pool(1);
  serve::ScenarioCache cache(0);
  auto e = make_entry(&pool);
  EXPECT_EQ(cache.insert("aaaaaaaaaaaaaaaa", e), e);  // returned unstored
  EXPECT_EQ(cache.find("aaaaaaaaaaaaaaaa"), nullptr);
}

// --- service --------------------------------------------------------------

std::string scenario_text(const model::Scenario& scenario) {
  std::ostringstream os;
  model::write_scenario(os, scenario);
  return os.str();
}

std::string placement_bytes(const model::Placement& placement) {
  std::ostringstream os;
  model::write_placement(os, placement);
  return os.str();
}

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : pool_(2) {
    serve::ServiceOptions opts;
    opts.cache_entries = 4;
    opts.max_inflight = 4;
    opts.pool = &pool_;
    service_ = std::make_unique<serve::Service>(opts);
  }

  serve::Json call(const std::string& request) {
    return serve::parse_json(service_->handle(request));
  }

  serve::Json call_ok(const std::string& request) {
    const serve::Json resp = call(request);
    EXPECT_TRUE(resp.find("ok") != nullptr && resp.find("ok")->as_bool())
        << service_->handle(request);
    return resp;
  }

  parallel::ThreadPool pool_;
  std::unique_ptr<serve::Service> service_;
};

TEST_F(ServiceTest, SolveColdThenWarmMatchesCoreSolveByteForByte) {
  const model::Scenario scenario = test::simple_scenario();
  core::SolveOptions copts;
  copts.pool = &pool_;
  const std::string reference =
      placement_bytes(core::solve(scenario, copts).placement);

  serve::Json req = serve::Json::object();
  req.set("type", serve::Json::string("solve"));
  req.set("scenario", serve::Json::string(scenario_text(scenario)));
  const serve::Json cold = call_ok(req.dump());
  EXPECT_EQ(cold.find("cache")->as_string(), "miss");
  EXPECT_EQ(cold.find("placement_text")->as_string(), reference);
  EXPECT_EQ(cold.find("key")->as_string(), serve::scenario_key(scenario));

  const serve::Json warm = call_ok(req.dump());
  EXPECT_EQ(warm.find("cache")->as_string(), "hit");
  EXPECT_EQ(warm.find("placement_text")->as_string(), reference);

  // Key-only resolve (no scenario bytes on the wire) hits the same entry.
  serve::Json by_key = serve::Json::object();
  by_key.set("type", serve::Json::string("solve"));
  by_key.set("key", *cold.find("key"));
  const serve::Json keyed = call_ok(by_key.dump());
  EXPECT_EQ(keyed.find("placement_text")->as_string(), reference);
}

// "quantize" never changed a response and is no longer read: a request
// carrying it gets the same bytes as one without it, cold or warm. The
// removed "global" mode is a bad request that names its replacement.
TEST_F(ServiceTest, QuantizeFieldIgnoredAndGlobalModeRejected) {
  const model::Scenario scenario = test::small_paper_scenario(5);
  serve::Json req = serve::Json::object();
  req.set("type", serve::Json::string("solve"));
  req.set("scenario", serve::Json::string(scenario_text(scenario)));
  req.set("greedy", serve::Json::string("per-type"));
  req.set("kind", serve::Json::string("log-utility"));
  serve::Json quantized = req;
  quantized.set("quantize", serve::Json::boolean(true));

  const serve::Json cold = call_ok(quantized.dump());
  EXPECT_EQ(cold.find("cache")->as_string(), "miss");
  const serve::Json warm = call_ok(req.dump());
  EXPECT_EQ(warm.find("cache")->as_string(), "hit");
  const serve::Json warm_quantized = call_ok(quantized.dump());
  const std::string& want = warm.find("placement_text")->as_string();
  EXPECT_EQ(cold.find("placement_text")->as_string(), want);
  EXPECT_EQ(warm_quantized.find("placement_text")->as_string(), want);

  serve::Json global = req;
  global.set("greedy", serve::Json::string("global"));
  const serve::Json rejected = call(global.dump());
  EXPECT_EQ(rejected.find("error")->as_string(), "bad_request");
  EXPECT_NE(rejected.find("message")->as_string().find("'lazy'"),
            std::string::npos);
}

TEST_F(ServiceTest, DeltaMatchesDirectDeltaSolverAndRekeys) {
  const model::Scenario scenario = test::simple_scenario();

  serve::Json solve = serve::Json::object();
  solve.set("type", serve::Json::string("solve"));
  solve.set("scenario", serve::Json::string(scenario_text(scenario)));
  const std::string base_key =
      call_ok(solve.dump()).find("key")->as_string();

  const std::string script =
      "{\"op\":\"add_device\",\"x\":8.0,\"y\":11.0}\n"
      "{\"op\":\"move_device\",\"index\":0,\"x\":9.5,\"y\":10.5}\n";

  // Direct reference: same ops through a DeltaSolver.
  opt::DeltaOptions dopts;
  dopts.workers = &pool_;
  opt::DeltaSolver reference(scenario.to_config(), std::move(dopts));
  for (const auto& op : opt::parse_delta_script(script)) reference.apply(op);

  serve::Json delta = serve::Json::object();
  delta.set("type", serve::Json::string("delta"));
  delta.set("key", serve::Json::string(base_key));
  delta.set("script", serve::Json::string(script));
  const serve::Json resp = call_ok(delta.dump());
  EXPECT_EQ(resp.find("ops")->as_number(), 2.0);
  EXPECT_EQ(resp.find("base_key")->as_string(), base_key);
  EXPECT_EQ(resp.find("placement_text")->as_string(),
            placement_bytes(reference.result().placement));
  const std::string new_key = resp.find("key")->as_string();
  EXPECT_EQ(new_key, serve::scenario_key(reference.scenario()));
  EXPECT_NE(new_key, base_key);

  // The entry moved: the old key is gone, the new key solves warm.
  serve::Json stale = serve::Json::object();
  stale.set("type", serve::Json::string("solve"));
  stale.set("key", serve::Json::string(base_key));
  EXPECT_EQ(call(stale.dump()).find("error")->as_string(), "unknown_key");

  serve::Json fresh = serve::Json::object();
  fresh.set("type", serve::Json::string("solve"));
  fresh.set("key", serve::Json::string(new_key));
  EXPECT_EQ(call_ok(fresh.dump()).find("placement_text")->as_string(),
            placement_bytes(reference.result().placement));
}

TEST_F(ServiceTest, DeltaMidScriptFailureReportsOpAndRekeys) {
  const model::Scenario scenario = test::simple_scenario();
  serve::Json solve = serve::Json::object();
  solve.set("type", serve::Json::string("solve"));
  solve.set("scenario", serve::Json::string(scenario_text(scenario)));
  const std::string base_key =
      call_ok(solve.dump()).find("key")->as_string();

  // Op 1 applies; op 2 removes an out-of-range device and fails.
  const std::string script =
      "{\"op\":\"add_device\",\"x\":8.0,\"y\":11.0}\n"
      "{\"op\":\"remove_device\",\"index\":99}\n";
  serve::Json delta = serve::Json::object();
  delta.set("type", serve::Json::string("delta"));
  delta.set("key", serve::Json::string(base_key));
  delta.set("script", serve::Json::string(script));
  const serve::Json resp = call(delta.dump());
  EXPECT_FALSE(resp.find("ok")->as_bool());
  EXPECT_NE(resp.find("message")->as_string().find("delta op 2 of 2"),
            std::string::npos);
  EXPECT_EQ(resp.find("applied")->as_number(), 1.0);
  // The cache invariant survives the partial failure: the response's key is
  // the hash of the mutated scenario and still resolves.
  serve::Json fresh = serve::Json::object();
  fresh.set("type", serve::Json::string("solve"));
  fresh.set("key", *resp.find("key"));
  call_ok(fresh.dump());
}

TEST_F(ServiceTest, EvalInlineAndByKey) {
  const model::Scenario scenario = test::simple_scenario();
  serve::Json solve = serve::Json::object();
  solve.set("type", serve::Json::string("solve"));
  solve.set("scenario", serve::Json::string(scenario_text(scenario)));
  const serve::Json solved = call_ok(solve.dump());

  serve::Json eval = serve::Json::object();
  eval.set("type", serve::Json::string("eval"));
  eval.set("key", *solved.find("key"));
  eval.set("placement", *solved.find("placement"));
  eval.set("per_device", serve::Json::boolean(true));
  const serve::Json by_key = call_ok(eval.dump());
  EXPECT_EQ(by_key.find("utility")->as_number(),
            solved.find("utility")->as_number());
  EXPECT_EQ(by_key.find("per_device_utility")->as_array().size(),
            scenario.num_devices());

  serve::Json inline_eval = serve::Json::object();
  inline_eval.set("type", serve::Json::string("eval"));
  inline_eval.set("scenario", serve::Json::string(scenario_text(scenario)));
  inline_eval.set("placement", *solved.find("placement"));
  EXPECT_EQ(call_ok(inline_eval.dump()).find("utility")->as_number(),
            solved.find("utility")->as_number());
}

TEST_F(ServiceTest, MalformedRequestsGetErrorResponsesNotThrows) {
  EXPECT_EQ(call("not json at all").find("error")->as_string(),
            "bad_request");
  EXPECT_EQ(call("[1,2,3]").find("error")->as_string(), "bad_request");
  EXPECT_EQ(call("{\"no_type\":1}").find("error")->as_string(),
            "bad_request");
  EXPECT_EQ(call("{\"type\":\"frobnicate\"}").find("error")->as_string(),
            "bad_request");
  EXPECT_EQ(call("{\"type\":\"solve\"}").find("error")->as_string(),
            "bad_request");
  serve::Json bad_key = serve::Json::object();
  bad_key.set("type", serve::Json::string("solve"));
  bad_key.set("key", serve::Json::string("NOT-A-KEY"));
  EXPECT_EQ(call(bad_key.dump()).find("error")->as_string(), "bad_request");
  // The id is echoed even on errors so pipelined clients can match frames.
  const serve::Json resp =
      call("{\"id\":\"req-7\",\"type\":\"frobnicate\"}");
  EXPECT_EQ(resp.find("id")->as_string(), "req-7");
  EXPECT_GE(service_->stats().errors, 6u);
}

TEST_F(ServiceTest, StatsCountsRequestsAndCacheTraffic) {
  const model::Scenario scenario = test::simple_scenario();
  serve::Json solve = serve::Json::object();
  solve.set("type", serve::Json::string("solve"));
  solve.set("scenario", serve::Json::string(scenario_text(scenario)));
  call_ok(solve.dump());
  call_ok(solve.dump());
  const serve::Json stats = call_ok("{\"type\":\"stats\"}");
  EXPECT_EQ(stats.find("solves_cold")->as_number(), 1.0);
  EXPECT_EQ(stats.find("solves_warm")->as_number(), 1.0);
  EXPECT_EQ(stats.find("cache")->find("misses")->as_number(), 1.0);
  EXPECT_EQ(stats.find("cache")->find("hits")->as_number(), 1.0);
  EXPECT_EQ(stats.find("cache")->find("entries")->as_number(), 1.0);
  const serve::ServiceStats s = service_->stats();
  EXPECT_EQ(s.solves_cold, 1u);
  EXPECT_EQ(s.solves_warm, 1u);
}

TEST_F(ServiceTest, ShutdownRequestFlagsTheService) {
  EXPECT_FALSE(service_->shutdown_requested());
  call_ok("{\"type\":\"shutdown\"}");
  EXPECT_TRUE(service_->shutdown_requested());
}

TEST(ServiceAdmission, OverloadedRequestsAreRejectedNotQueued) {
  // max_inflight = 0 rejects every compute request (the drain-only
  // configuration) while control requests still work — the deterministic
  // way to pin the overload response shape.
  parallel::ThreadPool pool(2);
  serve::ServiceOptions opts;
  opts.cache_entries = 2;
  opts.max_inflight = 0;
  opts.pool = &pool;
  serve::Service service(opts);

  serve::Json solve = serve::Json::object();
  solve.set("type", serve::Json::string("solve"));
  solve.set("scenario",
            serve::Json::string(scenario_text(test::simple_scenario())));
  const serve::Json resp = serve::parse_json(service.handle(solve.dump()));
  EXPECT_FALSE(resp.find("ok")->as_bool());
  EXPECT_EQ(resp.find("error")->as_string(), "overloaded");
  EXPECT_EQ(service.stats().rejected, 1u);
  // stats (control plane) bypasses admission.
  const serve::Json stats =
      serve::parse_json(service.handle("{\"type\":\"stats\"}"));
  EXPECT_TRUE(stats.find("ok")->as_bool());
}

TEST(ServiceConcurrency, ParallelMixedRequestsStayDeterministic) {
  parallel::ThreadPool pool(4);
  serve::ServiceOptions opts;
  opts.cache_entries = 4;
  opts.max_inflight = 8;
  opts.pool = &pool;
  serve::Service service(opts);

  const model::Scenario a = test::simple_scenario();
  const model::Scenario b = test::blocked_scenario();
  core::SolveOptions copts;
  copts.pool = &pool;
  const std::string ref_a = placement_bytes(core::solve(a, copts).placement);
  const std::string ref_b = placement_bytes(core::solve(b, copts).placement);

  serve::Json req_a = serve::Json::object();
  req_a.set("type", serve::Json::string("solve"));
  req_a.set("scenario", serve::Json::string(scenario_text(a)));
  serve::Json req_b = serve::Json::object();
  req_b.set("type", serve::Json::string("solve"));
  req_b.set("scenario", serve::Json::string(scenario_text(b)));

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const std::string& want = (i % 2 == 0) ? ref_a : ref_b;
      const std::string request =
          (i % 2 == 0) ? req_a.dump() : req_b.dump();
      for (int r = 0; r < 3; ++r) {
        const serve::Json resp = serve::parse_json(service.handle(request));
        if (!resp.find("ok")->as_bool() ||
            resp.find("placement_text")->as_string() != want) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const serve::ServiceStats s = service.stats();
  EXPECT_EQ(s.solves_cold + s.solves_warm,
            static_cast<std::uint64_t>(kThreads * 3));
}

// --- observability --------------------------------------------------------

TEST_F(ServiceTest, EveryResponseCarriesAMonotonicRequestId) {
  EXPECT_EQ(call_ok("{\"type\":\"stats\"}").find("request_id")->as_string(),
            "r1");
  EXPECT_EQ(call_ok("{\"type\":\"stats\"}").find("request_id")->as_string(),
            "r2");
  // Errors are numbered too — the id is the envelope, not a success field.
  const serve::Json bad = call("not json at all");
  EXPECT_EQ(bad.find("request_id")->as_string(), "r3");
  EXPECT_EQ(bad.find("error")->as_string(), "bad_request");
}

TEST(ServiceObservability, FullObservabilityDoesNotChangeServedBytes) {
  // The acceptance contract: logging + flight recorder + metrics + tracing
  // all on, response bytes identical to a bare service (same request ids,
  // same placement bytes).
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  obs::reset_trace();
  parallel::ThreadPool pool(2);

  serve::ServiceOptions plain_opts;
  plain_opts.cache_entries = 4;
  plain_opts.max_inflight = 4;
  plain_opts.pool = &pool;
  serve::Service plain(plain_opts);

  std::ostringstream sink;
  obs::log::Logger logger(sink,
                          {.min_level = obs::log::Level::kDebug});
  serve::ServiceOptions obs_opts = plain_opts;
  obs_opts.logger = &logger;
  obs_opts.flight_entries = 16;
  serve::Service observed(obs_opts);

  serve::Json solve = serve::Json::object();
  solve.set("type", serve::Json::string("solve"));
  solve.set("scenario",
            serve::Json::string(scenario_text(test::simple_scenario())));
  const std::string request = solve.dump();

  // Cold, then warm, then an error — byte-identical at every step.
  EXPECT_EQ(plain.handle(request), observed.handle(request));
  EXPECT_EQ(plain.handle(request), observed.handle(request));
  EXPECT_EQ(plain.handle("{\"type\":\"frobnicate\"}"),
            observed.handle("{\"type\":\"frobnicate\"}"));

  logger.flush();
  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);

  // The observed service wrote one record per request, matching the
  // responses: r1 cold miss, r2 warm hit, r3 error.
  std::vector<std::string> lines;
  {
    std::istringstream is(sink.str());
    std::string line;
    while (std::getline(is, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  const serve::Json rec1 = serve::parse_json(lines[0]);
  EXPECT_EQ(rec1.find("request_id")->as_string(), "r1");
  EXPECT_EQ(rec1.find("type")->as_string(), "solve");
  EXPECT_EQ(rec1.find("cache")->as_string(), "miss");
  EXPECT_EQ(rec1.find("admission")->as_string(), "admitted");
  EXPECT_TRUE(rec1.find("ok")->as_bool());
  EXPECT_GT(rec1.find("seconds")->as_number(), 0.0);
  EXPECT_GT(rec1.find("bytes_in")->as_number(), 0.0);
  EXPECT_GT(rec1.find("bytes_out")->as_number(), 0.0);
  EXPECT_EQ(rec1.find("key")->as_string(),
            serve::scenario_key(test::simple_scenario()));
  const serve::Json rec2 = serve::parse_json(lines[1]);
  EXPECT_EQ(rec2.find("cache")->as_string(), "hit");
  const serve::Json rec3 = serve::parse_json(lines[2]);
  EXPECT_EQ(rec3.find("request_id")->as_string(), "r3");
  EXPECT_EQ(rec3.find("level")->as_string(), "error");
  EXPECT_EQ(rec3.find("error")->as_string(), "bad_request");
  EXPECT_FALSE(rec3.find("ok")->as_bool());

  // Trace correlation: the solver phases of request r1 were emitted on its
  // per-request track (tid = 100000 + 1).
  std::ostringstream trace;
  obs::write_trace_json(trace);
  EXPECT_NE(trace.str().find("\"tid\":100001"), std::string::npos);
  EXPECT_NE(trace.str().find("\"request_id\":\"r1\""), std::string::npos);
  obs::reset_trace();

  // The flight recorder retained the same three records.
  const std::vector<std::string> flight = observed.flight_records();
  ASSERT_EQ(flight.size(), 3u);
  EXPECT_EQ(flight[0], lines[0]);
  EXPECT_EQ(flight[2], lines[2]);
}

TEST(ServiceObservability, MetricsScrapeUnderLoadIsConsistent) {
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  parallel::ThreadPool pool(4);
  serve::ServiceOptions opts;
  opts.cache_entries = 4;
  opts.max_inflight = 8;
  opts.pool = &pool;
  serve::Service service(opts);

  serve::Json solve = serve::Json::object();
  solve.set("type", serve::Json::string("solve"));
  solve.set("scenario",
            serve::Json::string(scenario_text(test::simple_scenario())));
  const std::string request = solve.dump();

  std::atomic<bool> done{false};
  std::atomic<int> scrape_failures{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const serve::Json resp =
          serve::parse_json(service.handle("{\"type\":\"metrics\"}"));
      if (resp.find("ok") == nullptr || !resp.find("ok")->as_bool()) {
        scrape_failures.fetch_add(1);
        continue;
      }
      const serve::Json* counters =
          resp.find("metrics")->find("counters");
      const serve::Json* hists =
          resp.find("metrics")->find("histograms");
      const serve::Json* requests = counters->find("serve.requests");
      const serve::Json* h = hists->find("serve.request_seconds");
      if (requests == nullptr || h == nullptr) continue;
      // Snapshot invariant: requests are counted on entry, latencies
      // observed on exit — a consistent snapshot can never show more
      // completed latencies than started requests.
      if (h->find("count")->as_number() > requests->as_number()) {
        scrape_failures.fetch_add(1);
      }
      const std::string prom = resp.find("prometheus")->as_string();
      if (prom.find("hipo_serve_requests_total") == std::string::npos) {
        scrape_failures.fetch_add(1);
      }
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      for (int r = 0; r < 3; ++r) {
        const serve::Json resp = serve::parse_json(service.handle(request));
        EXPECT_TRUE(resp.find("ok")->as_bool());
      }
    });
  }
  for (auto& w : workers) w.join();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_EQ(scrape_failures.load(), 0);

  // Derived percentiles are live and ordered.
  const serve::ServiceStats s = service.stats();
  EXPECT_GT(s.request_p50, 0.0);
  EXPECT_LE(s.request_p50, s.request_p90);
  EXPECT_LE(s.request_p90, s.request_p99);
  const serve::Json stats =
      serve::parse_json(service.handle("{\"type\":\"stats\"}"));
  EXPECT_GT(stats.find("request_seconds")->find("p99")->as_number(), 0.0);
  obs::set_metrics_enabled(false);
}

TEST(ServiceObservability, FlightRecorderCapturesErrorsForPostMortem) {
  parallel::ThreadPool pool(2);
  serve::ServiceOptions opts;
  opts.cache_entries = 2;
  opts.max_inflight = 2;
  opts.pool = &pool;
  opts.flight_entries = 8;
  serve::Service service(opts);

  // r1 fails, r2 succeeds; the flight request then explains both.
  serve::parse_json(service.handle("{\"type\":\"frobnicate\"}"));
  serve::parse_json(service.handle("{\"type\":\"stats\"}"));
  const serve::Json flight =
      serve::parse_json(service.handle("{\"type\":\"flight\"}"));
  ASSERT_TRUE(flight.find("ok")->as_bool());
  EXPECT_EQ(flight.find("capacity")->as_number(), 8.0);
  EXPECT_EQ(flight.find("recorded")->as_number(), 2.0);
  const auto& records = flight.find("records")->as_array();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].find("request_id")->as_string(), "r1");
  EXPECT_EQ(records[0].find("level")->as_string(), "error");
  EXPECT_EQ(records[0].find("error")->as_string(), "bad_request");
  EXPECT_EQ(records[1].find("request_id")->as_string(), "r2");
  EXPECT_EQ(records[1].find("type")->as_string(), "stats");

  // A service without a recorder still answers (empty).
  serve::ServiceOptions bare = opts;
  bare.flight_entries = 0;
  serve::Service no_flight(bare);
  const serve::Json empty =
      serve::parse_json(no_flight.handle("{\"type\":\"flight\"}"));
  EXPECT_TRUE(empty.find("ok")->as_bool());
  EXPECT_EQ(empty.find("records")->as_array().size(), 0u);
  EXPECT_EQ(empty.find("capacity")->as_number(), 0.0);
}

// --- socket server --------------------------------------------------------

TEST(ServeServer, LoopbackRoundTripAndCleanShutdown) {
  parallel::ThreadPool pool(2);
  serve::ServiceOptions sopts;
  sopts.cache_entries = 2;
  sopts.max_inflight = 2;
  sopts.pool = &pool;
  serve::Service service(sopts);
  serve::Server server(service, serve::ServerOptions{});
  ASSERT_NE(server.port(), 0);
  server.start();

  const model::Scenario scenario = test::simple_scenario();
  core::SolveOptions copts;
  copts.pool = &pool;
  const std::string reference =
      placement_bytes(core::solve(scenario, copts).placement);

  {
    serve::Client client(server.port());
    serve::Json req = serve::Json::object();
    req.set("type", serve::Json::string("solve"));
    req.set("scenario", serve::Json::string(scenario_text(scenario)));
    const serve::Json cold = serve::parse_json(client.call(req.dump()));
    ASSERT_TRUE(cold.find("ok")->as_bool());
    EXPECT_EQ(cold.find("placement_text")->as_string(), reference);
    // Same connection, second request: pipelined frames work.
    const serve::Json warm = serve::parse_json(client.call(req.dump()));
    EXPECT_EQ(warm.find("cache")->as_string(), "hit");
    EXPECT_EQ(warm.find("placement_text")->as_string(), reference);
  }
  {
    // A garbled frame gets an error response, not a dead socket.
    serve::Client client(server.port());
    const serve::Json bad = serve::parse_json(client.call("{{{{"));
    EXPECT_FALSE(bad.find("ok")->as_bool());
  }
  {
    serve::Client client(server.port());
    const serve::Json resp =
        serve::parse_json(client.call("{\"type\":\"shutdown\"}"));
    EXPECT_TRUE(resp.find("ok")->as_bool());
  }
  server.stop();  // must join cleanly after the served shutdown
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(ServeServer, ConcurrentClientsOverLoopback) {
  parallel::ThreadPool pool(4);
  serve::ServiceOptions sopts;
  sopts.cache_entries = 2;
  sopts.max_inflight = 4;
  sopts.pool = &pool;
  serve::Service service(sopts);
  serve::Server server(service, serve::ServerOptions{});
  server.start();

  const std::string text = scenario_text(test::simple_scenario());
  serve::Json req = serve::Json::object();
  req.set("type", serve::Json::string("solve"));
  req.set("scenario", serve::Json::string(text));
  const std::string request = req.dump();

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  std::vector<std::string> first(4);
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&, i] {
      try {
        serve::Client client(server.port());
        const serve::Json resp =
            serve::parse_json(client.call(request));
        if (!resp.find("ok")->as_bool()) {
          failures.fetch_add(1);
          return;
        }
        first[i] = resp.find("placement_text")->as_string();
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (int i = 1; i < 4; ++i) EXPECT_EQ(first[i], first[0]);
  server.stop();
}

}  // namespace
}  // namespace hipo
