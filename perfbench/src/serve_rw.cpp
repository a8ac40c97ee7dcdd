// Workload `serve_rw`: an in-process serve::Server on loopback with a pool
// of 2 workers; two serve::Client connections each own one region-scaled
// paper scenario and run closed-loop cycles of 8 requests — a solve-by-text
// hit, 4 solve-by-key hits, an eval of the served placement, and two delta
// writes (move_device, then its inverse, so every cycle returns to the
// starting content hash).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "src/core/solver.hpp"
#include "src/model/io.hpp"
#include "src/obs/metrics.hpp"
#include "src/opt/delta.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/serve/hash.hpp"
#include "src/serve/server.hpp"
#include "src/serve/service.hpp"
#include "src/serve/wire.hpp"
#include "src/util/rng.hpp"

namespace perfbench {
namespace {

using hipo::serve::Json;

constexpr int kClients = 2;
constexpr int kRegionScale = 3;         // 120 m × 120 m, 18 obstacles
constexpr int kDeviceMultiplier = 36;   // 360 devices
constexpr int kChargerMultiplier = 27;  // 162 chargers
constexpr std::size_t kPoolWorkers = 2;
/// Distinct device moves per client; one input cycle is kMoves request
/// cycles, so a run covers whole input cycles.
constexpr int kMoves = 5;
/// Nominal seconds per request cycle (both clients run concurrently).
constexpr double kNominalCycleSeconds = 1.0;
/// Floor on input cycles: 5 × kMoves cycles give each run 100 writes, so
/// write_p90_ms rests on 10 samples beyond it.
constexpr int kMinInputCycles = 5;
constexpr int kSetupRepeats = 3;

enum class Kind { kSolveText, kSolveKey, kEval, kMove, kMoveBack };
constexpr Kind kCycle[] = {Kind::kSolveText, Kind::kSolveKey, Kind::kSolveKey,
                           Kind::kSolveKey,  Kind::kSolveKey, Kind::kEval,
                           Kind::kMove,      Kind::kMoveBack};

bool is_write(Kind k) { return k == Kind::kMove || k == Kind::kMoveBack; }

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string move_script(std::size_t device, hipo::geom::Vec2 to) {
  return "{\"op\": \"move_device\", \"index\": " + std::to_string(device) +
         ", \"x\": " + num(to.x) + ", \"y\": " + num(to.y) + "}\n";
}

std::string delta_request(const std::string& key, const std::string& script) {
  Json req = Json::object();
  req.set("type", Json::string("delta"));
  req.set("key", Json::string(key));
  req.set("script", Json::string(script));
  return req.dump();
}

/// A device move and its inverse, with the moved scenario's content hash.
struct Move {
  std::size_t device = 0;
  hipo::geom::Vec2 from, to;
  std::string script, back_script, moved_key;
};

/// Everything one client sends, generated from the seed.
struct Script {
  std::string text, key;
  std::string solve_text, solve_key;
  std::vector<Move> moves;
  hipo::model::Scenario::Config config;
};

Script make_script(const std::string& text, std::uint64_t seed) {
  Script sc;
  sc.text = text;
  const auto scenario = parse_scenario(text);
  sc.config = scenario.to_config();
  sc.key = hipo::serve::hash_to_key(hipo::serve::scenario_hash(scenario));
  Json req = Json::object();
  req.set("type", Json::string("solve"));
  req.set("scenario", Json::string(text));
  sc.solve_text = req.dump();
  req = Json::object();
  req.set("type", Json::string("solve"));
  req.set("key", Json::string(sc.key));
  sc.solve_key = req.dump();

  // Moved devices sit at least one invalidation radius (4·d_max, as in
  // opt::DeltaSolver) inside the region, so every write regenerates a whole
  // disk of tasks rather than a disk clipped by the region's edge. A region
  // too small for that (the 40 m paper area) moves any device.
  double d_max = 0.0;
  for (std::size_t q = 0; q < scenario.num_charger_types(); ++q) {
    d_max = std::max(d_max, scenario.charger_type(q).d_max);
  }
  const double margin = 4.0 * d_max + 2.0;
  const auto& region = scenario.region();
  std::vector<std::size_t> interior;
  for (std::size_t j = 0; j < scenario.num_devices(); ++j) {
    const auto p = scenario.device(j).pos;
    if (p.x >= region.lo.x + margin && p.x <= region.hi.x - margin &&
        p.y >= region.lo.y + margin && p.y <= region.hi.y - margin) {
      interior.push_back(j);
    }
  }
  if (interior.empty()) {
    for (std::size_t j = 0; j < scenario.num_devices(); ++j) interior.push_back(j);
  }
  hipo::Rng rng(seed);
  while (static_cast<int>(sc.moves.size()) < kMoves) {
    Move m;
    m.device = interior[static_cast<std::size_t>(rng.uniform() * interior.size())];
    m.from = scenario.device(m.device).pos;
    const double angle = rng.angle();
    const double dist = 1.0 + rng.uniform();
    m.to = {m.from.x + dist * std::cos(angle), m.from.y + dist * std::sin(angle)};
    if (!scenario.position_feasible(m.to)) continue;
    auto moved = sc.config;
    moved.devices[m.device].pos = m.to;
    m.moved_key = hipo::serve::hash_to_key(
        hipo::serve::scenario_hash(hipo::model::Scenario(std::move(moved))));
    m.script = move_script(m.device, m.to);
    m.back_script = move_script(m.device, m.from);
    sc.moves.push_back(std::move(m));
  }
  return sc;
}

/// The scenario a served key names: the base or one of the moves.
hipo::model::Scenario scenario_for_key(const Script& sc, const std::string& key) {
  auto config = sc.config;
  for (const auto& m : sc.moves) {
    if (m.moved_key == key) config.devices[m.device].pos = m.to;
  }
  return hipo::model::Scenario(std::move(config));
}

/// Response checks shared by the workload and the probe: a bad response is
/// recorded as a failure.
struct Checker {
  const Script* sc;
  /// Per-client tally (clients run on their own threads); merged after.
  Result result;
  /// placement_text served per scenario key.
  std::map<std::string, std::set<std::string>> served;
  std::vector<double> utilities;
  Json last_placement;
  double last_utility = 0.0;

  void check(Kind kind, const Move& m, const std::string& text,
             bool allow_miss) {
    Json resp;
    try {
      resp = hipo::serve::parse_json(text);
    } catch (const std::exception& e) {
      result.fail(std::string("serve_rw: unparsable response: ") + e.what());
      return;
    }
    const Json* ok = resp.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      result.fail("serve_rw: error response: " + text.substr(0, 200));
      return;
    }
    auto str = [&](const char* k) {
      const Json* f = resp.find(k);
      return f != nullptr && f->is_string() ? f->as_string() : std::string();
    };
    auto number = [&](const char* k) {
      const Json* f = resp.find(k);
      return f != nullptr && f->is_number() ? f->as_number() : -1.0;
    };
    if (kind == Kind::kEval) {
      if (number("utility") != last_utility) {
        result.fail("serve_rw: eval utility differs from the served solve");
        return;
      }
      return;
    }
    const std::string want_key = kind == Kind::kMove ? m.moved_key : sc->key;
    if (str("key") != want_key) {
      result.fail("serve_rw: response key " + str("key") + " != " + want_key);
      return;
    }
    if (!is_write(kind) && !allow_miss && str("cache") != "hit") {
      result.fail("serve_rw: solve missed the cache in the timed phase");
      return;
    }
    served[want_key].insert(str("placement_text"));
    last_utility = number("utility");
    utilities.push_back(last_utility);
    if (const Json* p = resp.find("placement")) last_placement = *p;
  }

  std::string request(Kind kind, const Move& m) const {
    switch (kind) {
      case Kind::kSolveText: return sc->solve_text;
      case Kind::kSolveKey: return sc->solve_key;
      case Kind::kEval: {
        Json req = Json::object();
        req.set("type", Json::string("eval"));
        req.set("key", Json::string(sc->key));
        req.set("placement", last_placement);
        return req.dump();
      }
      case Kind::kMove: return delta_request(sc->key, m.script);
      case Kind::kMoveBack: return delta_request(m.moved_key, m.back_script);
    }
    return {};
  }
};

/// Latency samples of one client's timed phase (ms).
struct Samples {
  std::vector<double> cycles, reads, writes;
};

/// One client's closed loop over `cycles` request cycles.
void client_loop(hipo::serve::Client& client, Checker& checker, int cycles,
                 Samples& samples) {
  for (int c = 0; c < cycles; ++c) {
    const Move& m = checker.sc->moves[c % kMoves];
    double cycle_ms = 0.0;
    for (Kind kind : kCycle) {
      const std::string req = checker.request(kind, m);
      ++checker.result.attempted;
      std::string resp;
      const double ms = clock_ms([&] { resp = client.call(req); });
      checker.check(kind, m, resp, false);
      (is_write(kind) ? samples.writes : samples.reads).push_back(ms);
      cycle_ms += ms;
    }
    samples.cycles.push_back(cycle_ms);
  }
}

/// A started server with its pool, service and one client per script.
struct Deployment {
  hipo::parallel::ThreadPool pool{kPoolWorkers};
  std::unique_ptr<hipo::serve::Service> service;
  std::unique_ptr<hipo::serve::Server> server;
  std::vector<std::unique_ptr<hipo::serve::Client>> clients;

  explicit Deployment(std::size_t n_clients) {
    hipo::serve::ServiceOptions so;
    so.pool = &pool;
    service = std::make_unique<hipo::serve::Service>(so);
    server = std::make_unique<hipo::serve::Server>(*service,
                                                   hipo::serve::ServerOptions{});
    server->start();
    for (std::size_t k = 0; k < n_clients; ++k) {
      clients.push_back(std::make_unique<hipo::serve::Client>(server->port()));
    }
  }
  ~Deployment() {
    clients.clear();
    server->stop();
  }
};

/// Cold-solve every served scenario and compare each served placement_text.
void check_served(const std::vector<Script>& scripts,
                  const std::vector<Checker>& checkers, Result& result) {
  hipo::parallel::ThreadPool pool(4);
  hipo::core::SolveOptions so;
  so.pool = &pool;
  for (std::size_t k = 0; k < scripts.size(); ++k) {
    for (const auto& [key, texts] : checkers[k].served) {
      const auto scenario = scenario_for_key(scripts[k], key);
      if (hipo::serve::hash_to_key(hipo::serve::scenario_hash(scenario)) != key) {
        result.fail("serve_rw: no scenario reproduces served key " + key);
        continue;
      }
      std::ostringstream os;
      hipo::model::write_placement(os, hipo::core::solve(scenario, so).placement);
      for (const auto& t : texts) {
        if (t != os.str()) {
          result.fail("serve_rw: served placement differs from a cold solve");
        }
      }
    }
  }
}

std::vector<std::string> make_texts(std::uint64_t seed) {
  std::vector<std::string> texts;
  for (int k = 0; k < kClients; ++k) {
    texts.push_back(paper_scenario_text(hipo::seed_combine(seed, k),
                                        kRegionScale, kDeviceMultiplier,
                                        kChargerMultiplier));
  }
  return texts;
}

std::vector<Script> make_scripts(const std::vector<std::string>& texts,
                                 std::uint64_t seed) {
  std::vector<Script> scripts;
  for (std::size_t k = 0; k < texts.size(); ++k) {
    scripts.push_back(make_script(texts[k], hipo::seed_combine(seed, 100 + k)));
  }
  return scripts;
}

}  // namespace

Result run_serve_rw(const RunOptions& opt) {
  Result result;
  if (opt.trace) {
    const auto texts = make_texts(opt.seed);
    std::vector<Layers> probes;
    probes.push_back(probe_cold({texts[0]}, result));
    probes.push_back(probe_shard(texts[0], 1, result));
    probes.push_back(probe_serve(texts, kMoves, opt.seed, result));
    return finish_traced(opt, probes, std::move(result));
  }

  const int input_cycles = std::max(
      kMinInputCycles, static_cast<int>(std::lround(
                           opt.seconds / (kNominalCycleSeconds * kMoves))));
  const int cycles = input_cycles * kMoves;

  // Set-up, repeated: inputs, a started daemon with its pool, and the
  // warm-up pass — each client's cold cache fill. The last one stays up.
  std::vector<double> setup_s;
  std::vector<Script> scripts;
  std::vector<Checker> checkers;
  std::unique_ptr<Deployment> dep;
  std::vector<Samples> samples(kClients);
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    dep.reset();
    Spans::Scope setup("setup");
    scripts = make_scripts(make_texts(opt.seed), opt.seed);
    for (const auto& c : checkers) result.merge(c.result);
    checkers.clear();
    for (const auto& sc : scripts) checkers.push_back({&sc, {}, {}, {}, {}, 0.0});
    dep = std::make_unique<Deployment>(kClients);
    std::vector<std::thread> fills;
    for (int k = 0; k < kClients; ++k) {
      fills.emplace_back([&, k] {
        ++checkers[k].result.attempted;
        checkers[k].check(Kind::kSolveText, scripts[k].moves[0],
                          dep->clients[k]->call(scripts[k].solve_text), true);
      });
    }
    for (auto& t : fills) t.join();
    setup_s.push_back(setup.elapsed_ms() / 1e3);
  }
  for (auto& c : checkers) c.utilities.clear();

  Spans::Scope timed_phase("timed");
  std::vector<std::thread> threads;
  for (int k = 0; k < kClients; ++k) {
    threads.emplace_back([&, k] {
      client_loop(*dep->clients[k], checkers[k], cycles, samples[k]);
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = timed_phase.elapsed_ms() / 1e3;
  const double peak_mb = self_peak_rss_mb();
  dep.reset();
  for (const auto& c : checkers) result.merge(c.result);
  check_served(scripts, checkers, result);

  // An op is one client's whole request cycle, which returns its scenario
  // to the starting content hash.
  std::vector<double> op_ms, read_ms, write_ms, utilities;
  for (const auto& s : samples) {
    op_ms.insert(op_ms.end(), s.cycles.begin(), s.cycles.end());
    read_ms.insert(read_ms.end(), s.reads.begin(), s.reads.end());
    write_ms.insert(write_ms.end(), s.writes.begin(), s.writes.end());
  }
  for (const auto& c : checkers) {
    utilities.insert(utilities.end(), c.utilities.begin(), c.utilities.end());
  }
  double mean_utility = 0.0;
  for (double u : utilities) mean_utility += u / utilities.size();
  result.metrics["setup_s"] = {"s", median(setup_s), setup_s};
  result.metrics["ops_per_s"] = {"1/s", op_ms.size() / wall_s, {}};
  result.metrics["op_p50_ms"] = {"ms", median(op_ms), op_ms};
  result.metrics["read_p50_ms"] = {"ms", median(read_ms), read_ms};
  result.metrics["read_p90_ms"] = {"ms", quantile(read_ms, 0.9), read_ms};
  result.metrics["write_p50_ms"] = {"ms", median(write_ms), write_ms};
  result.metrics["write_p90_ms"] = {"ms", quantile(write_ms, 0.9), write_ms};
  result.metrics["peak_rss_mb"] = {"MiB", peak_mb, {}};
  result.metrics["utility"] = {"ratio", mean_utility, utilities};
  result.facts["cycles_per_client"] = cycles;
  result.facts["clients"] = kClients;
  return result;
}

Layers probe_serve(const std::vector<std::string>& texts, int cycles,
                   std::uint64_t seed, Result& result) {
  const std::vector<std::string> pool_counters[] = {
      {"pool.tasks"}, {"pool.help_steals"}, {"pool.idle_waits"}};
  double rtt_ms = 0, handle_ms = 0, untraced_handle_ms = 0, parse_ms = 0,
         dump_ms = 0, io_ms = 0, hash_ms = 0, warm_ms = 0, eval_ms = 0,
         delta_ms = 0;
  double reads = 0, text_hits = 0, solves = 0, evals = 0, deltas = 0,
         regenerated = 0, tasks_total = 0, erased = 0, inserted = 0,
         full_rebuilds = 0, requests = 0;
  double pool_totals[3] = {0, 0, 0};

  const auto scripts = make_scripts(texts, seed);
  Deployment dep(1);
  for (const auto& sc : scripts) {
    Checker checker{&sc, {}, {}, {}, {}, 0.0};
    hipo::opt::DeltaOptions dopt;
    dopt.workers = &dep.pool;
    hipo::opt::DeltaSolver solver(sc.config, dopt);
    {
      Spans::global().begin_op();
      Spans::Scope op("serve.cold_fill");
      ++checker.result.attempted;
      checker.check(Kind::kSolveText, sc.moves[0],
                    dep.clients[0]->call(sc.solve_text), true);
    }
    for (int c = 0; c < cycles; ++c) {
      const Move& m = sc.moves[c % kMoves];
      for (Kind kind : kCycle) {
        const std::string req = checker.request(kind, m);
        ++checker.result.attempted;
        ++requests;
        if (is_write(kind)) {
          Spans::global().begin_op();
          Spans::Scope op("serve.write");
          std::uint64_t before[3];
          for (int p = 0; p < 3; ++p) before[p] = counter_total(pool_counters[p]);
          std::string resp;
          timed("serve.delta_rtt", [&] { resp = dep.clients[0]->call(req); });
          for (int p = 0; p < 3; ++p) {
            pool_totals[p] += counter_total(pool_counters[p]) - before[p];
          }
          checker.check(kind, m, resp, false);
          const auto ops = hipo::opt::parse_delta_script(
              kind == Kind::kMove ? m.script : m.back_script);
          hipo::opt::DeltaStats st;
          delta_ms += timed("opt.delta_apply", [&] { st = solver.apply(ops[0]); });
          ++deltas;
          regenerated += st.tasks_regenerated;
          tasks_total += st.tasks_total;
          erased += st.rows_erased;
          inserted += st.rows_inserted;
          full_rebuilds += st.full_rebuild ? 1 : 0;
          continue;
        }
        // Untraced handle time of the same read, for the overhead ratio.
        hipo::obs::set_metrics_enabled(false);
        Spans::global().enable(false);
        std::string untraced;
        untraced_handle_ms += clock_ms([&] { untraced = dep.service->handle(req); });
        hipo::obs::set_metrics_enabled(true);
        Spans::global().enable(true);

        Spans::global().begin_op();
        Spans::Scope op("serve.read");
        ++reads;
        std::uint64_t before[3];
        for (int p = 0; p < 3; ++p) before[p] = counter_total(pool_counters[p]);
        std::string resp, handled;
        rtt_ms += timed("serve.rtt", [&] { resp = dep.clients[0]->call(req); });
        handle_ms += timed("serve.handle", [&] { handled = dep.service->handle(req); });
        for (int p = 0; p < 3; ++p) {
          pool_totals[p] += counter_total(pool_counters[p]) - before[p];
        }
        parse_ms += timed("serve.wire_parse", [&] { hipo::serve::parse_json(req); });
        const Json parsed = hipo::serve::parse_json(resp);
        dump_ms += timed("serve.wire_dump", [&] { parsed.dump(); });
        if (kind == Kind::kSolveText) {
          ++text_hits;
          std::optional<hipo::model::Scenario> s;
          io_ms += timed("model.io_parse", [&] { s.emplace(parse_scenario(sc.text)); });
          hash_ms += timed("serve.hash", [&] { hipo::serve::scenario_hash(*s); });
        }
        if (kind == Kind::kEval) {
          ++evals;
          hipo::model::Placement placement;
          // The eval request carries the placement the last solve served.
          for (const auto& row : checker.last_placement.as_array()) {
            const auto& v = row.as_array();
            placement.push_back({{v[0].as_number(), v[1].as_number()},
                                 v[2].as_number(),
                                 static_cast<std::size_t>(v[3].as_number())});
          }
          eval_ms += timed("model.eval", [&] {
            solver.scenario().placement_utility(placement);
          });
        } else {
          ++solves;
          warm_ms += timed("opt.warm_greedy", [&] {
            hipo::opt::select_strategies(solver.scenario(), solver.matrix(),
                                         hipo::opt::GreedyMode::kLazyGlobal,
                                         hipo::opt::ObjectiveKind::kUtility,
                                         &dep.pool);
          });
        }
        // The same read went through handle() twice more; check each reply.
        checker.result.attempted += 2;
        checker.check(kind, m, untraced, false);
        checker.check(kind, m, handled, false);
        checker.check(kind, m, resp, false);
      }
    }
    result.merge(checker.result);
  }
  const auto stats = dep.service->stats();
  const double lookups =
      static_cast<double>(stats.cache.hits + stats.cache.misses);

  Layers l;
  l["serve.rtt_ms"] = {"ms", rtt_ms / reads, {}};
  l["serve.handle_ms"] = {"ms", handle_ms / reads, {}};
  l["serve.transport_ms"] = {"ms", (rtt_ms - handle_ms) / reads, {}};
  l["serve.wire_parse_ms"] = {"ms", parse_ms / reads, {}};
  l["serve.wire_dump_ms"] = {"ms", dump_ms / reads, {}};
  l["model.io_parse_ms"] = {"ms", io_ms / text_hits, {}};
  l["serve.hash_ms"] = {"ms", hash_ms / text_hits, {}};
  l["opt.warm_greedy_ms"] = {"ms", warm_ms / solves, {}};
  l["model.eval_ms"] = {"ms", eval_ms / evals, {}};
  l["opt.delta_apply_ms"] = {"ms", delta_ms / deltas, {}};
  l["opt.delta_tasks_regenerated"] = {"count", regenerated / deltas, {}};
  l["opt.delta_tasks_total"] = {"count", tasks_total / deltas, {}};
  l["opt.delta_rows_erased"] = {"count", erased / deltas, {}};
  l["opt.delta_rows_inserted"] = {"count", inserted / deltas, {}};
  l["opt.delta_full_rebuilds"] = {"count", full_rebuilds, {}};
  l["serve.cache_hit_ratio"] = {"ratio", stats.cache.hits / lookups, {}};
  l["pool.tasks"] = {"count", pool_totals[0] / requests, {}};
  l["pool.help_steals"] = {"count", pool_totals[1] / requests, {}};
  l["pool.idle_waits"] = {"count", pool_totals[2] / requests, {}};
  l["trace.overhead_ratio"] = {"ratio", handle_ms / untraced_handle_ms, {}};
  return l;
}

}  // namespace perfbench
