#include "src/shard/runner.hpp"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/obs/phase.hpp"
#include "src/obs/stopwatch.hpp"
#include "src/serve/wire.hpp"
#include "src/util/error.hpp"

namespace hipo::shard {

namespace {

serve::Json row_json(const CandidatePool::RowRef& row) {
  serve::Json r = serve::Json::array();
  r.push(serve::Json::number(static_cast<double>(row.task)));
  r.push(serve::Json::number(static_cast<double>(row.strategy->type)));
  r.push(serve::Json::number(row.strategy->pos.x));
  r.push(serve::Json::number(row.strategy->pos.y));
  r.push(serve::Json::number(row.strategy->orientation));
  serve::Json cov = serve::Json::array();
  for (std::uint32_t j : row.covered) {
    cov.push(serve::Json::number(static_cast<double>(j)));
  }
  serve::Json pow = serve::Json::array();
  for (double p : row.powers) pow.push(serve::Json::number(p));
  r.push(std::move(cov));
  r.push(std::move(pow));
  return r;
}

void parse_row(const serve::Json& r, CandidatePool& pool) {
  const auto& a = r.as_array();
  HIPO_REQUIRE(a.size() == 7, "shard row frame: malformed row");
  pdcs::Candidate c;
  c.strategy.type = static_cast<std::size_t>(a[1].as_number());
  c.strategy.pos = {a[2].as_number(), a[3].as_number()};
  c.strategy.orientation = a[4].as_number();
  const auto& cov = a[5].as_array();
  const auto& pow = a[6].as_array();
  HIPO_REQUIRE(cov.size() == pow.size(),
               "shard row frame: covered/powers length mismatch");
  c.covered.reserve(cov.size());
  c.powers.reserve(pow.size());
  for (const auto& v : cov) {
    c.covered.push_back(static_cast<std::size_t>(v.as_number()));
  }
  for (const auto& v : pow) c.powers.push_back(v.as_number());
  pool.append(static_cast<std::uint32_t>(a[0].as_number()), c);
}

serve::Json stats_json(const ShardStats& st) {
  serve::Json s = serve::Json::object();
  s.set("seconds", serve::Json::number(st.seconds));
  s.set("rows", serve::Json::number(static_cast<double>(st.rows)));
  s.set("tile_backoffs",
        serve::Json::number(static_cast<double>(st.tile_backoffs)));
  s.set("final_tile_tasks",
        serve::Json::number(static_cast<double>(st.final_tile_tasks)));
  s.set("peak_bytes",
        serve::Json::number(static_cast<double>(st.peak_bytes)));
  serve::Json ts = serve::Json::array();
  for (double t : st.task_seconds) ts.push(serve::Json::number(t));
  s.set("task_seconds", std::move(ts));
  return s;
}

void parse_stats(const serve::Json& s, ShardStats& st) {
  const auto num = [&](const char* key) {
    const serve::Json* v = s.find(key);
    HIPO_REQUIRE(v != nullptr,
                 std::string("shard stats frame: missing ") + key);
    return v->as_number();
  };
  st.seconds = num("seconds");
  st.rows = static_cast<std::size_t>(num("rows"));
  st.tile_backoffs = static_cast<std::size_t>(num("tile_backoffs"));
  st.final_tile_tasks = static_cast<std::size_t>(num("final_tile_tasks"));
  st.peak_bytes = static_cast<std::size_t>(num("peak_bytes"));
  const serve::Json* ts = s.find("task_seconds");
  HIPO_REQUIRE(ts != nullptr, "shard stats frame: missing task_seconds");
  st.task_seconds.clear();
  for (const auto& v : ts->as_array()) {
    st.task_seconds.push_back(v.as_number());
  }
  st.tasks = st.task_seconds.size();
}

/// Worker body after fork: extract assigned shards single-threaded, stream
/// rows and stats over `fd`, then _exit. Never returns; all failures leave
/// through the error frame + _exit(1).
[[noreturn]] void run_worker(int fd, const model::Scenario& scenario,
                             const ShardPlan& plan, const RunnerOptions& opt,
                             const std::vector<std::size_t>& shard_ids) {
  try {
    for (std::size_t k : shard_ids) {
      CandidatePool pool(opt.tile.segment_entries);
      ShardStats st = extract_shard(scenario, plan, k, opt.extract, opt.tile,
                                    pool, /*pool=*/nullptr);
      serve::Json rows = serve::Json::array();
      std::size_t in_frame = 0;
      const auto flush = [&]() {
        if (in_frame == 0) return;
        serve::Json frame = serve::Json::object();
        frame.set("shard",
                  serve::Json::number(static_cast<double>(k)));
        frame.set("rows", std::move(rows));
        serve::write_frame_fd(fd, frame.dump());
        rows = serve::Json::array();
        in_frame = 0;
      };
      pool.for_each_row([&](const CandidatePool::RowRef& row) {
        rows.push(row_json(row));
        if (++in_frame >= std::max<std::size_t>(opt.rows_per_frame, 1)) {
          flush();
        }
      });
      flush();
      serve::Json frame = serve::Json::object();
      frame.set("shard", serve::Json::number(static_cast<double>(k)));
      frame.set("stats", stats_json(st));
      serve::write_frame_fd(fd, frame.dump());
    }
    ::close(fd);
    ::_exit(0);
  } catch (const std::exception& e) {
    try {
      serve::Json frame = serve::Json::object();
      frame.set("error", serve::Json::string(e.what()));
      serve::write_frame_fd(fd, frame.dump());
    } catch (...) {
    }
    ::close(fd);
    ::_exit(1);
  }
}

void run_processes(const model::Scenario& scenario, const ShardPlan& plan,
                   const RunnerOptions& opt,
                   std::vector<CandidatePool>& pools,
                   std::vector<ShardStats>& stats) {
  const std::size_t shards = plan.num_shards();
  const std::size_t procs = std::min(opt.processes, shards);
  std::vector<std::vector<std::size_t>> assigned(procs);
  for (std::size_t k = 0; k < shards; ++k) {
    assigned[k % procs].push_back(k);
  }

  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    bool open = false;
  };
  std::vector<Worker> workers;
  workers.reserve(procs);
  for (std::size_t w = 0; w < procs; ++w) {
    int pipe_fd[2];
    HIPO_REQUIRE(::pipe(pipe_fd) == 0,
                 std::string("shard runner: pipe: ") + std::strerror(errno));
    const pid_t pid = ::fork();
    HIPO_REQUIRE(pid >= 0,
                 std::string("shard runner: fork: ") + std::strerror(errno));
    if (pid == 0) {
      ::close(pipe_fd[0]);
      for (const Worker& prev : workers) ::close(prev.fd);
      run_worker(pipe_fd[1], scenario, plan, opt, assigned[w]);
    }
    ::close(pipe_fd[1]);
    workers.push_back({pid, pipe_fd[0], true});
  }

  // Drain frames with poll(): a worker stalled on a full pipe never blocks
  // the others' progress. Frames from different workers interleave freely;
  // rows land in per-shard pools, so the merge order is arrival-independent.
  std::string error;
  std::string payload;
  std::size_t open_fds = workers.size();
  std::vector<pollfd> poll_fds;
  while (open_fds > 0) {
    poll_fds.clear();
    for (const Worker& w : workers) {
      if (w.open) poll_fds.push_back({w.fd, POLLIN, 0});
    }
    const int rc = ::poll(poll_fds.data(),
                          static_cast<nfds_t>(poll_fds.size()), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw ConfigError(std::string("shard runner: poll: ") +
                        std::strerror(errno));
    }
    for (const pollfd& pf : poll_fds) {
      if ((pf.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Worker* w = nullptr;
      for (Worker& cand : workers) {
        if (cand.open && cand.fd == pf.fd) w = &cand;
      }
      if (w == nullptr) continue;
      bool more = false;
      try {
        more = serve::read_frame_fd(w->fd, opt.max_frame_bytes, payload);
      } catch (const std::exception& e) {
        if (error.empty()) error = e.what();
      }
      if (!more) {
        ::close(w->fd);
        w->open = false;
        --open_fds;
        continue;
      }
      const serve::Json frame = serve::parse_json(payload);
      if (const serve::Json* err = frame.find("error")) {
        if (error.empty()) error = err->as_string();
        continue;
      }
      const serve::Json* shard_v = frame.find("shard");
      HIPO_REQUIRE(shard_v != nullptr, "shard frame: missing shard id");
      const auto k = static_cast<std::size_t>(shard_v->as_number());
      HIPO_REQUIRE(k < shards, "shard frame: shard id out of range");
      if (const serve::Json* rows = frame.find("rows")) {
        for (const serve::Json& r : rows->as_array()) {
          parse_row(r, pools[k]);
        }
      } else if (const serve::Json* st = frame.find("stats")) {
        parse_stats(*st, stats[k]);
      }
    }
  }

  bool dirty_exit = false;
  for (const Worker& w : workers) {
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(w.pid, &status, 0);
    } while (r < 0 && errno == EINTR);
    if (r != w.pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      dirty_exit = true;
    }
  }
  if (!error.empty()) {
    throw ConfigError("shard worker failed: " + error);
  }
  HIPO_REQUIRE(!dirty_exit, "shard worker exited abnormally");
}

/// Free the merged pools and return the free heap pages to the OS. The
/// pools' segments and the frame parser's trees are freed in an order set
/// by frame arrival, so without the trim a caller that extracts
/// repeatedly keeps a different amount of freed memory resident after each
/// run, and its RSS creeps by a timing-dependent amount.
void release_pools(std::vector<CandidatePool>& pools) {
  std::vector<CandidatePool>().swap(pools);
#if defined(__GLIBC__)
  ::malloc_trim(0);
#endif
}

}  // namespace

pdcs::ExtractionResult merge_pools(const model::Scenario& scenario,
                                   std::vector<CandidatePool>& pools,
                                   const pdcs::ExtractOptions& opt,
                                   parallel::ThreadPool* pool) {
  std::size_t total = 0;
  for (const CandidatePool& p : pools) total += p.num_rows();
  std::vector<CandidatePool::RowRef> refs;
  refs.reserve(total);
  for (CandidatePool& p : pools) {
    p.for_each_row(
        [&](const CandidatePool::RowRef& row) { refs.push_back(row); });
  }
  // Owner-shard/lowest-index merge rule: all rows of a task live in exactly
  // one pool, in task output order, tasks ascending within their pool — so
  // a stable sort by task reproduces extract_all's device-order merge.
  std::stable_sort(refs.begin(), refs.end(),
                   [](const CandidatePool::RowRef& a,
                      const CandidatePool::RowRef& b) {
                     return a.task < b.task;
                   });
  std::vector<std::vector<pdcs::Candidate>> by_type(
      scenario.num_charger_types());
  for (const CandidatePool::RowRef& row : refs) {
    HIPO_ASSERT(row.strategy->type < by_type.size());
    by_type[row.strategy->type].push_back(CandidatePool::materialize(row));
  }
  return pdcs::finalize_by_type(std::move(by_type), refs.size(),
                                scenario.num_devices(), opt, pool);
}

pdcs::ExtractionResult extract_sharded(const model::Scenario& scenario,
                                       const RunnerOptions& opt,
                                       RunnerStats* stats_out) {
  HIPO_REQUIRE(opt.shards >= 1, "shard runner needs at least one shard");
  PlanOptions plan_opt;
  plan_opt.shards = opt.shards;
  plan_opt.halo_eps = opt.halo_eps;
  const ShardPlan plan(scenario, plan_opt);

  std::vector<CandidatePool> pools;
  pools.reserve(plan.num_shards());
  for (std::size_t k = 0; k < plan.num_shards(); ++k) {
    pools.emplace_back(opt.tile.segment_entries);
  }
  std::vector<ShardStats> stats(plan.num_shards());
  {
    obs::ScopedPhase phase("shard.extract");
    if (opt.processes >= 1) {
      run_processes(scenario, plan, opt, pools, stats);
    } else {
      for (std::size_t k = 0; k < plan.num_shards(); ++k) {
        stats[k] = extract_shard(scenario, plan, k, opt.extract, opt.tile,
                                 pools[k], opt.pool);
      }
    }
  }

  obs::Stopwatch merge_watch;
  pdcs::ExtractionResult result;
  std::size_t pool_bytes = 0;
  {
    obs::ScopedPhase phase("shard.merge");
    result = merge_pools(scenario, pools, opt.extract, opt.pool);
    for (const CandidatePool& p : pools) pool_bytes += p.bytes();
    release_pools(pools);
  }
  result.task_seconds.assign(scenario.num_devices(), 0.0);
  for (std::size_t k = 0; k < plan.num_shards(); ++k) {
    const auto& owned = plan.shard(k).owned;
    HIPO_REQUIRE(stats[k].task_seconds.size() == owned.size(),
                 "shard stats: task count mismatch");
    for (std::size_t i = 0; i < owned.size(); ++i) {
      result.task_seconds[owned[i]] = stats[k].task_seconds[i];
    }
  }

  if (stats_out != nullptr) {
    stats_out->shards = plan.num_shards();
    stats_out->processes = std::min(opt.processes, plan.num_shards());
    stats_out->shard_seconds.clear();
    stats_out->rows = 0;
    stats_out->tile_backoffs = 0;
    stats_out->peak_shard_bytes = 0;
    stats_out->pool_bytes = pool_bytes;
    for (std::size_t k = 0; k < plan.num_shards(); ++k) {
      stats_out->shard_seconds.push_back(stats[k].seconds);
      stats_out->rows += stats[k].rows;
      stats_out->tile_backoffs += stats[k].tile_backoffs;
      stats_out->peak_shard_bytes =
          std::max(stats_out->peak_shard_bytes, stats[k].peak_bytes);
    }
    stats_out->merge_seconds = merge_watch.seconds();
  }
  if (obs::metrics_enabled()) [[unlikely]] {
    obs::counter("shard.runs").bump();
    obs::counter("shard.workers")
        .bump(opt.processes >= 1 ? std::min(opt.processes, plan.num_shards())
                                 : 0);
  }
  return result;
}

}  // namespace hipo::shard
