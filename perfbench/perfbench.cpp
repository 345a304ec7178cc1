// fdiam_perfbench: the repository benchmark (see README.md next to it).
//
//   fdiam_perfbench gen --workload W --seed N --dir D [--size full|tiny]
//   fdiam_perfbench run --workload W --seed N --dir D --seconds S
//                       --trace 0|1 [--threads T] [--size full|tiny]
//
// `gen` writes a workload's input files and its reference answers into D.
// `run` measures the program on those files only, through the library's
// public calls, and prints one result object as its last stdout line.
// It exits 1 when any answer is wrong or any request fails.

#include <malloc.h>
#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "baselines/baselines.hpp"
#include "bfs/bfs.hpp"
#include "bfs/msbfs.hpp"
#include "core/fdiam.hpp"
#include "gen/generators.hpp"
#include "graph/edge_list.hpp"
#include "io/io.hpp"
#include "loadgen.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using fdiam::Csr;
using fdiam::DiameterResult;
using fdiam::dist_t;
using fdiam::vid_t;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workload definitions

enum class Workload { kKronSolve, kRoadFile };

/// Input sizes; `--size tiny` is the self-check's.
struct Sizes {
  int kron_scale;
  vid_t road_grid;
  int rmat_scale;
  std::size_t warm_up_requests;
};

constexpr Sizes kFull{16, 768, 16, 200};
constexpr Sizes kTiny{10, 48, 10, 40};

// The graphs are fixed instances, as the paper's inputs are: F-Diam's
// work depends on each graph's periphery, and between generator seeds it
// swings 2,208-4,136 BFS calls on Kronecker s16 and 28-76 on the road map,
// so seed-drawn graphs would measure that lottery, not the program. The
// run seed draws what the program treats as data: the arc-line order of
// the .gr file and the served query stream.
constexpr std::uint64_t kKronSeed = 1;
constexpr std::uint64_t kRoadMapSeed = 7;  // the map with diameter 2,249
constexpr std::uint64_t kServeSeed = 0x5eed;  // as in bench/bench_serve

// Served queries: three open-loop rates, run as interleaved one-second
// blocks (low, mid, high, low, ...) between the solve cycles, so that a
// slow spell of the shared host lands on every rate and on the solves
// alike instead of on whichever phase it happened to overlap. The rates
// stay below one server's capacity (about 575 qps with 4 connections):
// past it, latency grows with the run length rather than with the cost
// of a request.
struct Rate {
  const char* name;
  double qps;
};
constexpr Rate kRates[] = {{"low", 100.0}, {"mid", 200.0}, {"high", 300.0}};
constexpr double kBlockSeconds = 1.0;
constexpr double kSloMs = 20.0;  // p99 limit for max_qps_slo
constexpr int kServerSetups = 5;
constexpr std::size_t kCheckedPerBlock = 32;

const char* graph_file(Workload w) {
  return w == Workload::kKronSolve ? "graph.csrbin" : "graph.gr";
}

// ---------------------------------------------------------------------------
// Small helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The highest percentile (at most 99) that still has ten samples
/// beyond it, so a tail figure always rests on more than one sample.
double tail_q(std::size_t n) {
  if (n <= 10) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

/// Peak resident set since the last reset_peak_rss(), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Return freed heap to the kernel and restart the peak-RSS mark, so the
/// next peak_rss_mb() covers one solve cycle or one serving session
/// rather than everything the process did before it.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

std::string json_escape(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// ---------------------------------------------------------------------------
// gen

/// DIMACS .gr text with every undirected edge as two arcs, in a seeded
/// random line order with random weights (the reader ignores weights).
void write_shuffled_dimacs(const Csr& g, const fs::path& path,
                           std::uint64_t seed) {
  std::vector<std::pair<vid_t, vid_t>> arcs;
  arcs.reserve(g.num_arcs());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    for (vid_t w : g.neighbors(v)) arcs.emplace_back(v, w);
  }
  fdiam::Rng rng(seed);
  for (std::size_t i = arcs.size(); i > 1; --i) {
    std::swap(arcs[i - 1], arcs[rng.below(i)]);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path.string());
  std::fprintf(f, "c fdiam perfbench road map, arc order seed %llu\n",
               static_cast<unsigned long long>(seed));
  std::fprintf(f, "p sp %u %zu\n", g.num_vertices(), arcs.size());
  std::string buf;
  buf.reserve(1 << 20);
  char line[64];
  for (const auto& [u, v] : arcs) {
    const int len = std::snprintf(line, sizeof line, "a %u %u %llu\n", u + 1,
                                  v + 1,
                                  static_cast<unsigned long long>(1 + rng.below(1000)));
    buf.append(line, static_cast<std::size_t>(len));
    if (buf.size() > (1u << 20) - 64) {
      std::fwrite(buf.data(), 1, buf.size(), f);
      buf.clear();
    }
  }
  std::fwrite(buf.data(), 1, buf.size(), f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path.string());
}

int cmd_gen(Workload w, std::uint64_t seed, const fs::path& dir,
            const Sizes& sz) {
  fs::create_directories(dir);
  Csr g;
  fdiam::BaselineResult ref;
  if (w == Workload::kKronSolve) {
    g = fdiam::make_kronecker(sz.kron_scale, 16.0, kKronSeed);
    fdiam::io::write_binary(g, dir / graph_file(w));
    ref = fdiam::ifub_diameter(g, {.parallel = true});
  } else {
    fdiam::RoadOptions opt;
    opt.grid_width = opt.grid_height = sz.road_grid;
    g = fdiam::make_road_network(opt, kRoadMapSeed);
    write_shuffled_dimacs(g, dir / graph_file(w), seed);
    // iFUB needs 2-110 s on these maps; the Akiba-style bounding
    // baseline answers the same question in about 2.5 s.
    ref = fdiam::graph_diameter(g);
  }
  const Csr served = fdiam::make_rmat(sz.rmat_scale, 8.0, 0.57, 0.19, 0.19, kServeSeed);
  fdiam::io::write_binary(served, dir / "serve.csrbin");
  std::ofstream out(dir / "reference.txt");
  out << "solve_diameter " << ref.diameter << "\n"
      << "solve_vertices " << g.num_vertices() << "\n";
  if (!out) throw std::runtime_error("cannot write reference.txt");
  std::fprintf(stderr, "gen: %s n=%u arcs=%llu reference diameter %d\n",
               graph_file(w), g.num_vertices(),
               static_cast<unsigned long long>(g.num_arcs()), ref.diameter);
  return 0;
}

// ---------------------------------------------------------------------------
// run: the file-to-answer path

struct Reference {
  dist_t diameter = 0;
  vid_t vertices = 0;
};

Reference read_reference(const fs::path& dir) {
  std::ifstream in(dir / "reference.txt");
  if (!in) throw std::runtime_error("missing reference.txt in " + dir.string());
  std::map<std::string, long long> kv;
  std::string key;
  long long value = 0;
  while (in >> key >> value) kv[key] = value;
  Reference r;
  r.diameter = static_cast<dist_t>(kv.at("solve_diameter"));
  r.vertices = static_cast<vid_t>(kv.at("solve_vertices"));
  return r;
}

/// Tally of answers: every solve and every served request is one attempt.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 10) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
  }
};

Csr load_graph(Workload w, const fs::path& file) {
  return w == Workload::kKronSolve ? fdiam::io::map_binary(file)
                                   : fdiam::io::read_dimacs(file);
}

/// Off the clock: the diameter must equal the reference and the witness
/// must realize it.
void check_solve(const Csr& g, const DiameterResult& r, const Reference& ref,
                 Tally& tally) {
  bool ok = !r.timed_out && r.diameter == ref.diameter &&
            g.num_vertices() == ref.vertices && r.witness < g.num_vertices();
  if (ok) {
    std::vector<dist_t> dist;
    ok = fdiam::bfs_distances_serial(g, r.witness, dist) == r.diameter;
  }
  tally.record(ok, "solve: diameter " + std::to_string(r.diameter) +
                       " witness " + std::to_string(r.witness) +
                       ", reference " + std::to_string(ref.diameter));
}

using WorkKey = std::tuple<std::uint64_t, std::uint64_t, vid_t>;

WorkKey work_key(const DiameterResult& r) {
  return {r.stats.bfs_calls, r.bfs.edges_examined, r.witness};
}

struct LevelTotals {
  double topdown_s = 0.0;
  double bottomup_s = 0.0;
  std::uint64_t edges = 0;
  std::vector<double> level_us;
};

/// Solver hooks that turn stage and level completions into spans, and
/// sum the levels into `totals` when given.
fdiam::FDiamOptions traced_options(Spans& spans, LevelTotals* totals) {
  fdiam::FDiamOptions opt;
  opt.trace = [&spans](const fdiam::FDiamEvent& e) {
    using K = fdiam::FDiamEvent::Kind;
    const char* name = nullptr;
    switch (e.kind) {
      case K::kInitialBound: name = "core.init"; break;
      case K::kWinnow: name = "core.winnow"; break;
      case K::kChainsProcessed: name = "core.chain"; break;
      case K::kEccentricity: name = "core.ecc"; break;
      case K::kEliminate: name = "core.eliminate"; break;
      case K::kExtendRegions: name = "core.extend"; break;
      default: return;
    }
    if (e.seconds <= 0.0) return;
    const double end = now_s();
    spans.add(name, "core", end - e.seconds, end);
  };
  opt.level_profile = [&spans, totals](const fdiam::BfsLevelProfile& p) {
    const double end = now_s();
    spans.add(p.bottom_up ? "bfs.level.bottomup" : "bfs.level.topdown", "bfs",
              end - p.micros * 1e-6, end);
    if (totals == nullptr) return;
    (p.bottom_up ? totals->bottomup_s : totals->topdown_s) += p.micros * 1e-6;
    totals->edges += p.edges;
    totals->level_us.push_back(p.micros);
  };
  return opt;
}

/// Everything one run shares: inputs, answer tally, and spans.
struct Context {
  Workload workload;
  fs::path dir;
  std::uint64_t seed;
  int threads;  ///< OpenMP team size of every solve and sweep
  Reference ref;
  Tally tally;
  Spans spans;
};

struct SolvePart {
  std::vector<double> load_s, answer_s, solve_s;
  std::set<WorkKey> variants;
  DiameterResult last;  // a warm untraced solve, for exact counters
  double file_mb = 0.0;
  // Traced run only.
  double traced_answer_s = 0.0, traced_solve_s = 0.0;
  DiameterResult single_thread;
  LevelTotals levels;
  double build_s = 0.0;
};

/// Runs `f` on a new thread with an OpenMP team of `threads`. libgomp
/// keeps an idle team for every thread that has used OpenMP, and once
/// its threads outnumber the CPUs it cuts barrier spinning short. A solve
/// beside the server sweep thread's idle team ran 1.2-3x slower than
/// alone, and served latency suffered beside the solver's team. So solves
/// run on a thread that exits with its team, and a server lives only
/// while queries are served: neither path shares the process with the
/// other's team, as fdiam_cli and fdiam_serve never do.
template <class F>
void on_fresh_thread(int threads, F&& f) {
  std::exception_ptr error;
  std::thread t([&] {
    try {
      omp_set_num_threads(threads);
      f();
    } catch (...) {
      error = std::current_exception();
    }
  });
  t.join();
  if (error) std::rethrow_exception(error);
}

/// One cycle = what one fdiam_cli invocation pays (load + cold solve),
/// then a warm repeat solve on the loaded graph.
void solve_cycle(Context& ctx, SolvePart& part, bool traced) {
  const fs::path file = ctx.dir / graph_file(ctx.workload);
  part.file_mb = static_cast<double>(fs::file_size(file)) / 1e6;
  fdiam::FDiamOptions opt =
      traced ? traced_options(ctx.spans, nullptr) : fdiam::FDiamOptions{};
  Spans* sp = traced ? &ctx.spans : nullptr;
  double t0 = now_s();
  Csr g = [&] {
    ScopedSpan s(sp, "io.load", "io");
    return load_graph(ctx.workload, file);
  }();
  const double load = now_s() - t0;
  t0 = now_s();
  DiameterResult cold = [&] {
    ScopedSpan s(sp, "core.solve", "core");
    return fdiam::fdiam_diameter(g, opt);
  }();
  const double answer = load + (now_s() - t0);
  check_solve(g, cold, ctx.ref, ctx.tally);
  if (traced) opt = traced_options(ctx.spans, &part.levels);
  t0 = now_s();
  DiameterResult warm = [&] {
    ScopedSpan s(sp, "core.solve", "core");
    return fdiam::fdiam_diameter(g, opt);
  }();
  const double solve = now_s() - t0;
  check_solve(g, warm, ctx.ref, ctx.tally);
  if (traced) {
    part.traced_answer_s = answer;
    part.traced_solve_s = solve;
    return;
  }
  part.load_s.push_back(load);
  part.answer_s.push_back(answer);
  part.solve_s.push_back(solve);
  part.variants.insert(work_key(cold));
  part.variants.insert(work_key(warm));
  part.last = warm;
}

/// Traced run only: the single-threaded solve whose exact work a
/// thread-count-independent solver must match, and a timed CSR build
/// from the graph's arc list.
void solve_extras(Context& ctx, SolvePart& part) {
  Csr g = load_graph(ctx.workload, ctx.dir / graph_file(ctx.workload));
  const int team = omp_get_max_threads();
  omp_set_num_threads(1);
  part.single_thread = fdiam::fdiam_diameter(g);
  omp_set_num_threads(team);
  check_solve(g, part.single_thread, ctx.ref, ctx.tally);

  fdiam::EdgeList edges(g.num_vertices());
  edges.reserve(g.num_arcs());
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    for (vid_t u : g.neighbors(v)) edges.add(v, u);
  }
  const double t0 = now_s();
  const Csr rebuilt = Csr::from_edges(std::move(edges));
  part.build_s = now_s() - t0;
  ctx.spans.add("graph.build", "graph", t0, t0 + part.build_s);
  ctx.tally.record(rebuilt.num_arcs() == g.num_arcs(), "graph.build: arc count changed");
}

// ---------------------------------------------------------------------------
// run: the served path

struct ServePart {
  std::vector<double> setup_s;
  std::vector<Block> blocks;
  std::map<std::string, double> registry;
  double sweep_ms_p50 = 0.0;
  double request_ms_p50 = 0.0;
  // Traced run only.
  double msbfs_b1_ms = 0.0, msbfs_b4_ms = 0.0;
  double parse_us = 0.0;
};

std::unique_ptr<fdiam::serve::Server> start_server(const fs::path& dir, int i) {
  fdiam::serve::ServerOptions opt;
  // Relative to the working directory: AF_UNIX paths are limited to
  // about 107 bytes and the checkout may sit deep in the file system.
  opt.socket_path = dir / ("s" + std::to_string(i) + ".sock");
  fs::remove(opt.socket_path);
  auto server = std::make_unique<fdiam::serve::Server>(opt);
  server->add_graph("bench", dir / "serve.csrbin");
  server->start();
  return server;
}

/// Set-up as a user waits for it: construction, add_graph, start, and
/// the first ping answered.
void server_setups(Context& ctx, ServePart& part) {
  for (int i = 0; i < kServerSetups; ++i) {
    const double t0 = now_s();
    auto server = start_server(ctx.dir, i);
    fdiam::serve::Client c;
    const bool ok = c.connect(server->socket_path().string()) &&
                    fdiam::obs::json_lookup(c.ping(1), "ok") == "true";
    part.setup_s.push_back(now_s() - t0);
    ctx.tally.record(ok, "server set-up ping");
    c.close();
    server->stop();
  }
}

/// A running server with connected load threads. A session lives only
/// through a stretch of serve rounds: see on_fresh_thread().
struct ServeSession {
  std::unique_ptr<fdiam::serve::Server> server;
  std::unique_ptr<LoadGen> gen;
};

ServeSession open_session(Context& ctx, const Sizes& sz, int connections) {
  ServeSession s;
  s.server = start_server(ctx.dir, kServerSetups);
  const vid_t n = s.server->store().get("bench")->graph().num_vertices();
  s.gen = std::make_unique<LoadGen>(*s.server, "bench", n, connections, ctx.seed);
  if (!s.gen->connect()) throw std::runtime_error("load generator cannot connect");
  s.gen->warm_up(sz.warm_up_requests);
  return s;
}

/// One block per rate. The run's first round fires the reloads, one per
/// rate.
void serve_round(ServeSession& s, ServePart& part) {
  const bool reload = part.blocks.size() < std::size(kRates);
  for (const Rate& r : kRates) {
    part.blocks.push_back(
        s.gen->run_block(r.name, r.qps, kBlockSeconds, part.blocks.size() + 1, reload));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void close_session(ServeSession& s, ServePart& part) {
  fdiam::obs::MetricRegistry& reg = s.server->registry();
  for (const auto& [name, value] : reg.snapshot_counters()) {
    part.registry[name] += static_cast<double>(value);
  }
  part.sweep_ms_p50 = reg.histogram("serve.sweep.seconds").snapshot().quantile(0.5) * 1e3;
  part.request_ms_p50 =
      reg.histogram("serve.request.seconds.distance").snapshot().quantile(0.5) * 1e3;
  s.gen.reset();
  s.server->stop();
  s.server.reset();
}

/// Median per-sweep ms of msbfs_point_queries with `b` sources.
double msbfs_sweep_ms(const Csr& g, int b, std::uint64_t seed, Spans& spans) {
  fdiam::Rng rng(seed);
  std::vector<double> ms;
  for (int rep = 0; rep < 41; ++rep) {
    std::vector<vid_t> sources;
    std::vector<fdiam::MsbfsTarget> targets;
    for (int i = 0; i < b; ++i) {
      sources.push_back(static_cast<vid_t>(rng.below(g.num_vertices())));
      for (int t = 0; t < 3; ++t) {
        targets.push_back({static_cast<std::uint32_t>(i),
                           static_cast<vid_t>(rng.below(g.num_vertices()))});
      }
    }
    const double t0 = now_s();
    (void)fdiam::msbfs_point_queries(g, sources, targets, true);
    const double t1 = now_s();
    if (rep > 0) ms.push_back((t1 - t0) * 1e3);  // rep 0 warms the team
    spans.add(b == 1 ? "msbfs.sweep.b1" : "msbfs.sweep.b4", "bfs", t0, t1);
  }
  return median(ms);
}

/// Median parse_request cost per payload over the run's own payloads.
double parse_us(const std::vector<Block>& blocks, Spans& spans) {
  std::vector<double> per_call;
  std::size_t count = 0;
  for (const Block& b : blocks) count += b.requests.size();
  for (int rep = 0; rep < 15; ++rep) {
    std::string error;
    std::size_t parsed = 0;
    const double t0 = now_s();
    for (const Block& b : blocks) {
      for (const PointRequest& r : b.requests) {
        parsed += fdiam::serve::parse_request(r.payload, error).has_value();
      }
    }
    const double t1 = now_s();
    spans.add("protocol.parse", "protocol", t0, t1);
    if (parsed != count) throw std::runtime_error("parse_request rejected a payload");
    per_call.push_back((t1 - t0) * 1e6 / static_cast<double>(std::max<std::size_t>(count, 1)));
  }
  return median(per_call);
}

/// Off the clock: re-check a seeded sample of served answers with a
/// serial BFS, and count every failed request and reload.
void check_served(const Csr& g, const Block& b, std::uint64_t seed, Tally& tally) {
  fdiam::Rng rng(seed);
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < std::min(kCheckedPerBlock, b.records.size()); ++i) {
    sample.push_back(static_cast<std::size_t>(rng.below(b.records.size())));
  }
  std::vector<bool> wrong(b.records.size(), false);
  std::vector<dist_t> dist;
  for (std::size_t k : sample) {
    const PointRequest& r = b.requests[k];
    if (!b.records[k].ok) continue;
    const dist_t ecc = fdiam::bfs_distances_serial(g, r.u, dist);
    wrong[k] = b.records[k].value != (r.eccentricity ? ecc : dist[r.v]);
  }
  for (std::size_t k = 0; k < b.records.size(); ++k) {
    tally.record(b.records[k].ok && !wrong[k],
                 std::string("served ") + b.name + " request " + b.requests[k].payload);
  }
  tally.record(b.reload_ok, std::string("reload during a ") + b.name + " block");
}

/// Off the clock, after the last session: answer checks, and in the
/// traced run the request spans and the sweep and parse timings.
void finish_serving(Context& ctx, ServePart& part, bool trace) {
  const Csr g = fdiam::io::map_binary(ctx.dir / "serve.csrbin");
  for (std::size_t i = 0; i < part.blocks.size(); ++i) {
    check_served(g, part.blocks[i], ctx.seed * 1000 + i, ctx.tally);
  }
  if (!trace) return;
  for (const Block& b : part.blocks) {
    const int block = ctx.spans.add("loadgen.block", "loadgen", b.start, b.start + b.seconds());
    for (std::size_t k = 0; k < b.records.size(); ++k) {
      const RequestRecord& r = b.records[k];
      ctx.spans.add_child("serve.request", "serve", r.sent, r.done, block, b.requests[k].id);
    }
  }
  on_fresh_thread(ctx.threads, [&] {
    part.msbfs_b1_ms = msbfs_sweep_ms(g, 1, ctx.seed, ctx.spans);
    part.msbfs_b4_ms = msbfs_sweep_ms(g, 4, ctx.seed + 1, ctx.spans);
  });
  part.parse_us = parse_us(part.blocks, ctx.spans);
}

// ---------------------------------------------------------------------------
// run: metrics

struct RateFigures {
  double p50 = 0.0, tail = 0.0, tail_q = 0.0, p90 = 0.0, qps = 0.0;
  std::size_t samples = 0;
  bool meets_slo = false;
};

/// Latency figures of one rate, pooled over its blocks.
RateFigures rate_figures(const std::vector<Block>& blocks, const std::string& name) {
  RateFigures f;
  std::vector<double> ms;
  double seconds = 0.0;
  bool backlog = false;
  std::size_t failures = 0;
  for (const Block& b : blocks) {
    if (b.name != name) continue;
    const std::vector<double> l = b.latencies_ms();
    ms.insert(ms.end(), l.begin(), l.end());
    seconds += b.seconds();
    failures += b.failures();
    // A growing backlog: the last tenth of a block misses the limit on
    // average.
    const std::size_t from = l.size() - l.size() / 10;
    double sum = 0.0;
    for (std::size_t i = from; i < l.size(); ++i) sum += l[i];
    if (l.size() > from && sum / static_cast<double>(l.size() - from) > kSloMs) backlog = true;
  }
  f.samples = ms.size();
  f.p50 = quantile(ms, 0.5);
  f.p90 = quantile(ms, 0.9);
  f.tail_q = tail_q(ms.size());
  f.tail = quantile(ms, f.tail_q);
  f.qps = seconds > 0 ? static_cast<double>(ms.size()) / seconds : 0.0;
  f.meets_slo = failures == 0 && !backlog && f.tail <= kSloMs;
  return f;
}

double max_qps_slo(const ServePart& v) {
  double best = 0.0;
  for (const Rate& r : kRates) {
    const RateFigures f = rate_figures(v.blocks, r.name);
    if (f.meets_slo) best = std::max(best, f.qps);
  }
  return best;
}

std::vector<Metric> end_to_end(const SolvePart& s, const ServePart& v, double rss_mb) {
  std::vector<Metric> m;
  m.push_back({"setup_s", median(s.load_s) + median(v.setup_s), "s"});
  m.push_back({"answer_s", median(s.answer_s), "s"});
  m.push_back({"solve_s", median(s.solve_s), "s"});
  m.push_back({"peak_rss_mb", rss_mb, "MB"});
  for (const Rate& r : kRates) {
    m.push_back({std::string("p50_ms_") + r.name, rate_figures(v.blocks, r.name).p50, "ms"});
  }
  return m;
}

void add_counters(std::vector<Metric>& m, const DiameterResult& r) {
  auto count = [&](const char* name, double v) { m.push_back({name, v, "count"}); };
  count("bfs.traversals", static_cast<double>(r.bfs.traversals));
  count("bfs.levels", static_cast<double>(r.bfs.levels));
  count("bfs.topdown_levels", static_cast<double>(r.bfs.topdown_levels));
  count("bfs.bottomup_levels", static_cast<double>(r.bfs.bottomup_levels));
  count("bfs.edges_examined", static_cast<double>(r.bfs.edges_examined));
  count("bfs.vertices_visited", static_cast<double>(r.bfs.vertices_visited));
  count("core.bfs_calls", static_cast<double>(r.stats.bfs_calls));
  count("core.ecc_computations", static_cast<double>(r.stats.ecc_computations));
  count("core.eliminate_calls", static_cast<double>(r.stats.eliminate_calls));
  count("core.extension_calls", static_cast<double>(r.stats.extension_calls));
  count("core.removed_winnow", r.stats.removed_by_winnow);
  count("core.removed_eliminate", r.stats.removed_by_eliminate);
  count("core.removed_chain", r.stats.removed_by_chain);
  count("core.evaluated", r.stats.evaluated);
}

std::vector<Metric> per_layer(const SolvePart& s, const ServePart& v, const Spans& spans) {
  std::vector<Metric> m;
  const double load = median(s.load_s);
  m.push_back({"io.load_s", load, "s"});
  m.push_back({"io.load_mb_s", load > 0 ? s.file_mb / load : 0.0, "MB/s"});
  m.push_back({"graph.build_s", s.build_s, "s"});
  add_counters(m, s.last);
  const fdiam::FDiamStats& st = s.last.stats;
  m.push_back({"bfs.topdown_s", s.levels.topdown_s, "s"});
  m.push_back({"bfs.bottomup_s", s.levels.bottomup_s, "s"});
  m.push_back({"bfs.level_us_p50", median(s.levels.level_us), "us"});
  const double level_s = s.levels.topdown_s + s.levels.bottomup_s;
  m.push_back({"bfs.edges_per_s",
               level_s > 0 ? static_cast<double>(s.levels.edges) / level_s : 0.0, "1/s"});
  m.push_back({"core.init_s", st.time_init, "s"});
  m.push_back({"core.winnow_s", st.time_winnow, "s"});
  m.push_back({"core.chain_s", st.time_chain, "s"});
  m.push_back({"core.eliminate_s", st.time_eliminate, "s"});
  m.push_back({"core.ecc_s", st.time_ecc, "s"});
  m.push_back({"core.other_s", st.time_other(), "s"});
  m.push_back({"core.removed_per_ecc",
               st.ecc_computations > 0 ? static_cast<double>(st.removed_by_eliminate) /
                                             static_cast<double>(st.ecc_computations)
                                       : 0.0,
               "ratio"});
  m.push_back({"core.work_variants", static_cast<double>(s.variants.size()), "count"});
  m.push_back({"core.bfs_calls_1t", static_cast<double>(s.single_thread.stats.bfs_calls),
               "count"});
  m.push_back({"bfs.edges_examined_1t",
               static_cast<double>(s.single_thread.bfs.edges_examined), "count"});
  m.push_back({"msbfs.sweep_ms_b1", v.msbfs_b1_ms, "ms"});
  m.push_back({"msbfs.sweep_ms_b4", v.msbfs_b4_ms, "ms"});
  auto reg = [&v](const char* name) {
    const auto it = v.registry.find(name);
    return it != v.registry.end() ? it->second : 0.0;
  };
  const double sweeps = reg("serve.sweeps");
  m.push_back({"serve.sweeps", sweeps, "count"});
  m.push_back({"serve.occupancy", sweeps > 0 ? reg("serve.batched_queries") / sweeps : 0.0,
               "queries/sweep"});
  m.push_back({"serve.sweep_ms_p50", v.sweep_ms_p50, "ms"});
  m.push_back({"serve.request_ms_p50", v.request_ms_p50, "ms"});
  double depth = 0.0;
  std::vector<double> reload_ms, late_ms;
  double completed = 0.0;
  for (const Block& b : v.blocks) {
    depth = std::max(depth, b.queue_depth_max);
    if (b.reload_ms > 0) reload_ms.push_back(b.reload_ms);
    for (const RequestRecord& r : b.records) {
      late_ms.push_back((r.sent - r.due) * 1e3);
      completed += r.ok ? 1.0 : 0.0;
    }
  }
  m.push_back({"serve.queue_depth_max", depth, "count"});
  m.push_back({"serve.reload_ms", median(reload_ms), "ms"});
  m.push_back({"protocol.parse_us", v.parse_us, "us"});
  for (const Rate& r : kRates) {
    m.push_back({std::string("p99_ms_") + r.name, rate_figures(v.blocks, r.name).tail, "ms"});
  }
  m.push_back({"max_qps_slo", max_qps_slo(v), "1/s"});
  m.push_back({"loadgen.late_ms_p99", quantile(late_ms, 0.99), "ms"});
  m.push_back({"loadgen.sent", static_cast<double>(late_ms.size()), "count"});
  m.push_back({"loadgen.completed", completed, "count"});
  m.push_back({"trace.overhead_answer_s", s.traced_answer_s - median(s.answer_s), "s"});
  m.push_back({"trace.overhead_solve_s", s.traced_solve_s - median(s.solve_s), "s"});
  m.push_back({"trace.spans", static_cast<double>(spans.all().size()), "count"});
  const std::map<std::string, double> self = spans.self_seconds_by_layer();
  for (const char* layer : {"io", "graph", "core", "bfs", "serve", "protocol"}) {
    const auto it = self.find(layer);
    m.push_back({std::string("self.") + layer + "_s", it != self.end() ? it->second : 0.0,
                 "s"});
  }
  return m;
}

// ---------------------------------------------------------------------------
// main


struct Args {
  std::string cmd, workload, dir, size = "full";
  std::uint64_t seed = 1;
  double seconds = 30.0;
  int trace = 0;
  int threads = 0;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("usage: fdiam_perfbench gen|run --workload W ...");
  Args a;
  a.cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--dir") a.dir = val;
    else if (key == "--size") a.size = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = std::stoi(val);
    else if (key == "--threads") a.threads = std::stoi(val);
    else throw std::runtime_error("unknown option " + key);
  }
  if (a.dir.empty()) throw std::runtime_error("--dir is required");
  if (a.size != "full" && a.size != "tiny") throw std::runtime_error("--size full|tiny");
  return a;
}

Workload parse_workload(const std::string& name) {
  if (name == "kron_solve") return Workload::kKronSolve;
  if (name == "road_file") return Workload::kRoadFile;
  throw std::runtime_error("unknown workload '" + name + "'");
}

std::string info_line(const Args& a, const Context& ctx, const SolvePart& s,
                      const ServePart& v, int nproc, int connections) {
  const fdiam::obs::EnvInfo env = fdiam::obs::capture_env();
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
  std::string info =
      "{\"info\": {\"workload\": \"" + a.workload + "\", \"seed\": " + std::to_string(a.seed) +
      ", \"nproc\": " + std::to_string(nproc) +
      ", \"omp_team\": " + std::to_string(ctx.threads) + ", \"OMP_NUM_THREADS\": " +
      (omp_env ? "\"" + json_escape(omp_env) + "\"" : std::string("null")) +
      ", \"load_connections\": " + std::to_string(connections) + ", \"git_sha\": \"" +
      json_escape(env.git_sha) + "\", \"compiler\": \"" + json_escape(env.compiler) +
      "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"cpu\": \"" +
      json_escape(env.cpu_model) + "\"";
  info += ", \"solve_cycles\": " + std::to_string(s.answer_s.size());
  info += ", \"server_setups\": " + std::to_string(v.setup_s.size());
  info += ", \"serve_blocks\": " + std::to_string(v.blocks.size());
  info += ", \"core.bfs_calls\": " + std::to_string(s.last.stats.bfs_calls);
  info += ", \"bfs.edges_examined\": " + std::to_string(s.last.bfs.edges_examined);
  info += ", \"core.work_variants\": " + std::to_string(s.variants.size());
  info += ", \"failed_frac\": " +
          num(ctx.tally.attempted ? static_cast<double>(ctx.tally.failed) /
                                        static_cast<double>(ctx.tally.attempted)
                                  : 0.0);
  for (const Rate& r : kRates) {
    const RateFigures f = rate_figures(v.blocks, r.name);
    info += std::string(", \"rate_") + r.name + "\": {\"qps\": " + num(r.qps) +
            ", \"samples\": " + std::to_string(f.samples) + ", \"p50_ms\": " + num(f.p50) +
            ", \"p90_ms\": " + num(f.p90) + ", \"tail_percentile\": " + num(f.tail_q * 100) +
            ", \"tail_ms\": " + num(f.tail) + ", \"achieved_qps\": " + num(f.qps) +
            ", \"meets_slo\": " + (f.meets_slo ? "true" : "false") + "}";
  }
  info += ", \"max_qps_slo\": " + num(max_qps_slo(v)) + ", \"slo_ms\": " + num(kSloMs);
  for (const auto& [name, samples] :
       {std::pair<const char*, const std::vector<double>*>{"answer_s", &s.answer_s},
        {"solve_s", &s.solve_s}}) {
    info += std::string(", \"") + name + "_samples\": [";
    for (std::size_t i = 0; i < samples->size(); ++i) {
      info += (i ? ", " : "") + num((*samples)[i]);
    }
    info += "]";
  }
  return info + "}}";
}

int cmd_run(const Args& a, Workload w, const Sizes& sz) {
  // One heap arena, as in a process that allocates from one thread: the
  // solves run on short-lived threads (see on_fresh_thread), and with an
  // arena per thread the peak RSS of a road_file cycle read 197-237 MB
  // instead of about 125 MB.
  mallopt(M_ARENA_MAX, 1);
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int connections = nproc;
  const bool trace = a.trace != 0;
  Context ctx{w, a.dir, a.seed, a.threads > 0 ? a.threads : nproc, read_reference(a.dir),
              {}, {}};
  double rss_mb = 0.0;
  auto cycle = [&](SolvePart& part, bool traced) {
    reset_peak_rss();
    on_fresh_thread(ctx.threads, [&] { solve_cycle(ctx, part, traced); });
    rss_mb = std::max(rss_mb, peak_rss_mb());
  };

  SolvePart solves;
  ServePart serving;
  server_setups(ctx, serving);
  if (!trace) {
    // Alternate solve cycles and stretches of serve rounds, keeping their
    // time shares equal, until the run's time is up.
    double solve_t = 0.0, serve_t = 0.0;
    const double begin = now_s();
    while (now_s() - begin < a.seconds || solves.answer_s.empty() || serving.blocks.empty()) {
      double t0 = now_s();
      if (solve_t <= serve_t) {
        cycle(solves, false);
        solve_t += now_s() - t0;
        continue;
      }
      // A pause after the solves' CPU burst: without it the served
      // medians of a run split into two modes about 0.7 ms apart.
      std::this_thread::sleep_for(std::chrono::seconds(1));
      reset_peak_rss();
      ServeSession session = open_session(ctx, sz, connections);
      t0 = now_s();
      do {
        serve_round(session, serving);
      } while (serve_t + (now_s() - t0) < solve_t);
      serve_t += now_s() - t0;
      close_session(session, serving);
      rss_mb = std::max(rss_mb, peak_rss_mb());
    }
  } else {
    cycle(solves, false);
    cycle(solves, true);
    on_fresh_thread(ctx.threads, [&] { solve_extras(ctx, solves); });
    ServeSession session = open_session(ctx, sz, connections);
    const double begin = now_s();
    do {
      serve_round(session, serving);
    } while (now_s() - begin < 0.5 * a.seconds);
    close_session(session, serving);
  }
  finish_serving(ctx, serving, trace);

  // Informational line; the result object is the last line.
  std::printf("%s\n", info_line(a, ctx, solves, serving, nproc, connections).c_str());
  std::vector<Metric> metrics;
  if (trace) {
    ctx.spans.resolve();
    metrics = per_layer(solves, serving, ctx.spans);
    fs::create_directories(".bench_out");
    const std::string path = ".bench_out/" + a.workload + ".trace.json";
    ctx.spans.write_chrome_trace(path);
    std::fprintf(stderr, "trace: %zu spans written to %s\n", ctx.spans.all().size(),
                 path.c_str());
  } else {
    metrics = end_to_end(solves, serving, rss_mb);
  }
  const bool correct = ctx.tally.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ctx.tally.attempted),
              static_cast<unsigned long long>(ctx.tally.failed), metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args a = parse_args(argc, argv);
    const Workload w = parse_workload(a.workload);
    const Sizes& sz = a.size == "tiny" ? kTiny : kFull;
    if (a.cmd == "gen") return cmd_gen(w, a.seed, a.dir, sz);
    if (a.cmd == "run") return cmd_run(a, w, sz);
    throw std::runtime_error("unknown command '" + a.cmd + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fdiam_perfbench: error: %s\n", e.what());
    return 2;
  }
}
