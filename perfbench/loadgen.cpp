#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>

#include "obs/json.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace perfbench {

using fdiam::dist_t;
using fdiam::vid_t;

namespace {

void sleep_until_s(double t) {
  const double wait = t - now_s();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

}  // namespace

std::vector<double> Block::latencies_ms() const {
  std::vector<double> ms;
  ms.reserve(records.size());
  for (const RequestRecord& r : records) {
    ms.push_back(r.ok ? (r.done - r.due) * 1e3
                      : std::numeric_limits<double>::infinity());
  }
  return ms;
}

std::size_t Block::failures() const {
  return static_cast<std::size_t>(std::count_if(
      records.begin(), records.end(),
      [](const RequestRecord& r) { return !r.ok; }));
}

double Block::seconds() const {
  double last = start;
  for (const RequestRecord& r : records) last = std::max(last, r.done);
  return last - start;
}

bool parse_point_reply(const std::string& reply, const PointRequest& req,
                       dist_t& value) {
  if (reply.empty()) return false;
  const std::optional<std::string_view> ok = fdiam::obs::json_lookup(reply, "ok");
  if (!ok.has_value() || *ok != "true") return false;
  const std::optional<double> id = fdiam::obs::json_number(reply, "id");
  if (!id.has_value() || static_cast<std::uint64_t>(*id) != req.id) return false;
  const std::optional<double> v = fdiam::obs::json_number(
      reply, req.eccentricity ? "eccentricity" : "distance");
  if (!v.has_value()) return false;
  value = static_cast<dist_t>(*v);
  return true;
}

LoadGen::LoadGen(fdiam::serve::Server& server, std::string graph, vid_t n,
                 int connections, std::uint64_t seed)
    : server_(server), graph_(std::move(graph)), n_(n), seed_(seed) {
  for (int i = 0; i < connections; ++i) {
    clients_.push_back(std::make_unique<fdiam::serve::Client>());
  }
}

bool LoadGen::connect() {
  for (auto& c : clients_) {
    if (!c->connect(server_.socket_path().string())) return false;
  }
  return true;
}

std::vector<PointRequest> LoadGen::make_requests(std::size_t count,
                                                 std::uint64_t block_seed,
                                                 std::uint64_t first_id) const {
  fdiam::Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + block_seed);
  std::vector<PointRequest> reqs(count);
  for (std::size_t k = 0; k < count; ++k) {
    PointRequest& r = reqs[k];
    r.id = first_id + k;
    r.eccentricity = k % 4 == 3;
    r.u = static_cast<vid_t>(rng.below(n_));
    r.v = static_cast<vid_t>(rng.below(n_));
    r.payload = "{\"op\":\"" + std::string(r.eccentricity ? "eccentricity" : "distance") +
                "\",\"id\":" + std::to_string(r.id) + ",\"graph\":\"" + graph_ +
                "\",\"u\":" + std::to_string(r.u);
    if (!r.eccentricity) r.payload += ",\"v\":" + std::to_string(r.v);
    r.payload += "}";
  }
  return reqs;
}

void LoadGen::warm_up(std::size_t requests) {
  std::vector<PointRequest> reqs = make_requests(requests, 0, next_id_);
  next_id_ += requests;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    threads.emplace_back([&, c] {
      std::string reply;
      for (std::size_t k = c; k < reqs.size(); k += clients_.size()) {
        (void)clients_[c]->call(reqs[k].payload, reply);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

Block LoadGen::run_block(const char* name, double rate, double seconds,
                         std::uint64_t block_seed, bool reload) {
  const auto count = static_cast<std::size_t>(std::llround(rate * seconds));
  Block res;
  res.name = name;
  res.rate = rate;
  res.requests = make_requests(count, block_seed, next_id_);
  next_id_ += count;
  res.records.resize(count);
  res.reload_ok = !reload;
  const std::size_t reload_at = reload ? count / 2 : count;
  const std::string reload_payload =
      "{\"op\":\"reload\",\"id\":0,\"graph\":\"" + graph_ + "\"}";

  std::atomic<std::size_t> running{clients_.size()};
  res.start = now_s() + 0.01;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    threads.emplace_back([&, c] {
      fdiam::serve::Client& client = *clients_[c];
      std::string reply;
      for (std::size_t k = c; k < count; k += clients_.size()) {
        RequestRecord& rec = res.records[k];
        rec.due = res.start + static_cast<double>(k) / rate;
        sleep_until_s(rec.due);
        if (k == reload_at) {
          const double t0 = now_s();
          res.reload_ok = client.call(reload_payload, reply) &&
                          fdiam::obs::json_lookup(reply, "ok") == "true";
          res.reload_ms = (now_s() - t0) * 1e3;
        }
        if (!client.connected()) {
          (void)client.connect(server_.socket_path().string());
        }
        rec.sent = now_s();
        rec.ok = client.call(res.requests[k].payload, reply) &&
                 parse_point_reply(reply, res.requests[k], rec.value);
        rec.done = now_s();
      }
      running.fetch_sub(1);
    });
  }
  // The main thread is not a load thread: it only samples the batcher's
  // queue-depth gauge while the block runs.
  fdiam::obs::Gauge& depth = server_.registry().gauge("serve.queue.depth");
  while (running.load() > 0) {
    res.queue_depth_max = std::max(res.queue_depth_max, depth.get());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& t : threads) t.join();
  return res;
}

}  // namespace perfbench
