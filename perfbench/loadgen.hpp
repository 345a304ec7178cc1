#pragma once
// Open-loop load generator for an in-process fdiam_serve.
//
// A block offers a fixed rate: request k is due at start + k / rate and
// goes out on connection k mod C, where each of the C connections is
// driven by its own thread. A connection carries one request at a time,
// so when replies fall behind, later requests leave late; latency is
// timed from when a request was due, not from when it was sent, so the
// backlog shows in the numbers instead of slowing the offered load.
//
// The mix is 3:1 distance:eccentricity over seeded random vertices. A
// block may fire one `reload` of the served graph at its midpoint, on the
// connection that owns the midpoint request.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/types.hpp"

namespace perfbench {

struct PointRequest {
  std::string payload;  ///< the JSON frame sent on the wire
  std::uint64_t id = 0;
  bool eccentricity = false;
  fdiam::vid_t u = 0;
  fdiam::vid_t v = 0;
};

struct RequestRecord {
  double due = 0.0;   ///< now_s() when the request was due
  double sent = 0.0;  ///< now_s() when it went out
  double done = 0.0;  ///< now_s() when the reply (or failure) arrived
  bool ok = false;    ///< transport ok, "ok":true, matching id, value present
  fdiam::dist_t value = 0;
};

struct Block {
  std::string name;
  double rate = 0.0;
  double start = 0.0;
  std::vector<PointRequest> requests;
  std::vector<RequestRecord> records;
  double reload_ms = 0.0;
  bool reload_ok = false;
  double queue_depth_max = 0.0;

  /// Reply latency in ms per request; failed requests are +infinity, so
  /// they count against every latency limit.
  [[nodiscard]] std::vector<double> latencies_ms() const;
  [[nodiscard]] std::size_t failures() const;
  /// From the block's start to its last reply.
  [[nodiscard]] double seconds() const;
};

class LoadGen {
 public:
  LoadGen(fdiam::serve::Server& server, std::string graph, fdiam::vid_t n,
          int connections, std::uint64_t seed);

  /// Open every connection; false if any fails.
  [[nodiscard]] bool connect();

  /// Closed-loop requests whose results are discarded (first sweeps pay
  /// for thread-team start-up).
  void warm_up(std::size_t requests);

  /// One open-loop block at `rate` requests per second for `seconds`;
  /// returns once every reply is in.
  Block run_block(const char* name, double rate, double seconds,
                  std::uint64_t block_seed, bool reload);

 private:
  std::vector<PointRequest> make_requests(std::size_t count,
                                          std::uint64_t block_seed,
                                          std::uint64_t first_id) const;

  fdiam::serve::Server& server_;
  std::string graph_;
  fdiam::vid_t n_;
  std::uint64_t seed_;
  std::uint64_t next_id_ = 1;
  std::vector<std::unique_ptr<fdiam::serve::Client>> clients_;
};

/// Parse one point-query reply: "ok":true, the expected id, and the
/// eccentricity or distance value.
bool parse_point_reply(const std::string& reply, const PointRequest& req,
                       fdiam::dist_t& value);

}  // namespace perfbench
