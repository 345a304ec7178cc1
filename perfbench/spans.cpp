#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

int Spans::add(const char* name, const char* layer, double start, double end) {
  spans_.push_back(Span{name, layer, start, end, -1, 0, true});
  return static_cast<int>(spans_.size()) - 1;
}

int Spans::add_child(const char* name, const char* layer, double start,
                     double end, int parent, std::uint64_t request) {
  spans_.push_back(Span{name, layer, start, end, parent, request, false});
  return static_cast<int>(spans_.size()) - 1;
}

void Spans::resolve() {
  // Spans closed by library hooks carry a start reconstructed from a
  // duration, so it can sit a few microseconds before the enclosing
  // span's start. Containment is therefore decided by the midpoint.
  std::vector<int> order(spans_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](int a, int b) {
    const Span& x = spans_[static_cast<std::size_t>(a)];
    const Span& y = spans_[static_cast<std::size_t>(b)];
    if (x.start != y.start) return x.start < y.start;
    return x.end - x.start > y.end - y.start;
  });
  std::vector<int> stack;
  for (int idx : order) {
    Span& s = spans_[static_cast<std::size_t>(idx)];
    if (!s.resolve_parent) continue;
    const double mid = 0.5 * (s.start + s.end);
    while (!stack.empty() &&
           spans_[static_cast<std::size_t>(stack.back())].end < mid) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      const Span& p = spans_[static_cast<std::size_t>(stack.back())];
      if (p.end - p.start >= s.end - s.start) s.parent = stack.back();
    }
    stack.push_back(idx);
  }
}

std::map<std::string, double> Spans::self_seconds_by_layer() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.layer] += std::max(0.0, (s.end - s.start) - child_time[i]);
  }
  return self;
}

void Spans::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.layer, s.request != 0 ? 2 : 1,
                 s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("]\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
