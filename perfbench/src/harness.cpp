#include "harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

std::optional<double> percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<size_t>(std::max(1.0, std::ceil(p / 100.0 * n)));
  return samples[std::min(rank, samples.size()) - 1];
}

bool percentile_reportable(size_t n, double p, size_t beyond) {
  if (n == 0) return false;
  const auto rank = static_cast<size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(n))));
  return n >= rank && n - rank >= beyond;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

uint64_t mix_seed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

size_t OpStream::zipf(size_t n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) total += 1.0 / static_cast<double>(i + 1);
  double x = uniform() * total;
  for (size_t i = 0; i < n; ++i) {
    x -= 1.0 / static_cast<double>(i + 1);
    if (x < 0) return i;
  }
  return n - 1;
}

// ---- spans ----------------------------------------------------------------

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) continue;
    const Span& parent = spans[static_cast<size_t>(s.parent)];
    const uint64_t lo = std::max(s.start_ns, parent.start_ns);
    const uint64_t hi = std::min(s.end_ns, parent.end_ns);
    if (lo < hi) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> out(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& covered = children[i];
    std::sort(covered.begin(), covered.end());
    uint64_t busy = 0;
    uint64_t reach = spans[i].start_ns;
    for (const auto& [lo, hi] : covered) {
      const uint64_t from = std::max(lo, reach);
      if (hi > from) {
        busy += hi - from;
        reach = hi;
      }
    }
    out[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns - busy) / 1000.0;
  }
  return out;
}

int64_t Tracer::open(const char* name, uint64_t op, int64_t parent) {
  std::scoped_lock lock(mu_);
  if (spans_.size() >= max_spans_) return -1;
  spans_.push_back(Span{name, now_ns(), 0, parent, op});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::close(int64_t index) {
  const uint64_t end = now_ns();
  std::scoped_lock lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end;
}

std::vector<Span> Tracer::snapshot() const {
  std::scoped_lock lock(mu_);
  return spans_;
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  std::scoped_lock lock(mu_);
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && name == s.name) out.push_back(s.duration_us());
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  const std::vector<Span> spans = snapshot();
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self_times = self_times_us(spans);
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns == 0) continue;
    out << "{\"i\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << "}\n";
    auto& [dur, self] = by_name[s.name];
    dur.push_back(s.duration_us());
    self.push_back(self_times[i]);
  }
  for (auto& [name, pair] : by_name) {
    auto& [dur, self] = pair;
    out << "{\"summary\":\"" << name << "\",\"count\":" << dur.size()
        << ",\"p50_us\":" << percentile(dur, 50).value_or(0)
        << ",\"self_p50_us\":" << percentile(self, 50).value_or(0) << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {
thread_local int64_t t_parent = -1;
}  // namespace

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, uint64_t op) : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  index_ = tracer_.open(name, op, t_parent);
  if (index_ < 0) return;
  saved_parent_ = t_parent;
  t_parent = index_;
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  tracer_.close(index_);
  t_parent = saved_parent_;
}

// ---- results ----------------------------------------------------------------

std::string Result::to_json() const {
  std::ostringstream out;
  out << std::setprecision(10);
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64 || !std::isalnum(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
  });
}

std::string check_metric_names(const std::vector<std::string>& end_to_end,
                               const std::vector<std::string>& per_layer) {
  if (end_to_end.empty() || end_to_end.size() > 16) return "need 1..16 end-to-end metrics";
  if (per_layer.empty() || per_layer.size() > 128) return "need 1..128 per-layer metrics";
  std::vector<std::string> all = end_to_end;
  all.insert(all.end(), per_layer.begin(), per_layer.end());
  for (const std::string& name : all) {
    if (!valid_metric_name(name)) return "invalid metric name: " + name;
  }
  std::sort(all.begin(), all.end());
  if (std::adjacent_find(all.begin(), all.end()) != all.end()) return "duplicate metric name";
  return "";
}

std::vector<std::string> split_names(const std::string& csv) {
  std::vector<std::string> names;
  std::string item;
  std::istringstream in(csv);
  while (std::getline(in, item, ',')) {
    if (!item.empty()) names.push_back(item);
  }
  return names;
}

double process_cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- machine speed ----------------------------------------------------------

namespace {

constexpr int kRoundTrips = 48;  // loopback TCP round trips per kernel run
constexpr size_t kMessage = 32;  // bytes per round-trip message
constexpr size_t kWords = 768;   // strings hashed and sorted per kernel run

int tcp_socket() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("reference kernel: socket() failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool recv_all(int fd, char* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::recv(fd, data, size, 0);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Reference::Reference() {
  const int listener = tcp_socket();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(listener);
    throw std::runtime_error("reference kernel: cannot listen on loopback");
  }
  try {
    client_ = tcp_socket();
  } catch (...) {
    ::close(listener);
    throw;
  }
  if (::connect(client_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listener);
    ::close(client_);
    throw std::runtime_error("reference kernel: cannot connect on loopback");
  }
  server_ = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
  ::close(listener);
  if (server_ < 0) {
    ::close(client_);
    throw std::runtime_error("reference kernel: accept() failed");
  }
  const int one = 1;
  ::setsockopt(server_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  echo_ = std::thread([fd = server_] {
    char buf[kMessage];
    while (recv_all(fd, buf, sizeof(buf)) && send_all(fd, buf, sizeof(buf))) {
    }
  });
}

Reference::~Reference() {
  ::shutdown(client_, SHUT_RDWR);
  if (echo_.joinable()) echo_.join();
  ::close(client_);
  ::close(server_);
}

double Reference::run_ns() {
  const uint64_t start = now_ns();
  char buf[kMessage] = {};
  for (int i = 0; i < kRoundTrips; ++i) {
    buf[0] = static_cast<char>(i);
    if (!send_all(client_, buf, sizeof(buf)) || !recv_all(client_, buf, sizeof(buf)) ||
        buf[0] != static_cast<char>(i)) {
      throw std::runtime_error("reference kernel: loopback echo failed");
    }
  }
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::vector<std::string> words;
  words.reserve(kWords);
  for (size_t i = 0; i < kWords; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    words.push_back(std::to_string(x));
  }
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < words.size(); ++i) index[words[i]] = i;
  std::sort(words.begin(), words.end());
  for (const std::string& w : words) sink_ += index.at(w);
  return static_cast<double>(now_ns() - start);
}

double Reference::median_ns(int n) {
  std::vector<double> runs;
  for (int i = 0; i < n; ++i) runs.push_back(run_ns());
  return median(runs);
}

Reference& reference() {
  static Reference instance;
  return instance;
}

}  // namespace perfbench
