#include "bench_util.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double CurrentRssMb() {
  std::ifstream in("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  in >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessCpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

CpuTimes ReadCpuTimes() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes t;
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealPct(const CpuTimes& since) {
  CpuTimes now = ReadCpuTimes();
  uint64_t total = now.total - since.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(now.steal - since.steal) /
                          static_cast<double>(total);
}

int NumCpus() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// ---------------------------------------------------------------------------
// Tracer

namespace {

thread_local bool tls_round_traced = true;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::SetThreadRoundTraced(bool on) { tls_round_traced = on; }

Tracer::ThreadBuf* Tracer::Local() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    buf = bufs_.back().get();
    buf->thread = static_cast<uint32_t>(bufs_.size() - 1);
    buf->spans.reserve(1 << 14);
  }
  return buf;
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t value) {
  int64_t end_ns = NowNs();
  ThreadBuf* buf = Local();
  buf->spans.push_back(SpanRecord{name, buf->thread, start_ns, end_ns, value});
}

std::vector<const SpanRecord*> Tracer::Find(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<const SpanRecord*> out;
  for (const auto& buf : bufs_) {
    for (const SpanRecord& s : buf->spans) {
      if (std::strcmp(s.name, name) == 0) out.push_back(&s);
    }
  }
  return out;
}

std::vector<double> Tracer::Ms(const char* name, int64_t value) const {
  std::vector<double> out;
  for (const SpanRecord* s : Find(name)) {
    if (value < 0 || s->value == value) {
      out.push_back(static_cast<double>(s->end_ns - s->start_ns) / 1e6);
    }
  }
  return out;
}

std::vector<double> Tracer::Values(const char* name) const {
  std::vector<double> out;
  for (const SpanRecord* s : Find(name)) {
    out.push_back(static_cast<double>(s->value));
  }
  return out;
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& buf : bufs_) n += buf->spans.size();
  return n;
}

bool Tracer::Dump(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : bufs_) {
    for (const SpanRecord& s : buf->spans) {
      out << "{\"name\":\"" << s.name << "\",\"thread\":" << s.thread
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"value\":" << s.value << "}\n";
    }
  }
  return static_cast<bool>(out);
}

Span::Span(const char* name, int64_t value) : name_(name), value_(value) {
  if (!Tracer::Get().enabled() || !tls_round_traced) return;
  on_ = true;
  start_ns_ = NowNs();
}

Span::~Span() {
  if (on_) Tracer::Get().Record(name_, start_ns_, value_);
}

// ---------------------------------------------------------------------------
// HTTP client

namespace {

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

HttpReply HttpRequest(int port, const std::string& method,
                      const std::string& target, const std::string& body) {
  HttpReply reply;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    reply.error = "socket failed";
    return reply;
  }
  struct timeval tv {};
  tv.tv_sec = 60;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    reply.error = "connect failed";
    return reply;
  }
  std::string req = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty() || method == "POST") {
    req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  req += "\r\n";
  req += body;
  if (!SendAll(fd, req)) {
    ::close(fd);
    reply.error = "send failed";
    return reply;
  }
  std::string raw;
  char buf[65536];
  while (true) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      ::close(fd);
      reply.error = "recv failed";
      return reply;
    }
    if (n == 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t head_end = raw.find("\r\n\r\n");
  if (raw.compare(0, 9, "HTTP/1.1 ") != 0 || head_end == std::string::npos) {
    reply.error = "malformed response";
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + 9);
  reply.body = raw.substr(head_end + 4);
  return reply;
}

std::string UrlEncode(const std::string& s) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : s) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out += static_cast<char>(c);
    } else {
      out += '%';
      out += hex[c >> 4];
      out += hex[c & 15];
    }
  }
  return out;
}

bool SplitCsv(const std::string& text, bool skip_header,
              std::vector<std::vector<std::string>>* rows) {
  rows->clear();
  size_t pos = 0;
  bool first = true;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    size_t end = eol;
    if (end > pos && text[end - 1] == '\r') --end;
    std::string line = text.substr(pos, end - pos);
    pos = eol + 1;
    if (line.find('"') != std::string::npos) return false;
    if (first && skip_header) {
      first = false;
      continue;
    }
    first = false;
    std::vector<std::string> fields;
    size_t f = 0;
    while (true) {
      size_t comma = line.find(',', f);
      if (comma == std::string::npos) {
        fields.push_back(line.substr(f));
        break;
      }
      fields.push_back(line.substr(f, comma - f));
      f = comma + 1;
    }
    rows->push_back(std::move(fields));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Output

void PrintResult(const RunResult& r) {
  uint64_t attempted = 0, failed = 0;
  for (const auto& [name, m] : r.info) {
    std::cout << "info " << name << " " << m.value << " " << m.unit << "\n";
  }
  std::cout << "operation attempted failed\n";
  for (const auto& [op, c] : r.ops) {
    std::cout << op << " " << c.attempted << " " << c.failed << "\n";
    attempted += c.attempted;
    failed += c.failed;
  }
  for (const std::string& n : r.notes) std::cerr << "check failed: " << n
                                                 << "\n";
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    if (!first) js << ", ";
    first = false;
    double v = std::isfinite(m.value) ? m.value : 0.0;
    js << "\"" << name << "\": {\"value\": " << v << ", \"unit\": \""
       << m.unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

}  // namespace perfbench
