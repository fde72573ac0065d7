#include "harness.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace pb {

// ----------------------------------------------------------------- tracing

namespace {
thread_local std::vector<uint64_t> tl_open_spans;

uint64_t thread_id() {
  return static_cast<uint64_t>(::gettid());
}
}  // namespace

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

uint64_t Tracer::open(const char* name, double start_s) {
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord r;
  r.id = next_id_++;
  r.parent = tl_open_spans.empty() ? 0 : tl_open_spans.back();
  r.name = name;
  r.start_s = start_s;
  r.end_s = start_s;
  r.tid = thread_id();
  spans_.push_back(std::move(r));
  return spans_.back().id;
}

void Tracer::close(uint64_t id, double end_s) {
  std::lock_guard<std::mutex> lock(mu_);
  // Ids are dense and spans_ is append-only, so the record sits at id-1.
  spans_[id - 1].end_s = end_s;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  if (!f) return false;
  // JsonWriter prints 9 significant digits: monotonic-clock microseconds
  // (about 1e10) would keep only 100 us steps, so times are written from
  // the earliest span's start.
  double origin_s = 0.0;
  if (!spans_.empty()) {
    origin_s = spans_.front().start_s;
    for (const auto& s : spans_) origin_s = std::min(origin_s, s.start_s);
  }
  for (const auto& s : spans_) {
    gpurf::api::JsonWriter w;
    w.begin_object();
    w.field("id", s.id);
    w.field("parent", s.parent);
    w.field("name", s.name);
    w.field("start_us", (s.start_s - origin_s) * 1e6);
    w.field("end_us", (s.end_s - origin_s) * 1e6);
    w.field("tid", s.tid);
    w.end_object();
    f << w.str() << '\n';
  }
  return static_cast<bool>(f);
}

Span::Span(const char* name) : start_s_(now_s()) {
  Tracer& t = Tracer::get();
  if (t.enabled()) {
    id_ = t.open(name, start_s_);
    tl_open_spans.push_back(id_);
  }
}

Span::~Span() { stop(); }

double Span::stop() {
  if (dur_s_ >= 0.0) return dur_s_;
  const double end = now_s();
  dur_s_ = end - start_s_;
  if (id_ != 0) {
    Tracer::get().close(id_, end);
    // Spans close in LIFO order on their thread.
    if (!tl_open_spans.empty() && tl_open_spans.back() == id_)
      tl_open_spans.pop_back();
  }
  return dur_s_;
}

// -------------------------------------------------------------------- host

int nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::vector<int> allowed_cpus() {
  std::vector<int> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

Usage self_usage() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 +
            ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  u.peak_rss_mb = ru.ru_maxrss / 1024.0;
  return u;
}

namespace {

/// utime + stime (clock ticks) and the "processor" field of one
/// /proc/.../stat line.  The command name may contain spaces, so fields are
/// counted from the closing parenthesis.
bool parse_stat(const std::string& line, uint64_t& ticks, int& cpu) {
  const size_t rp = line.rfind(')');
  if (rp == std::string::npos) return false;
  std::istringstream in(line.substr(rp + 2));
  std::string f;
  // Field 3 (state) is the first token after ") ".
  for (int field = 3; in >> f; ++field) {
    if (field == 14) ticks = std::stoull(f);
    else if (field == 15) ticks += std::stoull(f);
    else if (field == 39) {
      cpu = std::stoi(f);
      return true;
    }
  }
  return false;
}

std::string read_first_line(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

}  // namespace

double proc_cpu_s(pid_t pid) {
  uint64_t ticks = 0;
  int cpu = 0;
  if (!parse_stat(read_first_line("/proc/" + std::to_string(pid) + "/stat"),
                  ticks, cpu))
    return 0.0;
  return static_cast<double>(ticks) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

CpuSampler::CpuSampler(pid_t pid) : pid_(pid), thread_([this] { loop(); }) {}

CpuSampler::~CpuSampler() { stop(); }

void CpuSampler::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

std::vector<int> CpuSampler::cpus_used() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {used_.begin(), used_.end()};
}

void CpuSampler::loop() {
  // A coarse period: the sampler shares the CPUs with the program, and a
  // sharded simulation's barrier stalls whenever one shard is preempted.
  while (!stop_.load(std::memory_order_relaxed)) {
    if (!paused_.load(std::memory_order_relaxed)) sample();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  sample();
}

void CpuSampler::sample() {
  const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (!d) return;
  const int self_tid = ::gettid();
  std::vector<int> hits;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    const int tid = std::atoi(e->d_name);
    if (tid == self_tid) continue;  // the sampler is not the program
    uint64_t ticks = 0;
    int cpu = -1;
    if (!parse_stat(read_first_line(dir + "/" + e->d_name + "/stat"), ticks,
                    cpu))
      continue;
    auto it = last_ticks_.find(tid);
    const bool ran = it == last_ticks_.end() ? ticks > 0 : ticks > it->second;
    last_ticks_[tid] = ticks;
    if (ran) hits.push_back(cpu);
  }
  ::closedir(d);
  std::lock_guard<std::mutex> lock(mu_);
  used_.insert(hits.begin(), hits.end());
}

// ---------------------------------------------------------------- inputs

uint64_t Rng::next() {
  uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ----------------------------------------------------------------- report

void Report::op(const std::string& error) {
  ++attempted;
  if (error.empty()) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(error);
}

std::string Report::to_json(const Options& o) const {
  gpurf::api::JsonWriter w;
  w.begin_object();
  w.field("workload", o.workload);
  w.field("seed", o.seed);
  w.field("traced", o.trace);
  w.field("setup_s", setup_s);
  w.field("wall_s", wall_s);
  w.field("cpu_s", cpu_s);
  w.field("peak_rss_mb", peak_rss_mb);
  w.field("attempted", attempted);
  w.field("failed", failed);
  w.begin_array("failures");
  for (const auto& f : failures) w.element(f);
  w.end_array();
  w.begin_object("host");
  w.field("nproc", nproc());
  w.begin_array("allowed_cpus");
  for (int c : allowed_cpus()) w.element(static_cast<uint64_t>(c));
  w.end_array();
  w.begin_array("cpus_used");
  for (int c : cpus_used) w.element(static_cast<uint64_t>(c));
  w.end_array();
  w.field("cpu_util", cpu_util);
  w.end_object();
  w.begin_object("layers");
  for (const auto& [k, v] : layers) w.field(k, v);
  w.end_object();
  w.begin_object("samples");
  for (const auto& [k, vs] : samples) {
    w.begin_array(k);
    for (double v : vs) w.element(v);
    w.end_array();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

// ------------------------------------------------------------- references

std::string digest(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

References::References(const Options& o, const std::string& name)
    : path_(o.ref_dir + "/" + name + ".json"), bless_(o.bless) {
  std::ifstream f(path_);
  if (!f) return;
  std::stringstream ss;
  ss << f.rdbuf();
  auto parsed = gpurf::api::parse_json(ss.str());
  if (!parsed.ok() || !parsed->is_object()) return;
  for (const auto& [k, v] : parsed->members) values_[k] = v.as_string();
}

std::string References::expect(const std::string& key,
                               const std::string& actual) {
  std::lock_guard<std::mutex> lock(mu_);
  if (bless_) {
    values_[key] = actual;
    return {};
  }
  auto it = values_.find(key);
  if (it == values_.end()) return "no reference value for " + key;
  if (it->second != actual)
    return key + ": got " + actual + ", reference " + it->second;
  return {};
}

bool References::save() const {
  gpurf::api::JsonWriter w;
  w.begin_object();
  for (const auto& [k, v] : values_) w.field(k, v);
  w.end_object();
  std::ofstream f(path_);
  // One key per line keeps the reference files diffable.
  std::string text = w.str();
  std::string pretty;
  for (size_t i = 0; i < text.size(); ++i) {
    pretty += text[i];
    if (text[i] == '{' || (text[i] == ',' && text[i + 1] == '"'))
      pretty += "\n  ";
  }
  pretty.insert(pretty.size() - 1, "\n");
  f << pretty << '\n';
  return static_cast<bool>(f);
}

// -------------------------------------------------------- canonical JSON

namespace {

void canonical(const gpurf::api::JsonValue& v, const std::string& drop,
               std::string& out) {
  using K = gpurf::api::JsonValue::Kind;
  switch (v.kind) {
    case K::kNull: out += "null"; break;
    case K::kBool: out += v.bool_v ? "true" : "false"; break;
    case K::kNumber: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v.num_v);
      out += buf;
      break;
    }
    case K::kString:
      out += '"' + gpurf::api::JsonWriter::escape(v.str_v) + '"';
      break;
    case K::kArray:
      out += '[';
      for (size_t i = 0; i < v.items.size(); ++i) {
        if (i) out += ',';
        canonical(v.items[i], drop, out);
      }
      out += ']';
      break;
    case K::kObject: {
      std::vector<const std::pair<std::string, gpurf::api::JsonValue>*> m;
      for (const auto& kv : v.members)
        if (drop.empty() || kv.first != drop) m.push_back(&kv);
      std::sort(m.begin(), m.end(),
                [](auto* a, auto* b) { return a->first < b->first; });
      out += '{';
      for (size_t i = 0; i < m.size(); ++i) {
        if (i) out += ',';
        out += '"' + gpurf::api::JsonWriter::escape(m[i]->first) + "\":";
        canonical(m[i]->second, drop, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string canonical_json(const gpurf::api::JsonValue& v,
                           const std::string& drop_key) {
  std::string out;
  canonical(v, drop_key, out);
  return out;
}

}  // namespace pb
