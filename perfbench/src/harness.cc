#include "harness.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "serve/server.h"
#include "util/json.h"

namespace perfbench {

std::uint64_t StreamRng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double StreamRng::Uniform01() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int StreamRng::UniformInt(int lo, int hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(Next() % span);
}

double StreamRng::Exponential(double rate) {
  return -std::log1p(-Uniform01()) / rate;
}

int StreamRng::Weighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  double x = Uniform01() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (x < weights[i]) return static_cast<int>(i);
    x -= weights[i];
  }
  return static_cast<int>(weights.size()) - 1;
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  StreamRng rng(seed * 0x100000001b3ULL ^ (stream + 0x51ed27ULL));
  rng.Next();
  return rng.Next();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  std::size_t rank = q <= 0.0 ? 1 : static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Sum() const {
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

void TimedSamples::Append(const TimedSamples& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
}

double TimedSamples::P(double q) const {
  std::vector<double> values;
  for (const auto& sample : samples_) values.push_back(sample.second);
  return Percentile(std::move(values), q);
}

double TimedSamples::WindowedP(double q) const {
  std::vector<std::pair<double, double>> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> quantiles;
  for (int w = 0; w < kWindows; ++w) {
    const std::size_t begin = sorted.size() * w / kWindows;
    const std::size_t end = sorted.size() * (w + 1) / kWindows;
    std::vector<double> window;
    for (std::size_t i = begin; i < end; ++i) window.push_back(sorted[i].second);
    if (!window.empty()) quantiles.push_back(Percentile(std::move(window), q));
  }
  return Percentile(std::move(quantiles), 0.5);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

OpenLoopTiming OpenLoopTimes(double due_ms, double sent_ms, double done_ms) {
  return {.latency_ms = done_ms - due_ms,
          .lag_ms = std::max(0.0, sent_ms - due_ms)};
}

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  const double now = std::chrono::duration<double, std::micro>(
                         Clock::now() - origin_).count();
  spans_.push_back({name, now, -1.0});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[id].end_us = std::chrono::duration<double, std::micro>(
                          Clock::now() - origin_).count();
}

Samples Tracer::Durations(const std::string& name) const {
  Samples out;
  for (const Span& span : spans_) {
    if (span.end_us >= 0 && name == span.name) {
      out.Add(span.end_us - span.start_us);
    }
  }
  return out;
}

Outcome ClassifyResponse(const std::string& response,
                         const std::string& expected_result_prefix) {
  if (response.rfind("{\"ok\":true", 0) != 0) return Outcome::kError;
  if (expected_result_prefix.empty()) return Outcome::kOk;
  const std::string marker = "\"result\":" + expected_result_prefix;
  return response.find(marker) == std::string::npos ? Outcome::kMismatch
                                                    : Outcome::kOk;
}

std::string ResultPrefix(const std::string& plan_result_json) {
  const std::size_t stats = plan_result_json.find(",\"stats\":");
  return stats == std::string::npos ? plan_result_json
                                    : plan_result_json.substr(0, stats);
}

bool Daemon::Start(const std::string& binary,
                   const std::vector<std::string>& args,
                   const std::string& socket_path, const std::string& log_path,
                   std::string* error) {
  std::vector<std::string> argv_storage = {binary};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_ = fork();
  if (pid_ < 0) {
    *error = "fork failed";
    return false;
  }
  if (pid_ == 0) {
    const int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int null_fd = open("/dev/null", O_RDWR);
    if (log_fd >= 0) dup2(log_fd, STDERR_FILENO);
    if (null_fd >= 0) {
      dup2(null_fd, STDIN_FILENO);
      dup2(null_fd, STDOUT_FILENO);
    }
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < 30.0) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "factcheck_serve exited during start-up (see " + log_path + ")";
      return false;
    }
    factcheck::serve::LineClient client;
    std::string response, ignored;
    if (client.Connect(socket_path, &ignored) &&
        client.Call("{\"op\":\"ping\"}", &response, &ignored) &&
        response.rfind("{\"ok\":true", 0) == 0) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Stop();
  *error = "factcheck_serve did not answer on " + socket_path;
  return false;
}

void Daemon::Stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  const Clock::time_point start = Clock::now();
  int status = 0;
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (SecondsSince(start) > 10.0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
}

double Daemon::PeakRssMb() const {
  return pid_ > 0 ? PeakRssMbOf(std::to_string(pid_)) : 0.0;
}

double PeakRssMbOf(const std::string& proc_entry) {
  std::ifstream status("/proc/" + proc_entry + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

namespace {

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

}  // namespace

Provenance CollectProvenance(std::uint64_t seed, const std::string& workload) {
  Provenance out;
  const std::string sanitize = PERFBENCH_SANITIZE;
  const std::string sanitize_lower = Lower(sanitize);
  bool sanitized = !(sanitize_lower.empty() || sanitize_lower == "off" ||
                     sanitize_lower == "false" || sanitize_lower == "0");
#ifdef PERFBENCH_SANITIZED
  sanitized = true;
#endif
#ifdef FACTCHECK_FAULT_INJECTION
  const bool fault_injection = true;
#else
  const bool fault_injection = false;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (sanitized) {
    out.refuse = true;
    out.refuse_reason = "sanitizer build (FACTCHECK_SANITIZE=" + sanitize + ")";
  } else if (fault_injection) {
    out.refuse = true;
    out.refuse_reason = "FACTCHECK_FAULT_INJECTION build";
  } else if (build_type != "Release" && build_type != "RelWithDebInfo") {
    out.refuse = true;
    out.refuse_reason = "unoptimized build type " + build_type;
  }
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  factcheck::JsonWriter writer;
  writer.BeginObject()
      .Key("provenance").BeginObject()
      .Key("commit").String(commit != nullptr ? commit : "unknown")
      .Key("compiler").String(PERFBENCH_CXX_ID)
      .Key("flags").String(PERFBENCH_CXX_FLAGS)
      .Key("build_type").String(build_type)
      .Key("march_native").String(PERFBENCH_MARCH_NATIVE)
      .Key("sanitizer").String(sanitized ? sanitize : "off")
      .Key("fault_injection").Bool(fault_injection)
      .Key("nproc").Int(static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Key("workload").String(workload)
      .Key("seed").Int(static_cast<std::int64_t>(seed))
      .EndObject()
      .EndObject();
  out.json = writer.str();
  return out;
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Result::MarkIncorrect(const std::string& why) {
  correct_ = false;
  problems_.push_back(why);
}

std::string Result::Json() const {
  factcheck::JsonWriter writer;
  writer.BeginObject()
      .Key("correct").Bool(correct())
      .Key("attempted").Int(attempted_)
      .Key("failed").Int(failed_)
      .Key("metrics").BeginObject();
  for (const auto& [name, value_unit] : metrics_) {
    writer.Key(name)
        .BeginObject()
        .Key("value").Number(value_unit.first)
        .Key("unit").String(value_unit.second)
        .EndObject();
  }
  writer.EndObject().EndObject();
  return writer.str();
}

}  // namespace perfbench
