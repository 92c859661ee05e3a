// Benchmark plumbing shared by every workload: a seed-pure random stream,
// sample sets with an exactly specified percentile, the open-loop
// lateness rule, benchmark-side spans, the daemon child process, response
// classification, provenance, and the one-line result document.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// SplitMix64: the request streams are a pure function of the workload
// seed on every platform (std:: distributions are implementation-defined).
class StreamRng {
 public:
  explicit StreamRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  double Uniform01();                 // [0, 1)
  int UniformInt(int lo, int hi);     // [lo, hi] inclusive
  double Exponential(double rate);    // mean 1 / rate
  // Index drawn with probability weights[i] / sum(weights).
  int Weighted(const std::vector<double>& weights);

 private:
  std::uint64_t state_;
};

// Derives an independent child seed for stream `stream` of a run seed.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

// Nearest-rank percentile: the smallest sample x such that at least
// q * n samples are <= x (q in (0, 1]); q <= 0 gives the minimum.  0 for
// an empty set.
double Percentile(std::vector<double> values, double q);

class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  double P(double q) const { return Percentile(values_, q); }
  double Mean() const;
  double Sum() const;
  std::size_t size() const { return values_.size(); }

 private:
  std::vector<double> values_;
};

// Latency samples stamped with their completion time.  Tail quantiles of
// a run are reported as the median over kWindows consecutive windows of
// equal sample count: one stall of the shared machine then moves one
// window's quantile instead of the run's.
class TimedSamples {
 public:
  static constexpr int kWindows = 5;
  void Add(double at_ms, double value) { samples_.emplace_back(at_ms, value); }
  void Append(const TimedSamples& other);
  double P(double q) const;            // over the whole run
  double WindowedP(double q) const;    // median of per-window quantiles
  std::size_t size() const { return samples_.size(); }

 private:
  std::vector<std::pair<double, double>> samples_;  // (at_ms, value)
};

using Clock = std::chrono::steady_clock;
double SecondsSince(Clock::time_point start);
double MillisBetween(Clock::time_point from, Clock::time_point to);

// The open-loop rule: a request is late by (sent - due) and its latency
// runs from when it was due, so a stall also charges the requests queued
// behind it.  Times in milliseconds on one clock.
struct OpenLoopTiming {
  double latency_ms = 0.0;
  double lag_ms = 0.0;
};
OpenLoopTiming OpenLoopTimes(double due_ms, double sent_ms, double done_ms);

// Benchmark-side spans around calls into the program's layers: name,
// start and end, kept in memory for the per-layer durations.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  // Opens a span and returns its id (-1 when tracing is off).
  int Begin(const char* name);
  void End(int id);
  // Durations (microseconds) of every closed span called `name`.
  Samples Durations(const std::string& name) const;
  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// How one protocol response is counted.  Anything but {"ok":true,...} is a
// failure (error, shed, deadline); an ok plan whose result does not carry
// the oracle's selection/objective/trajectory prefix is a mismatch.
enum class Outcome { kOk, kError, kMismatch };
Outcome ClassifyResponse(const std::string& response,
                         const std::string& expected_result_prefix);

// The part of a PlanResult JSON document that must be bit-identical
// between a served plan and its one-shot oracle: everything before the
// engine counters and the wall clock.
std::string ResultPrefix(const std::string& plan_result_json);

// factcheck_serve as a child process.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Starts `binary` with `args` (stderr to `log_path`) and waits until it
  // answers a ping on `socket_path`.  False + diagnostic on failure.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& socket_path, const std::string& log_path,
             std::string* error);
  // SIGTERM, then waits for the exit (SIGKILL after 10 s).  Idempotent.
  void Stop();
  // The daemon's peak resident set (VmHWM) in MiB; 0 if unreadable.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
};

// VmHWM of a process ("self" or a pid) in MiB; 0 if unreadable.
double PeakRssMbOf(const std::string& proc_entry);

// Build and run provenance, printed before the result line.  `refuse`
// is set when the build must not be measured (sanitizers or compiled-in
// fault injection).
struct Provenance {
  std::string json;
  bool refuse = false;
  std::string refuse_reason;
};
Provenance CollectProvenance(std::uint64_t seed, const std::string& workload);

// The result document (the benchmark's last stdout line).
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void CountOp(bool failed) {
    ++attempted_;
    if (failed) ++failed_;
  }
  void AddOps(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  // A failed self-check marks the run incorrect without being an op.
  void MarkIncorrect(const std::string& why);
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0; }
  const std::vector<std::string>& problems() const { return problems_; }
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> problems_;
};

// Command-line options of one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_binary;  // path to factcheck_serve
  std::string work_dir;      // scratch directory for sockets / changelogs
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
