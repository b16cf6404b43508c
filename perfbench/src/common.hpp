// Shared machinery of the agperf benchmark program: options, the result
// record, the in-memory span tracer, the timing transport decorator, the
// bench-owned copy of sim::run's synchronous loop, and the measurement loop
// every workload uses.
//
// Every clock in the benchmark lives in these files: the library under src/
// stays clock-free (determinism lint), so spans are placed around calls into
// each layer's public functions, never inside them.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/topology.hpp"
#include "sim/transport.hpp"

namespace perf {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return static_cast<double>(ns_between(t0, Clock::now())) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;          ///< test-sized inputs (the benchmark's own tests)
  bool inject_fault = false;  ///< corrupt one observed output before its check
  std::string trace_out;      ///< where the traced run writes its spans
  std::size_t shards = 1;     ///< min(2, nproc), the rank workload's shard count
};

// ---------------------------------------------------------------------------
// Result record
// ---------------------------------------------------------------------------

/// Problems found while checking one operation's output.
class Verdict {
 public:
  void expect(bool ok, std::string what) {
    if (!ok) problems_.push_back(std::move(what));
  }
  bool ok() const noexcept { return problems_.empty(); }
  const std::vector<std::string>& problems() const noexcept { return problems_; }

 private:
  std::vector<std::string> problems_;
};

class Report {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  bool has(std::string_view name) const {
    for (const Metric& m : metrics_)
      if (m.name == name) return true;
    return false;
  }
  const std::vector<Metric>& metrics() const noexcept { return metrics_; }

  /// Extra fields of the detail record; `json` must be a JSON value.
  void note(std::string key, std::string json) {
    notes_.emplace_back(std::move(key), std::move(json));
  }
  void note(std::string key, double v);

  /// One operation (a dissemination call, a file, a stream) and its checks.
  void record(const Verdict& v, std::string_view what);
  /// Wire frames: every send is an operation; drops and frames that failed
  /// to decode are failed operations (the files still verify end to end).
  void record_frames(std::uint64_t sent, std::uint64_t dropped,
                     std::uint64_t decode_failures);

  bool correct() const noexcept { return correct_; }

  /// Wall time of the traced runs and of their untraced twins on the same
  /// inputs (trace_overhead_share).
  double traced_s = 0, untraced_s = 0;

  std::string json(const Options& o) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

std::string json_number(double v);
std::string json_string(std::string_view s);

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
/// The highest percentile with at least ten samples beyond it (the 11th
/// largest value); the median when there are fewer than 21 samples.
double tail(std::vector<double> v);
double mean(const std::vector<double>& v);

std::size_t nproc();
double peak_rss_mib();

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// In-memory span recorder.  A span has a name, start, end and the span that
/// caused it; `count` is the work it did (packets, inserts).  An aggregate
/// span stands for many short child calls that were timed individually and
/// summed (their total duration is end - start), which keeps per-insert
/// timing without one record per insert.  Spans are written out at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::int32_t root = -1;
    std::uint64_t count = 0;
    bool aggregate = false;
  };

  Tracer() : origin_(Clock::now()) {}

  std::int32_t open(std::string name, std::int32_t parent = -1);
  void close(std::int32_t id, std::uint64_t count = 0);
  void aggregate(std::int32_t parent, std::string name, std::uint64_t count,
                 std::int64_t total_ns);

  double seconds(std::int32_t id) const {
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) * 1e-9;
  }

  struct Totals {
    double seconds = 0;
    std::uint64_t count = 0;
    std::vector<double> each_s;  ///< one entry per matching span
  };
  /// All spans named `name` under root span `root`.
  Totals totals(std::int32_t root, std::string_view name) const;

  bool write_jsonl(const std::string& path, std::string_view workload) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Transport decorator over the deterministic SimTransport: times each send
/// (the Mailbox envelope copy) and each delivery callback (the decoder
/// insert), so the protocol's RNG stream and delivery order are untouched.
template <typename Msg>
class TimedSimTransport final : public ag::sim::Transport<Msg> {
 public:
  void send(ag::sim::NodeId from, ag::sim::NodeId to, const Msg& msg,
            ag::sim::DeliverRef<Msg> deliver) override {
    const auto t0 = Clock::now();
    inner_.send(from, to, msg, deliver);
    send_ns += ns_between(t0, Clock::now());
    ++sends;
  }
  void send(ag::sim::NodeId from, ag::sim::NodeId to, Msg&& msg,
            ag::sim::DeliverRef<Msg> deliver) override {
    send(from, to, static_cast<const Msg&>(msg), deliver);
  }
  void drain(ag::sim::DeliverRef<Msg> deliver) override {
    auto timed = [&](ag::sim::NodeId from, ag::sim::NodeId to, const Msg& m) {
      const auto t0 = Clock::now();
      deliver(from, to, m);
      insert_ns += ns_between(t0, Clock::now());
      ++inserts;
    };
    inner_.drain(ag::sim::DeliverRef<Msg>(timed));
  }
  const ag::sim::TransportStats& stats() const noexcept override { return inner_.stats(); }
  void set_channel(ag::sim::Channel ch) override { inner_.set_channel(std::move(ch)); }
  const ag::sim::Channel& channel() const noexcept override { return inner_.channel(); }

  std::uint64_t sends = 0, inserts = 0;
  std::int64_t send_ns = 0, insert_ns = 0;

 private:
  ag::sim::SimTransport<Msg> inner_{ag::sim::TimeModel::Synchronous, false};
};

/// The bench-owned copy of sim::run's synchronous loop, with one span per
/// round and per phase (activate, end_round).  `tt` must be the transport
/// installed in `proto`.  Draws exactly what sim::run draws.
template <typename P, typename Msg>
ag::sim::RunResult traced_sim_run(P& proto, ag::sim::Rng& rng, std::uint64_t max_rounds,
                                  Tracer& tr, std::int32_t root,
                                  const TimedSimTransport<Msg>& tt) {
  const auto n = static_cast<std::uint64_t>(proto.node_count());
  ag::sim::RunResult res;
  if (n == 0 || proto.finished()) {
    res.completed = true;
    return res;
  }
  for (std::uint64_t r = 0; r < max_rounds; ++r) {
    const std::int32_t round = tr.open("round", root);
    const std::int32_t act = tr.open("activate", round);
    const std::uint64_t s0 = tt.sends;
    const std::int64_t sn0 = tt.send_ns;
    for (ag::sim::NodeId v = 0; v < n; ++v) proto.on_activate(v, rng);
    tr.aggregate(act, "send", tt.sends - s0, tt.send_ns - sn0);
    tr.close(act, tt.sends - s0);
    const std::int32_t er = tr.open("end_round", round);
    const std::uint64_t i0 = tt.inserts;
    const std::int64_t in0 = tt.insert_ns;
    proto.end_round();
    tr.aggregate(er, "insert", tt.inserts - i0, tt.insert_ns - in0);
    tr.close(er, tt.inserts - i0);
    tr.close(round);
    if (proto.finished()) {
      res.completed = true;
      res.rounds = r + 1;
      res.timeslots = (r + 1) * n;
      return res;
    }
  }
  res.rounds = max_rounds;
  res.timeslots = max_rounds * n;
  return res;
}

/// Per-layer metrics of one traced classic-engine run (`root` as passed to
/// traced_sim_run): linalg.insert_us / combine_us and the sim phase shares.
void emit_sim_phase_metrics(Report& rep, const Tracer& tr, std::int32_t root);

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// One timed call of a workload: set-up, then the dissemination or stream.
struct CallSample {
  double setup_s = 0;
  double wall_s = 0;
  double rounds = 0;       ///< stopping rounds (UDP: loop ticks)
  double node_rounds = 0;  ///< n * rounds
  double decoded = 0;      ///< (node, message) pairs decoded and verified
  double packets = 0;      ///< coded packets delivered to decoders
};

/// Runs `call(i)` over the inputs i = 0..batch-1 in turn: one warm-up call
/// (checked, not timed), then at least one full pass, then more calls until
/// `seconds` have elapsed.
template <typename Call>
std::vector<CallSample> measure(const Options& o, std::size_t batch, Call&& call) {
  call(0);
  std::vector<CallSample> out;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < batch || seconds_since(t0) < o.seconds; ++i) {
    out.push_back(call(i % batch));
  }
  return out;
}

/// The end-to-end metrics every workload reports (BENCHMARK.json).
/// stopping_rounds is the mean over the first pass, so it depends on the
/// seed only.  With `payload_bytes` set, the detail record also gets
/// decoded_MBps (verified payload bytes per second).
void emit_end_to_end(Report& rep, const std::vector<CallSample>& samples,
                     std::size_t batch, std::size_t payload_bytes = 0);

/// Layer probes shared by every traced run (probes.cpp).
void probe_gf(Report& rep);
void probe_codec(Report& rep);
void probe_sample(Report& rep, const ag::sim::TopologyView& topo);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

void rank_measure(const Options& o, Report& rep);
void rank_traced(const Options& o, Report& rep, Tracer& tr);
void payload_measure(const Options& o, Report& rep);
void payload_traced(const Options& o, Report& rep, Tracer& tr);
void udp_measure(const Options& o, Report& rep);
void udp_traced(const Options& o, Report& rep, Tracer& tr);
void stream_measure(const Options& o, Report& rep);
void stream_traced(const Options& o, Report& rep, Tracer& tr);

}  // namespace perf
