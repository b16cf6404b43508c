// agperf: the repository benchmark's program (README.md beside this
// directory).  One process runs one workload:
//
//   agperf --workload NAME --seed N --seconds S --trace 0|1
//          [--tiny] [--inject-fault] [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics; --trace 1 makes the traced run
// that gives the per-layer metrics.  The last line of standard output is the
// result record (JSON).  Exit status: 0 when every output checked correct,
// 1 when one did not, 2 on a usage or set-up error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sched.h>
#include <stdexcept>
#include <string>
#include <sys/resource.h>

#include "common.hpp"
#include "gf/backend/backend.hpp"

namespace perf {

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  out += '"';
  return out;
}

void Report::note(std::string key, double v) { note(std::move(key), json_number(v)); }

void Report::record(const Verdict& v, std::string_view what) {
  ++attempted_;
  if (v.ok()) return;
  ++failed_;
  correct_ = false;
  for (const std::string& p : v.problems()) {
    std::fprintf(stderr, "agperf: WRONG OUTPUT (%.*s): %s\n",
                 static_cast<int>(what.size()), what.data(), p.c_str());
  }
}

void Report::record_frames(std::uint64_t sent, std::uint64_t dropped,
                           std::uint64_t decode_failures) {
  attempted_ += sent;
  failed_ += dropped + decode_failures;
}

std::string Report::json(const Options& o) const {
  std::string s = "{\"correct\": ";
  s += correct_ ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted_);
  s += ", \"failed\": " + std::to_string(failed_);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i != 0) s += ", ";
    s += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
         ", \"unit\": " + json_string(m.unit) + "}";
  }
  s += "}, \"provenance\": {\"workload\": " + json_string(o.workload);
  s += ", \"seed\": " + std::to_string(o.seed);
  s += ", \"gf_backend\": " +
       json_string(ag::gf::backend::to_string(ag::gf::backend::active_backend()));
  s += ", \"nproc\": " + std::to_string(nproc());
  s += ", \"shards\": " + std::to_string(o.shards);
  s += ", \"build_type\": " + json_string(AGPERF_BUILD_TYPE);
  s += ", \"size\": " + json_string(o.tiny ? "tiny" : "full");
  s += ", \"trace\": " + std::to_string(o.trace ? 1 : 0);
  s += "}, \"details\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i != 0) s += ", ";
    s += json_string(notes_[i].first) + ": " + notes_[i].second;
  }
  s += "}}";
  return s;
}

// ---------------------------------------------------------------------------
// Statistics and process facts
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double tail(std::vector<double> v) {
  if (v.size() < 21) return median(std::move(v));
  std::sort(v.begin(), v.end());
  return v[v.size() - 11];
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int c = CPU_COUNT(&set);
    if (c > 0) return static_cast<std::size_t>(c);
  }
  return 1;
}

double peak_rss_mib() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

std::int32_t Tracer::open(std::string name, std::int32_t parent) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.root = parent < 0 ? id : spans_[parent].root;
  s.start_ns = ns_between(origin_, Clock::now());
  spans_.push_back(std::move(s));
  return id;
}

void Tracer::close(std::int32_t id, std::uint64_t count) {
  spans_[id].end_ns = ns_between(origin_, Clock::now());
  spans_[id].count = count;
}

void Tracer::aggregate(std::int32_t parent, std::string name, std::uint64_t count,
                       std::int64_t total_ns) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.root = spans_[parent].root;
  s.start_ns = spans_[parent].start_ns;
  s.end_ns = s.start_ns + total_ns;
  s.count = count;
  s.aggregate = true;
  spans_.push_back(std::move(s));
}

Tracer::Totals Tracer::totals(std::int32_t root, std::string_view name) const {
  Totals t;
  for (const Span& s : spans_) {
    if (s.root != root || s.name != name) continue;
    const double sec = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.seconds += sec;
    t.count += s.count;
    t.each_s.push_back(sec);
  }
  return t;
}

bool Tracer::write_jsonl(const std::string& path, std::string_view workload) const {
  std::ofstream f(path);
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\": " << i << ", \"workload\": " << json_string(workload)
      << ", \"name\": " << json_string(s.name) << ", \"parent\": " << s.parent
      << ", \"root\": " << s.root << ", \"start_ns\": " << s.start_ns
      << ", \"end_ns\": " << s.end_ns << ", \"count\": " << s.count
      << ", \"aggregate\": " << (s.aggregate ? "true" : "false") << "}\n";
  }
  return static_cast<bool>(f);
}

// ---------------------------------------------------------------------------
// Shared metric emitters
// ---------------------------------------------------------------------------

void emit_sim_phase_metrics(Report& rep, const Tracer& tr, std::int32_t root) {
  const Tracer::Totals act = tr.totals(root, "activate");
  const Tracer::Totals er = tr.totals(root, "end_round");
  const Tracer::Totals send = tr.totals(root, "send");
  const Tracer::Totals ins = tr.totals(root, "insert");
  const double phases = act.seconds + er.seconds;
  // on_activate's self time (everything but the Mailbox send) is the
  // combination build plus one partner draw, per packet built.
  rep.metric("linalg.combine_us",
             1e6 * (act.seconds - send.seconds) / static_cast<double>(std::max<std::uint64_t>(send.count, 1)),
             "us");
  rep.metric("linalg.insert_us",
             1e6 * ins.seconds / static_cast<double>(std::max<std::uint64_t>(ins.count, 1)),
             "us");
  rep.metric("sim.activate_share", act.seconds / phases, "share");
  rep.metric("sim.end_round_share", er.seconds / phases, "share");
}

constexpr double kSlowSide = 0.75;

void emit_end_to_end(Report& rep, const std::vector<CallSample>& samples,
                     std::size_t batch, std::size_t payload_bytes) {
  std::vector<double> setup, wall, first_pass_rounds, node_rounds, decoded, packets;
  double sum_wall = 0, sum_decoded = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const CallSample& c = samples[i];
    setup.push_back(c.setup_s);
    wall.push_back(c.wall_s);
    node_rounds.push_back(c.node_rounds / c.wall_s);
    decoded.push_back(c.decoded / c.wall_s);
    packets.push_back(c.packets / c.wall_s);
    sum_wall += c.wall_s;
    sum_decoded += c.decoded;
    if (i < batch) first_pass_rounds.push_back(c.rounds);
  }
  // On a shared host the same call runs at a steady base speed, with bursts
  // up to ~1.8x faster; how often the bursts come drifts over minutes.  So
  // the call times are read on their slow side, the 75th percentile (rates:
  // the 25th), which tracks the base speed, not the share of bursts.  Set-up
  // is the median.
  rep.metric("setup_s", median(setup), "s");
  rep.metric("wall_s", quantile(wall, kSlowSide), "s");
  rep.metric("node_rounds_per_s", quantile(node_rounds, 1 - kSlowSide), "1/s");
  rep.metric("decoded_msgs_per_s", quantile(decoded, 1 - kSlowSide), "1/s");
  rep.metric("packets_per_s", quantile(packets, 1 - kSlowSide), "1/s");
  rep.metric("stopping_rounds", mean(first_pass_rounds), "rounds");
  rep.metric("peak_rss_MiB", peak_rss_mib(), "MiB");
  std::string each = "[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i != 0) each += ", ";
    each += "[";
    each += json_number(samples[i].wall_s);
    each += ", ";
    each += json_number(samples[i].rounds);
    each += ", ";
    each += json_number(samples[i].setup_s);
    each += "]";
  }
  each += "]";
  rep.note("calls_wall_s_rounds_setup_s", each);
  rep.note("calls", static_cast<double>(samples.size()));
  rep.note("batch", static_cast<double>(batch));
  rep.note("wall_s_total", sum_wall);
  std::string quartiles = "[";
  quartiles += json_number(quantile(wall, 0.25));
  quartiles += ", ";
  quartiles += json_number(quantile(wall, 0.75));
  quartiles += "]";
  rep.note("wall_s_quartiles", quartiles);
  rep.note("wall_s_median", median(wall));
  rep.note("wall_s_tail", tail(wall));
  if (payload_bytes > 0) {
    rep.note("decoded_MBps", sum_decoded * static_cast<double>(payload_bytes) / sum_wall * 1e-6);
  }
}

namespace {

// ---------------------------------------------------------------------------
// Workload table, and the home workload of each single-workload layer metric
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  void (*measure)(const Options&, Report&);
  void (*traced)(const Options&, Report&, Tracer&);
};

constexpr Workload kWorkloads[] = {
    {"rank-gf2-complete", rank_measure, rank_traced},
    {"payload-gf256-regular", payload_measure, payload_traced},
    {"udp-swarm-loopback", udp_measure, udp_traced},
    {"stream-gf256-window", stream_measure, stream_traced},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

// Per-layer metrics that only one workload exercises, by that (home)
// workload.  A traced run of another workload fills them from a tiny-size
// traced run of the home workload, so every traced record has the same keys;
// compare them on their home workload only.
struct HomeMetric {
  const char* metric;
  const char* home;
};
constexpr HomeMetric kHomeMetrics[] = {
    {"sharded_round.round_ms_p50", "rank-gf2-complete"},
    {"sharded_round.round_ms_tail", "rank-gf2-complete"},
    {"sharded_round.speedup", "rank-gf2-complete"},
    {"net.send_us", "udp-swarm-loopback"},
    {"net.drain_self_us", "udp-swarm-loopback"},
    {"net.idle_share", "udp-swarm-loopback"},
    {"net.frames_dropped", "udp-swarm-loopback"},
    {"net.decode_failures", "udp-swarm-loopback"},
    {"coding.round_us", "stream-gf256-window"},
    {"coding.stalled_share", "stream-gf256-window"},
};

void run_traced(const Workload& w, const Options& o, Report& rep) {
  Tracer tr;
  w.traced(o, rep, tr);
  probe_gf(rep);
  probe_codec(rep);
  rep.metric("trace_overhead_share", rep.traced_s / rep.untraced_s - 1.0, "share");

  std::string companions = "[";
  for (const Workload& home : kWorkloads) {
    if (&home == &w) continue;
    bool needed = false;
    for (const HomeMetric& hm : kHomeMetrics)
      needed |= hm.home == std::string_view(home.name) && !rep.has(hm.metric);
    if (!needed) continue;
    Options co = o;
    co.workload = home.name;
    co.tiny = true;
    co.inject_fault = false;
    Report crep;
    Tracer ctr;
    home.traced(co, crep, ctr);
    if (!crep.correct()) {
      Verdict v;
      v.expect(false, std::string("companion run of ") + home.name + " failed");
      rep.record(v, "companion");
    }
    for (const HomeMetric& hm : kHomeMetrics) {
      if (hm.home != std::string_view(home.name) || rep.has(hm.metric)) continue;
      for (const Report::Metric& m : crep.metrics())
        if (m.name == hm.metric) rep.metric(m.name, m.value, m.unit);
    }
    if (companions.size() > 1) companions += ", ";
    companions += json_string(home.name);
  }
  companions += "]";
  rep.note("companion_runs", companions);

  if (!o.trace_out.empty() && !tr.write_jsonl(o.trace_out, o.workload)) {
    throw std::runtime_error("cannot write trace file " + o.trace_out);
  }
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "agperf: %s\nusage: agperf --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--inject-fault] [--trace-out FILE]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        o.trace = t == "1";
      } else if (a == "--trace-out") {
        o.trace_out = value();
      } else if (a == "--tiny") {
        o.tiny = true;
      } else if (a == "--inject-fault") {
        o.inject_fault = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload || find_workload(o.workload) == nullptr) usage("unknown workload");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  // Two shards leave the other vCPUs of a shared machine to its other
  // tenants: with one shard per vCPU, any neighbour's process stalls a shard
  // and the whole round waits for it at the barrier.
  o.shards = std::min<std::size_t>(2, nproc());
  return o;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  const perf::Options o = perf::parse(argc, argv);
  const perf::Workload& w = *perf::find_workload(o.workload);
  perf::Report rep;
  try {
    if (o.trace) {
      perf::run_traced(w, o, rep);
    } else {
      w.measure(o, rep);
    }
    std::printf("%s\n", rep.json(o).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "agperf: %s\n", e.what());
    return 2;
  }
  std::fflush(stdout);
  return rep.correct() ? 0 : 1;
}
