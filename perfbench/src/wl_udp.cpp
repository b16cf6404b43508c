// udp-swarm-loopback: the only workload that crosses the wire codec, real
// sockets and gossiped completion.  net::run_swarm over one UdpSocketSet
// hosting every node on loopback (no fork): GF(256), one source holding k
// blocks, files run back to back with distinct seeds.  Traffic crosses the
// host's loopback interface, never a real link.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "core/decoders.hpp"
#include "core/dissemination.hpp"
#include "core/swarm.hpp"
#include "net/swarm_runner.hpp"
#include "net/udp_socket.hpp"
#include "net/udp_transport.hpp"

namespace perf {
namespace {

using ag::net::Gf256Packet;
using ag::net::NodeId;
using Transport = ag::net::UdpTransport<Gf256Packet>;
using Swarm = ag::core::RlncSwarm<ag::core::Gf256Decoder>;

struct Size {
  std::size_t n, k, payload, files, traced_files;
};
Size size_of(const Options& o) {
  return o.tiny ? Size{16, 8, 64, 2, 1} : Size{64, 64, 1024, 24, 4};
}

/// Every node of the swarm on its own loopback socket, all in this process.
class Loopback {
 public:
  explicit Loopback(const Size& z) {
    if (!socks_.open_loopback(z.n)) throw std::runtime_error("cannot bind loopback sockets");
    ag::net::EndpointTable table(z.n);
    std::vector<NodeId> local(z.n);
    for (std::size_t v = 0; v < z.n; ++v) {
      table.set(static_cast<NodeId>(v), ag::net::Endpoint{ag::net::kLoopbackAddr, socks_.port(v)});
      local[v] = static_cast<NodeId>(v);
    }
    transport_ = std::make_unique<Transport>(socks_, std::move(table), std::move(local), z.k,
                                             z.payload);
  }
  Transport& transport() { return *transport_; }

 private:
  ag::net::UdpSocketSet socks_;
  std::unique_ptr<Transport> transport_;  // borrows socks_
};

ag::net::SwarmConfig swarm_config(const Options& o, const Size& z, std::size_t file) {
  ag::net::SwarmConfig cfg;
  cfg.n = z.n;
  cfg.k = z.k;
  cfg.payload_len = z.payload;
  cfg.seed = ag::sim::Rng::for_run(o.seed, file)();
  return cfg;
}

void check_file(const ag::net::SwarmReport& r, bool corrupt, Report& rep,
                std::string_view what) {
  Verdict v;
  v.expect(r.completed, "swarm did not complete before its timeout");
  v.expect(r.payload_ok && !corrupt, "a node decoded a block to the wrong bytes");
  rep.record(v, what);
  rep.record_frames(r.transport.messages_sent, r.transport.messages_dropped,
                    r.transport.decode_failures);
}

// --- the traced copy of net::run_swarm -------------------------------------

struct Bitmap {
  explicit Bitmap(std::size_t n) : bits((n + 7) / 8, 0), n_(n) {}
  void set(std::size_t i) { bits[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8)); }
  bool get(std::size_t i) const { return (bits[i / 8] >> (i % 8)) & 1u; }
  void merge(const std::vector<std::uint8_t>& other) {
    const std::size_t m = std::min(other.size(), bits.size());
    for (std::size_t i = 0; i < m; ++i) bits[i] |= other[i];
  }
  bool all() const {
    for (std::size_t i = 0; i < n_; ++i)
      if (!get(i)) return false;
    return true;
  }
  std::vector<std::uint8_t> bits;
  std::size_t n_;
};

struct TracedFile {
  ag::net::SwarmReport report;
  std::uint64_t helpful = 0, useless = 0;
};

/// net::run_swarm's loop driven from here through UdpTransport's public
/// send, drain, take_control and wait_readable, with a span per tick and per
/// phase.  Draws, sends and completion follow run_swarm exactly; the final
/// check compares every decoded block with the source bytes.
TracedFile traced_swarm(Transport& transport, const ag::net::SwarmConfig& cfg, Tracer& tr,
                        std::int32_t root, bool corrupt) {
  using ag::net::ControlFrame;
  TracedFile out;
  ag::net::SwarmReport& report = out.report;
  const std::vector<NodeId>& local = transport.local_nodes();
  Swarm swarm(cfg.n, ag::core::single_source(cfg.k, 0), cfg.payload_len);
  ag::sim::Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + local.front() + 1);

  Bitmap done(cfg.n);
  Gf256Packet tx;
  ControlFrame bitmap_frame;
  std::uint64_t inserts = 0;
  std::int64_t insert_ns = 0;
  const auto deliver_fn = [&](NodeId, NodeId to, const Gf256Packet& pkt) {
    const auto t0 = Clock::now();
    swarm.receive(to, pkt, report.ticks);
    insert_ns += ns_between(t0, Clock::now());
    ++inserts;
  };
  const auto random_peer = [&](NodeId self) {
    auto u = static_cast<NodeId>(rng.uniform(cfg.n - 1));
    if (u >= self) ++u;
    return u;
  };
  const auto send_bitmap = [&](NodeId from) {
    bitmap_frame.sender = from;
    bitmap_frame.data = done.bits;
    transport.send_control(from, random_peer(from), bitmap_frame);
  };
  const auto drain = [&](std::int32_t parent) {
    const std::int32_t d = tr.open("drain", parent);
    const std::uint64_t i0 = inserts;
    const std::int64_t n0 = insert_ns;
    auto thunk = deliver_fn;
    transport.drain(ag::sim::DeliverRef<Gf256Packet>(thunk));
    tr.aggregate(d, "insert", inserts - i0, insert_ns - n0);
    tr.close(d, inserts - i0);
  };
  const auto idle = [&](std::int32_t parent) {
    const std::int32_t s = tr.open("idle", parent);
    transport.wait_readable(1);
    tr.close(s);
  };

  const auto deadline = Clock::now() + std::chrono::milliseconds(cfg.timeout_ms);
  bool timed_out = false;
  while (!done.all()) {
    if (Clock::now() >= deadline) {
      timed_out = true;
      break;
    }
    ++report.ticks;
    const std::int32_t tick = tr.open("tick", root);
    const std::int32_t txs = tr.open("transmit", tick);
    std::uint64_t combines = 0, sends = 0;
    std::int64_t combine_ns = 0, send_ns = 0;
    for (const NodeId v : local) {
      const auto t0 = Clock::now();
      const bool have = swarm.combine_into(v, rng, tx);
      const auto t1 = Clock::now();
      combine_ns += ns_between(t0, t1);
      ++combines;
      if (have) {
        auto thunk = deliver_fn;
        transport.send(v, random_peer(v), tx, ag::sim::DeliverRef<Gf256Packet>(thunk));
        send_ns += ns_between(t1, Clock::now());
        ++sends;
      }
    }
    tr.aggregate(txs, "combine", combines, combine_ns);
    tr.aggregate(txs, "send", sends, send_ns);
    tr.close(txs, sends);
    drain(tick);
    const std::int32_t cs = tr.open("completion", tick);
    for (const NodeId v : local) {
      if (!done.get(v) && swarm.node(v).full_rank()) done.set(v);
    }
    for (const ControlFrame& cf : transport.take_control()) done.merge(cf.data);
    for (const NodeId v : local) send_bitmap(v);
    tr.close(cs);
    idle(tick);
    tr.close(tick);
  }
  report.completed = done.all();

  if (report.completed) {
    for (int g = 0; g < cfg.grace_ticks; ++g) {
      const std::int32_t tick = tr.open("grace_tick", root);
      const std::int32_t cs = tr.open("completion", tick);
      for (const NodeId v : local) send_bitmap(v);
      tr.close(cs);
      drain(tick);
      transport.take_control();
      idle(tick);
      tr.close(tick);
    }
  }

  if (report.completed && !timed_out) {
    std::vector<std::vector<std::uint8_t>> want(cfg.k);
    for (std::size_t i = 0; i < cfg.k; ++i) want[i] = Swarm::expected_payload(i, cfg.payload_len);
    report.payload_ok = true;
    for (const NodeId v : local) {
      const auto& d = swarm.node(v);
      for (std::size_t i = 0; i < cfg.k && report.payload_ok; ++i) {
        if (!d.full_rank()) {
          report.payload_ok = false;
          break;
        }
        std::vector<std::uint8_t> got(d.decoded_message(i).begin(), d.decoded_message(i).end());
        if (corrupt && v == local.back() && i == 0) got[0] ^= 1;
        report.payload_ok = got == want[i];
      }
    }
  }
  report.transport = transport.stats();
  out.helpful = swarm.helpful_receives();
  out.useless = swarm.useless_receives();
  return out;
}

}  // namespace

void udp_measure(const Options& o, Report& rep) {
  const Size z = size_of(o);
  bool corrupt = o.inject_fault;
  const auto call = [&](std::size_t file) {
    CallSample c;
    const ag::net::SwarmConfig cfg = swarm_config(o, z, file);
    const auto t0 = Clock::now();
    Loopback net(z);
    const auto t1 = Clock::now();
    const ag::net::SwarmReport r = ag::net::run_swarm(net.transport(), cfg);
    const auto t2 = Clock::now();
    c.setup_s = static_cast<double>(ns_between(t0, t1)) * 1e-9;
    c.wall_s = static_cast<double>(ns_between(t1, t2)) * 1e-9;
    c.rounds = static_cast<double>(r.ticks);
    c.node_rounds = c.rounds * static_cast<double>(z.n);
    c.decoded = static_cast<double>(z.n * z.k);
    c.packets = static_cast<double>(r.transport.messages_delivered);
    check_file(r, corrupt, rep, "udp file");
    corrupt = false;
    return c;
  };
  const std::vector<CallSample> samples = measure(o, z.files, call);
  emit_end_to_end(rep, samples, z.files, z.payload);
  double frames = 0, wall = 0;
  for (const CallSample& c : samples) {
    frames += c.packets;
    wall += c.wall_s;
  }
  rep.note("udp_frames_per_s", frames / wall);
  rep.note("udp_file_samples", static_cast<double>(samples.size()));
  rep.note("traffic", json_string("loopback interface only, one process"));
}

void udp_traced(const Options& o, Report& rep, Tracer& tr) {
  const Size z = size_of(o);
  const std::uint64_t helpful_expected = z.n * z.k - z.k;
  std::uint64_t helpful = 0, useless = 0;
  ag::sim::TransportStats stats;
  std::string ticks = "[";
  const std::int32_t root = tr.open("udp");
  for (std::size_t file = 0; file < z.traced_files; ++file) {
    const ag::net::SwarmConfig cfg = swarm_config(o, z, file);
    ag::net::SwarmReport plain;
    {
      Loopback net(z);
      const auto t0 = Clock::now();
      plain = ag::net::run_swarm(net.transport(), cfg);
      rep.untraced_s += seconds_since(t0);
    }
    check_file(plain, false, rep, "untraced udp file");

    Loopback net(z);
    const std::int32_t span = tr.open("udp_file", root);
    const TracedFile t = traced_swarm(net.transport(), cfg, tr, span,
                                      o.inject_fault && file == 0);
    tr.close(span, t.report.ticks);
    rep.traced_s += tr.seconds(span);
    check_file(t.report, false, rep, "traced udp file");
    Verdict fidelity;
    fidelity.expect(t.helpful == helpful_expected, "traced helpful count is not n*k - k");
    rep.record(fidelity, "trace fidelity");
    helpful += t.helpful;
    useless += t.useless;
    stats.messages_sent += t.report.transport.messages_sent;
    stats.messages_delivered += t.report.transport.messages_delivered;
    stats.messages_dropped += t.report.transport.messages_dropped;
    stats.decode_failures += t.report.transport.decode_failures;
    if (file != 0) ticks += ", ";
    ticks += "[";
    ticks += std::to_string(plain.ticks);
    ticks += ", ";
    ticks += std::to_string(t.report.ticks);
    ticks += "]";
  }
  ticks += "]";
  tr.close(root);

  const auto sum = [&](std::string_view name) { return tr.totals(root, name); };
  const Tracer::Totals transmit = sum("transmit"), drain = sum("drain"),
                       completion = sum("completion"), combine = sum("combine"),
                       send = sum("send"), insert = sum("insert");
  const double files_s = sum("udp_file").seconds;
  const auto per = [](double s, std::uint64_t count) {
    return s / static_cast<double>(std::max<std::uint64_t>(count, 1));
  };
  rep.metric("linalg.combine_us", 1e6 * per(combine.seconds, combine.count), "us");
  rep.metric("linalg.insert_us", 1e6 * per(insert.seconds, insert.count), "us");
  rep.metric("linalg.inserts", static_cast<double>(helpful + useless), "count");
  rep.metric("linalg.helpful_ratio",
             static_cast<double>(helpful) / static_cast<double>(helpful + useless), "ratio");
  const double busy = transmit.seconds + drain.seconds + completion.seconds;
  rep.metric("sim.activate_share", transmit.seconds / busy, "share");
  rep.metric("sim.end_round_share", (drain.seconds + completion.seconds) / busy, "share");
  rep.metric("sim.messages_sent", static_cast<double>(stats.messages_sent), "count");
  rep.metric("sim.messages_delivered", static_cast<double>(stats.messages_delivered), "count");
  probe_sample(rep, ag::sim::CompleteTopology(z.n));
  rep.metric("net.send_us", 1e6 * per(send.seconds, send.count), "us");
  rep.metric("net.drain_self_us", 1e6 * per(drain.seconds - insert.seconds, insert.count),
             "us");
  rep.metric("net.idle_share", sum("idle").seconds / files_s, "share");
  rep.metric("net.frames_dropped", static_cast<double>(stats.messages_dropped), "count");
  rep.metric("net.decode_failures", static_cast<double>(stats.decode_failures), "count");

  rep.note("ticks_untraced_traced", ticks);
  rep.note("grace_share", sum("grace_tick").seconds / files_s);
  rep.note("traffic", json_string("loopback interface only, one process"));
}

}  // namespace perf
