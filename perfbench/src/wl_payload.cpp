// payload-gf256-regular: the paper's constant-degree case, where uniform AG
// is order optimal at Theta(k + D) (Theorem 3).  Classic
// UniformAG<Gf256Decoder> run by sim::run on a random 4-regular graph, k
// messages at k distinct nodes, 1 KiB payloads, and a byte-exact decode of
// every message at every node.  Long-row GF(256) axpy in combine and insert
// dominates, with the Mailbox envelope copies.
#include <algorithm>
#include <memory>
#include <string>

#include "common.hpp"
#include "core/bounds.hpp"
#include "core/decoders.hpp"
#include "core/uniform_ag.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace perf {
namespace {

using Proto = ag::core::UniformAG<ag::core::Gf256Decoder>;
using Swarm = ag::core::RlncSwarm<ag::core::Gf256Decoder>;
using Packet = Proto::packet_type;

struct Size {
  std::size_t n, degree, k, payload, batch;
};
Size size_of(const Options& o) {
  return o.tiny ? Size{64, 4, 8, 64, 2} : Size{256, 4, 64, 1024, 48};
}

constexpr std::uint64_t kMaxRounds = 100000;

/// One input: the graph, the placement and the protocol's RNG stream, all
/// drawn from (seed, input).
struct Input {
  ag::graph::Graph g;
  ag::core::Placement pl;
  ag::sim::Rng rng;
};

Input make_input(const Options& o, const Size& z, std::size_t input) {
  ag::sim::Rng rng = ag::sim::Rng::for_run(o.seed, input);
  const std::uint64_t graph_seed = rng();
  ag::graph::Graph g = ag::graph::make_random_regular(z.n, z.degree, graph_seed);
  ag::core::Placement pl = ag::core::uniform_distinct(z.k, z.n, rng);
  return Input{std::move(g), std::move(pl), rng};
}

ag::core::AgConfig config(const Size& z) {
  ag::core::AgConfig cfg;
  cfg.payload_len = z.payload;
  return cfg;
}

/// Byte-exact decode of every message at every node.  `corrupt` flips one
/// byte of one observed decoded message before it is compared.
void check_decodes(const Swarm& sw, bool completed, const Size& z, bool corrupt,
                   Report& rep, std::string_view what) {
  Verdict v;
  v.expect(completed, "run hit the round budget");
  std::vector<std::vector<std::uint8_t>> want(z.k);
  for (std::size_t i = 0; i < z.k; ++i) want[i] = Swarm::expected_payload(i, z.payload);
  std::size_t wrong = 0;
  for (std::size_t u = 0; u < z.n; ++u) {
    const auto& d = sw.node(static_cast<ag::sim::NodeId>(u));
    if (!d.full_rank()) {
      wrong += z.k;
      continue;
    }
    for (std::size_t i = 0; i < z.k; ++i) {
      const auto got = d.decoded_message(i);
      if (corrupt && u == z.n / 2 && i == 0) {
        std::vector<std::uint8_t> copy(got.begin(), got.end());
        copy[0] ^= 1;
        wrong += copy != want[i];
      } else {
        wrong += !std::equal(got.begin(), got.end(), want[i].begin(), want[i].end());
      }
    }
  }
  v.expect(wrong == 0, std::to_string(wrong) + " (node, message) decodes are wrong");
  v.expect(sw.helpful_receives() == z.n * z.k - z.k, "helpful count is not n*k - k");
  rep.record(v, what);
}

}  // namespace

void payload_measure(const Options& o, Report& rep) {
  const Size z = size_of(o);
  bool corrupt = o.inject_fault;
  std::vector<double> ratios;
  const auto call = [&](std::size_t input) {
    CallSample c;
    const auto t0 = Clock::now();
    Input in = make_input(o, z, input);
    Proto proto(in.g, in.pl, config(z));
    const auto t1 = Clock::now();
    const ag::sim::RunResult res = ag::sim::run(proto, in.rng, kMaxRounds);
    const auto t2 = Clock::now();
    c.setup_s = static_cast<double>(ns_between(t0, t1)) * 1e-9;
    c.wall_s = static_cast<double>(ns_between(t1, t2)) * 1e-9;
    c.rounds = static_cast<double>(res.rounds);
    c.node_rounds = c.rounds * static_cast<double>(z.n);
    c.decoded = static_cast<double>(z.n * z.k);
    c.packets = static_cast<double>(proto.transport_stats().messages_delivered);
    check_decodes(proto.swarm(), res.completed, z, corrupt, rep, "payload run");
    corrupt = false;
    if (ratios.size() < z.batch) {
      ratios.push_back(c.rounds / ag::core::avin_bound(z.k, z.n, ag::graph::diameter(in.g),
                                                       in.g.max_degree()));
    }
    return c;
  };
  emit_end_to_end(rep, measure(o, z.batch, call), z.batch, z.payload);
  rep.note("avin_bound_ratio", mean(ratios));
}

void payload_traced(const Options& o, Report& rep, Tracer& tr) {
  const Size z = size_of(o);

  Input ref_in = make_input(o, z, 0);
  Proto ref(ref_in.g, ref_in.pl, config(z));
  const auto t0 = Clock::now();
  const ag::sim::RunResult ref_res = ag::sim::run(ref, ref_in.rng, kMaxRounds);
  const double ref_wall = seconds_since(t0);
  check_decodes(ref.swarm(), ref_res.completed, z, false, rep, "untraced payload run");

  Input in = make_input(o, z, 0);
  Proto proto(in.g, in.pl, config(z));
  auto transport = std::make_unique<TimedSimTransport<Packet>>();
  const TimedSimTransport<Packet>& tt = *transport;
  proto.set_transport(std::move(transport));
  const std::int32_t root = tr.open("payload");
  const ag::sim::RunResult res = traced_sim_run(proto, in.rng, kMaxRounds, tr, root, tt);
  tr.close(root, res.rounds);
  check_decodes(proto.swarm(), res.completed, z, o.inject_fault, rep, "traced payload run");

  Verdict fidelity;
  fidelity.expect(res.rounds == ref_res.rounds, "traced rounds differ from untraced");
  fidelity.expect(proto.swarm().helpful_receives() == ref.swarm().helpful_receives(),
                  "traced helpful count differs from untraced");
  fidelity.expect(proto.swarm().useless_receives() == ref.swarm().useless_receives(),
                  "traced useless count differs from untraced");
  rep.record(fidelity, "trace fidelity");
  rep.traced_s += tr.seconds(root);
  rep.untraced_s += ref_wall;

  emit_sim_phase_metrics(rep, tr, root);
  const std::uint64_t helpful = proto.swarm().helpful_receives();
  const std::uint64_t inserts = helpful + proto.swarm().useless_receives();
  rep.metric("linalg.inserts", static_cast<double>(inserts), "count");
  rep.metric("linalg.helpful_ratio", static_cast<double>(helpful) / static_cast<double>(inserts),
             "ratio");
  rep.metric("sim.messages_sent", static_cast<double>(tt.stats().messages_sent), "count");
  rep.metric("sim.messages_delivered", static_cast<double>(tt.stats().messages_delivered),
             "count");
  probe_sample(rep, ag::sim::StaticTopology(in.g));

  rep.note("stopping_rounds", static_cast<double>(ref_res.rounds));
  rep.note("avin_bound_ratio",
           static_cast<double>(ref_res.rounds) /
               ag::core::avin_bound(z.k, z.n, ag::graph::diameter(in.g), in.g.max_degree()));
}

}  // namespace perf
