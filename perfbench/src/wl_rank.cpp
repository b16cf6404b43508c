// rank-gf2-complete: the scaling path.  ShardedUniformAG<BitRankTracker,
// BitRankStore> on the implicit complete graph, EXCHANGE, k messages at k
// distinct uniformly drawn nodes, no payload.  A GF(2) row at k = 64 is one
// 64-bit word, so per-call kernel dispatch, the sharded deliver-sort and the
// round barrier dominate.
#include <memory>
#include <string>

#include "common.hpp"
#include "core/bounds.hpp"
#include "core/sharded_round.hpp"
#include "core/uniform_ag.hpp"
#include "linalg/rank_tracker.hpp"

namespace perf {
namespace {

using Sharded = ag::core::ShardedUniformAG<ag::linalg::BitRankTracker, ag::core::BitRankStore>;
using Classic = ag::core::UniformAG<ag::linalg::BitRankTracker, ag::core::BitRankStore>;
using Packet = Classic::packet_type;

struct Size {
  std::size_t n, k, batch;
};
Size size_of(const Options& o) { return o.tiny ? Size{2000, 16, 2} : Size{20000, 64, 8}; }

constexpr std::uint64_t kMaxRounds = 10000;

ag::core::Placement placement(const Options& o, const Size& z, std::size_t input) {
  ag::sim::Rng rng = ag::sim::Rng::for_run(o.seed, input);
  return ag::core::uniform_distinct(z.k, z.n, rng);
}

std::unique_ptr<Sharded> make_sharded(const Options& o, const Size& z, std::size_t input,
                                      std::size_t shards) {
  return std::make_unique<Sharded>(std::make_unique<ag::sim::CompleteTopology>(z.n),
                                   placement(o, z, input), ag::core::AgConfig{}, o.seed,
                                   input, shards);
}

/// Full rank at every node; every node but the k owners gained exactly k
/// helpful packets.  `corrupt` lowers one observed rank before the check.
template <typename Swarm>
void check_full_rank(const Swarm& sw, bool completed, const Size& z, bool corrupt,
                     Report& rep, std::string_view what) {
  Verdict v;
  v.expect(completed, "run hit the round budget");
  std::vector<std::size_t> ranks(z.n);
  for (std::size_t u = 0; u < z.n; ++u) ranks[u] = sw.node(static_cast<ag::sim::NodeId>(u)).rank();
  if (corrupt) --ranks[z.n / 2];
  std::size_t short_nodes = 0;
  for (const std::size_t r : ranks) short_nodes += r != z.k;
  v.expect(short_nodes == 0, std::to_string(short_nodes) + " nodes below full rank");
  v.expect(sw.complete_count() == z.n, "completion count is not n");
  v.expect(sw.helpful_receives() == z.n * z.k - z.k, "helpful count is not n*k - k");
  rep.record(v, what);
}

double avin_ratio(double rounds, const Size& z) {
  return rounds / ag::core::avin_bound(z.k, z.n, 1, z.n - 1);
}

struct ShardedTrace {
  std::uint64_t rounds = 0;
  double wall_s = 0;
  std::int32_t root = -1;
};

/// The sharded engine driven round by round from here, one span per round.
ShardedTrace traced_sharded(Sharded& proto, Tracer& tr, const std::string& root_name) {
  ShardedTrace t;
  t.root = tr.open(root_name);
  while (!proto.finished() && t.rounds < kMaxRounds) {
    const std::int32_t r = tr.open("step_round", t.root);
    proto.step_round();
    tr.close(r);
    ++t.rounds;
  }
  tr.close(t.root, t.rounds);
  t.wall_s = tr.seconds(t.root);
  return t;
}

}  // namespace

void rank_measure(const Options& o, Report& rep) {
  const Size z = size_of(o);
  bool corrupt = o.inject_fault;
  std::vector<double> ratios;
  const auto call = [&](std::size_t input) {
    CallSample c;
    const auto t0 = Clock::now();
    std::unique_ptr<Sharded> proto = make_sharded(o, z, input, o.shards);
    const auto t1 = Clock::now();
    const ag::sim::RunResult res = proto->run(kMaxRounds);
    const auto t2 = Clock::now();
    c.setup_s = static_cast<double>(ns_between(t0, t1)) * 1e-9;
    c.wall_s = static_cast<double>(ns_between(t1, t2)) * 1e-9;
    c.rounds = static_cast<double>(res.rounds);
    c.node_rounds = c.rounds * static_cast<double>(z.n);
    c.decoded = static_cast<double>(z.n * z.k);
    c.packets = static_cast<double>(proto->messages_delivered());
    check_full_rank(proto->swarm(), res.completed, z, corrupt, rep, "sharded run");
    corrupt = false;
    if (ratios.size() < z.batch) ratios.push_back(avin_ratio(c.rounds, z));
    return c;
  };
  emit_end_to_end(rep, measure(o, z.batch, call), z.batch);
  rep.note("avin_bound_ratio", mean(ratios));
  rep.note("n", static_cast<double>(z.n));
  rep.note("k", static_cast<double>(z.k));
}

void rank_traced(const Options& o, Report& rep, Tracer& tr) {
  const Size z = size_of(o);
  const std::size_t input = 0;

  // Untraced reference on the same input.
  std::unique_ptr<Sharded> ref = make_sharded(o, z, input, o.shards);
  const auto t0 = Clock::now();
  const ag::sim::RunResult ref_res = ref->run(kMaxRounds);
  const double ref_wall = seconds_since(t0);
  check_full_rank(ref->swarm(), ref_res.completed, z, false, rep, "untraced sharded run");

  // Traced at min(2, nproc) shards and at 1 shard.
  std::unique_ptr<Sharded> wide = make_sharded(o, z, input, o.shards);
  const ShardedTrace tw = traced_sharded(*wide, tr, "sharded.S" + std::to_string(o.shards));
  check_full_rank(wide->swarm(), wide->finished(), z, o.inject_fault, rep,
                  "traced sharded run");
  std::unique_ptr<Sharded> one = make_sharded(o, z, input, 1);
  const ShardedTrace t1 = traced_sharded(*one, tr, "sharded.S1");
  check_full_rank(one->swarm(), one->finished(), z, false, rep, "traced 1-shard run");

  Verdict fidelity;
  fidelity.expect(tw.rounds == ref_res.rounds, "traced rounds differ from untraced");
  fidelity.expect(wide->swarm().useless_receives() == ref->swarm().useless_receives(),
                  "traced useless count differs from untraced");
  fidelity.expect(t1.rounds == tw.rounds, "1-shard rounds differ from sharded rounds");
  fidelity.expect(one->swarm().useless_receives() == wide->swarm().useless_receives(),
                  "1-shard useless count differs from sharded");
  rep.record(fidelity, "trace fidelity");
  rep.traced_s += tw.wall_s;
  rep.untraced_s += ref_wall;

  std::vector<double> round_ms = tr.totals(tw.root, "step_round").each_s;
  for (double& x : round_ms) x *= 1e3;
  rep.metric("sharded_round.round_ms_p50", median(round_ms), "ms");
  rep.metric("sharded_round.round_ms_tail", tail(round_ms), "ms");
  rep.metric("sharded_round.speedup", t1.wall_s / tw.wall_s, "x");

  // Classic-engine attribution on the same placement: the bench-owned copy
  // of sim::run times on_activate and end_round, and the timing transport
  // times every send and insert.
  const ag::core::Placement pl = placement(o, z, input);
  Classic plain(std::make_unique<ag::sim::CompleteTopology>(z.n), pl, ag::core::AgConfig{});
  ag::sim::Rng plain_rng = ag::sim::Rng::for_stream(o.seed, 1);
  const auto c0 = Clock::now();
  const ag::sim::RunResult plain_res = ag::sim::run(plain, plain_rng, kMaxRounds);
  const double plain_wall = seconds_since(c0);
  check_full_rank(plain.swarm(), plain_res.completed, z, false, rep, "untraced classic run");

  Classic traced(std::make_unique<ag::sim::CompleteTopology>(z.n), pl, ag::core::AgConfig{});
  auto transport = std::make_unique<TimedSimTransport<Packet>>();
  const TimedSimTransport<Packet>& tt = *transport;
  traced.set_transport(std::move(transport));
  ag::sim::Rng traced_rng = ag::sim::Rng::for_stream(o.seed, 1);
  const std::int32_t root = tr.open("classic");
  const ag::sim::RunResult traced_res =
      traced_sim_run(traced, traced_rng, kMaxRounds, tr, root, tt);
  tr.close(root, traced_res.rounds);
  check_full_rank(traced.swarm(), traced_res.completed, z, false, rep, "traced classic run");

  Verdict classic_fidelity;
  classic_fidelity.expect(traced_res.rounds == plain_res.rounds,
                          "traced classic rounds differ from untraced");
  classic_fidelity.expect(
      traced.swarm().useless_receives() == plain.swarm().useless_receives(),
      "traced classic useless count differs from untraced");
  rep.record(classic_fidelity, "classic trace fidelity");
  rep.traced_s += tr.seconds(root);
  rep.untraced_s += plain_wall;

  emit_sim_phase_metrics(rep, tr, root);
  const std::uint64_t helpful = traced.swarm().helpful_receives();
  const std::uint64_t inserts = helpful + traced.swarm().useless_receives();
  rep.metric("linalg.inserts", static_cast<double>(inserts), "count");
  rep.metric("linalg.helpful_ratio", static_cast<double>(helpful) / static_cast<double>(inserts),
             "ratio");
  rep.metric("sim.messages_sent", static_cast<double>(tt.stats().messages_sent), "count");
  rep.metric("sim.messages_delivered", static_cast<double>(tt.stats().messages_delivered),
             "count");
  probe_sample(rep, ag::sim::CompleteTopology(z.n));

  rep.note("stopping_rounds", static_cast<double>(ref_res.rounds));
  rep.note("stopping_rounds_1_shard", static_cast<double>(t1.rounds));
  rep.note("classic_stopping_rounds", static_cast<double>(plain_res.rounds));
  rep.note("avin_bound_ratio", avin_ratio(static_cast<double>(ref_res.rounds), z));
  rep.note("sharded_helpful", static_cast<double>(ref->swarm().helpful_receives()));
  rep.note("sharded_useless", static_cast<double>(ref->swarm().useless_receives()));
  rep.note("round_ms_tail_samples", static_cast<double>(round_ms.size()));
}

}  // namespace perf
