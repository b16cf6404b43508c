// stream-gf256-window: the generation-windowed coding layer.
// StreamingSwarm<Gf256Decoder> on the implicit complete graph, rarest-first
// generation choice, 4 injections per round.  Many small decoders are
// recycled (RlncSwarm::restart) as the window slides, so the scheduler and
// the lane restarts are measured here and nowhere else.
#include <algorithm>
#include <memory>
#include <string>

#include "coding/streaming_swarm.hpp"
#include "common.hpp"
#include "core/bounds.hpp"
#include "core/decoders.hpp"

namespace perf {
namespace {

using Proto = ag::coding::StreamingSwarm<ag::core::Gf256Decoder>;
using Msg = Proto::message_type;

struct Size {
  std::size_t n, batch;
  ag::coding::StreamConfig cfg;
};

Size size_of(const Options& o) {
  Size z{};
  z.cfg.policy = ag::coding::GenPolicy::RarestFirst;
  if (o.tiny) {
    z.n = 32;
    z.batch = 2;
    z.cfg.generation_size = 8;
    z.cfg.window = 2;
    z.cfg.payload_len = 32;
    z.cfg.inject_per_round = 2;
    z.cfg.total_messages = 128;
  } else {
    z.n = 64;
    z.batch = 32;
    z.cfg.generation_size = 16;
    z.cfg.window = 4;
    z.cfg.payload_len = 256;
    z.cfg.inject_per_round = 4;
    z.cfg.total_messages = 1024;
  }
  return z;
}

constexpr std::uint64_t kMaxRounds = 10'000'000;

/// Checks every in-order delivery against the source bytes as it happens.
class DeliveryCheck {
 public:
  DeliveryCheck(const Size& z, bool corrupt)
      : want_(z.cfg.total_messages), next_(z.n, 0), corrupt_(corrupt) {
    for (std::uint64_t m = 0; m < z.cfg.total_messages; ++m) {
      want_[m] = ag::core::RlncSwarm<ag::core::Gf256Decoder>::expected_payload(
          static_cast<std::size_t>(m), z.cfg.payload_len);
    }
  }

  void attach(Proto& proto) {
    proto.set_delivery_hook([this](ag::graph::NodeId v, std::uint64_t m,
                                   std::span<const std::uint8_t> got, std::uint64_t) {
      ++seen_;
      if (m != next_[v]++) ++out_of_order_;
      if (m >= want_.size()) {
        ++wrong_;
        return;
      }
      if (corrupt_) {
        corrupt_ = false;
        std::vector<std::uint8_t> copy(got.begin(), got.end());
        copy[0] ^= 1;
        wrong_ += copy != want_[m];
        return;
      }
      wrong_ += !std::equal(got.begin(), got.end(), want_[m].begin(), want_[m].end());
    });
  }

  void check(const Proto& proto, bool completed, const Size& z, Report& rep,
             std::string_view what) const {
    const std::uint64_t expected = z.cfg.total_messages * z.n;
    Verdict v;
    v.expect(completed, "stream hit the round budget");
    v.expect(proto.delivered_messages() == expected, "delivered messages are not M * n");
    v.expect(seen_ == expected, "delivery hook did not see M * n deliveries");
    v.expect(out_of_order_ == 0, std::to_string(out_of_order_) + " out-of-order deliveries");
    v.expect(wrong_ == 0, std::to_string(wrong_) + " deliveries with wrong bytes");
    rep.record(v, what);
  }

 private:
  std::vector<std::vector<std::uint8_t>> want_;
  std::vector<std::uint64_t> next_;
  std::uint64_t seen_ = 0, wrong_ = 0, out_of_order_ = 0;
  bool corrupt_;
};

double latency_p99(const std::vector<std::uint64_t>& hist) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : hist) total += c;
  std::uint64_t acc = 0;
  for (std::size_t r = 0; r < hist.size(); ++r) {
    acc += hist[r];
    if (static_cast<double>(acc) >= 0.99 * static_cast<double>(total)) {
      return static_cast<double>(r);
    }
  }
  return 0;
}

std::unique_ptr<Proto> make_proto(const Size& z) {
  return std::make_unique<Proto>(std::make_unique<ag::sim::CompleteTopology>(z.n), z.cfg);
}

}  // namespace

void stream_measure(const Options& o, Report& rep) {
  const Size z = size_of(o);
  bool corrupt = o.inject_fault;
  std::vector<double> p99s, ratios;
  const auto call = [&](std::size_t input) {
    CallSample c;
    DeliveryCheck check(z, corrupt);
    corrupt = false;
    const auto t0 = Clock::now();
    std::unique_ptr<Proto> proto = make_proto(z);
    ag::sim::Rng rng = ag::sim::Rng::for_run(o.seed, input);
    check.attach(*proto);
    const auto t1 = Clock::now();
    const ag::sim::RunResult res = ag::sim::run(*proto, rng, kMaxRounds);
    const auto t2 = Clock::now();
    c.setup_s = static_cast<double>(ns_between(t0, t1)) * 1e-9;
    c.wall_s = static_cast<double>(ns_between(t1, t2)) * 1e-9;
    c.rounds = static_cast<double>(res.rounds);
    c.node_rounds = c.rounds * static_cast<double>(z.n);
    c.decoded = static_cast<double>(z.cfg.total_messages * z.n);
    c.packets = static_cast<double>(proto->transport_stats().messages_delivered);
    check.check(*proto, res.completed, z, rep, "stream");
    if (p99s.size() < z.batch) {
      p99s.push_back(latency_p99(proto->latency_histogram()));
      ratios.push_back(c.rounds / ag::core::avin_bound(z.cfg.total_messages, z.n, 1, z.n - 1));
    }
    return c;
  };
  emit_end_to_end(rep, measure(o, z.batch, call), z.batch, z.cfg.payload_len);
  rep.note("stream_latency_rounds_p99", mean(p99s));
  rep.note("avin_bound_ratio", mean(ratios));
}

void stream_traced(const Options& o, Report& rep, Tracer& tr) {
  const Size z = size_of(o);

  DeliveryCheck ref_check(z, false);
  std::unique_ptr<Proto> ref = make_proto(z);
  ref_check.attach(*ref);
  ag::sim::Rng ref_rng = ag::sim::Rng::for_run(o.seed, 0);
  const auto t0 = Clock::now();
  const ag::sim::RunResult ref_res = ag::sim::run(*ref, ref_rng, kMaxRounds);
  const double ref_wall = seconds_since(t0);
  ref_check.check(*ref, ref_res.completed, z, rep, "untraced stream");

  DeliveryCheck check(z, o.inject_fault);
  std::unique_ptr<Proto> proto = make_proto(z);
  check.attach(*proto);
  auto transport = std::make_unique<TimedSimTransport<Msg>>();
  const TimedSimTransport<Msg>& tt = *transport;
  proto->set_transport(std::move(transport));
  ag::sim::Rng rng = ag::sim::Rng::for_run(o.seed, 0);
  const std::int32_t root = tr.open("stream");
  const ag::sim::RunResult res = traced_sim_run(*proto, rng, kMaxRounds, tr, root, tt);
  tr.close(root, res.rounds);
  check.check(*proto, res.completed, z, rep, "traced stream");

  Verdict fidelity;
  fidelity.expect(res.rounds == ref_res.rounds, "traced rounds differ from untraced");
  fidelity.expect(tt.stats().messages_delivered == ref->transport_stats().messages_delivered,
                  "traced insert count differs from untraced");
  fidelity.expect(proto->stalled_rounds() == ref->stalled_rounds(),
                  "traced stalled rounds differ from untraced");
  fidelity.expect(proto->latency_histogram() == ref->latency_histogram(),
                  "traced latency histogram differs from untraced");
  rep.record(fidelity, "trace fidelity");
  rep.traced_s += tr.seconds(root);
  rep.untraced_s += ref_wall;

  emit_sim_phase_metrics(rep, tr, root);
  // Every non-source node absorbs exactly g helpful packets per generation
  // (all information starts at the source, so no packet is ever helpful to
  // it, and a lane restarts only after every node delivered it); the rest of
  // the delivered packets were redundant.
  const double helpful = static_cast<double>((z.n - 1) * z.cfg.generation_size *
                                             z.cfg.total_generations());
  const double inserts = static_cast<double>(tt.inserts);
  rep.metric("linalg.inserts", inserts, "count");
  rep.metric("linalg.helpful_ratio", helpful / inserts, "ratio");
  rep.metric("sim.messages_sent", static_cast<double>(tt.stats().messages_sent), "count");
  rep.metric("sim.messages_delivered", static_cast<double>(tt.stats().messages_delivered),
             "count");
  std::vector<double> round_us = tr.totals(root, "round").each_s;
  for (double& x : round_us) x *= 1e6;
  rep.metric("coding.round_us", median(round_us), "us");
  rep.metric("coding.stalled_share",
             static_cast<double>(proto->stalled_rounds()) / static_cast<double>(res.rounds),
             "share");
  probe_sample(rep, ag::sim::CompleteTopology(z.n));

  rep.note("stopping_rounds", static_cast<double>(ref_res.rounds));
  rep.note("stalled_rounds", static_cast<double>(ref->stalled_rounds()));
  rep.note("stream_latency_rounds_p99", latency_p99(ref->latency_histogram()));
}

}  // namespace perf
