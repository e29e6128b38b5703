// perfbench: runs one benchmark workload and prints its metrics as JSON.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--spans FILE]
//
// Every workload is a closed-loop batch simulation: each gossip round starts
// when the previous one returns. One repetition of a workload is set-up
// (construction plus the peer-sampling warm-up) followed by a fixed,
// seed-determined segment of rounds with evaluations; repetitions run until
// the time budget is spent. The seed generates the population and the churn
// attribute values here; the program only receives the values.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// untraced and then traced (each on half the budget), checks that both give
// the same outputs, and reports the per-layer metrics measured by the
// wrappers in layers.hpp; --spans writes the traced spans to FILE.
//
// The last line of standard output is one JSON object; run.py turns it into
// the benchmark report.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluation.hpp"
#include "core/system.hpp"
#include "data/boinc_synth.hpp"
#include "layers.hpp"
#include "sim/engine.hpp"
#include "sim/parallel_engine.hpp"

namespace {

using namespace adam2;
using perfbench::LayerTotals;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// -- Workloads ----------------------------------------------------------------

struct Workload {
  std::string_view name;
  std::size_t nodes;
  data::Attribute attribute;
  std::size_t threads;  ///< 1 selects sim::Engine, more sim::ParallelEngine.
  std::size_t warmup_rounds;
  bool scripted;  ///< Back-to-back scripted instances; else self-started.
  std::size_t segment_rounds;  ///< Measured rounds per repetition.
  std::size_t first_eval;      ///< Segment round of the first evaluation.
  std::size_t eval_every;      ///< Rounds between evaluations.
  std::size_t peer_sample;     ///< Evaluated peers (0 = every live peer).
  double churn_rate = 0.0;
  double message_loss = 0.0;
  double restart_every_r = 0.0;
  std::size_t verification_points = 0;
};

constexpr std::size_t kInstanceRounds = 26;  // TTL 25 + the finalising round.

// Sizes, rationale and reference numbers: README.md.
const Workload kWorkloads[] = {
    {"paper_50k_serial", 50000, data::Attribute::kRamMb, 1, 5, true,
     2 * kInstanceRounds, kInstanceRounds, kInstanceRounds, 400},
    {"paper_50k_t4", 50000, data::Attribute::kRamMb, 4, 5, true,
     2 * kInstanceRounds, kInstanceRounds, kInstanceRounds, 400},
    {"deploy_3k_churn", 3162, data::Attribute::kCpuMflops, 1, 5, false,
     7 * kInstanceRounds, 4 * kInstanceRounds, kInstanceRounds, 0, 0.001, 0.01,
     5.0, 20},
    {"small_1k_t4", 1000, data::Attribute::kRamMb, 4, 5, true,
     10 * kInstanceRounds, kInstanceRounds, kInstanceRounds, 400},
};

/// Highest whole percentile with at least ten of `rounds` samples beyond it.
int tail_percentile(std::size_t rounds) {
  const double p = std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(rounds)));
  return static_cast<int>(std::clamp(p, 50.0, 99.0));
}

/// What the seed determines. The system under test receives only these
/// values; its own random streams keep the engine's default seed, so two
/// seeds differ in their inputs and not in the protocol's coin flips.
struct Inputs {
  std::vector<stats::Value> population;
  std::shared_ptr<const std::vector<stats::Value>> churn_values;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  rng::Rng root(seed);
  rng::Rng population_rng = root.split(1);
  rng::Rng churn_rng = root.split(2);
  Inputs in;
  in.population =
      data::generate_population(w.attribute, w.nodes, population_rng);
  // Churned-in nodes take these values in order; twice the expected need,
  // reused cyclically beyond that.
  const std::size_t churned = static_cast<std::size_t>(
      std::ceil(w.churn_rate * static_cast<double>(w.nodes) *
                static_cast<double>(w.warmup_rounds + w.segment_rounds)));
  in.churn_values = std::make_shared<const std::vector<stats::Value>>(
      data::generate_population(w.attribute, 2 * churned + 64, churn_rng));
  return in;
}

core::SystemConfig system_config(const Workload& w) {
  core::SystemConfig config;
  config.engine.churn_rate = w.churn_rate;
  config.engine.message_loss = w.message_loss;
  config.protocol.lambda = 50;
  config.protocol.instance_ttl = kInstanceRounds - 1;
  config.protocol.heuristic = core::SelectionHeuristic::kMinMax;
  config.protocol.bootstrap = core::BootstrapPoints::kNeighbourBased;
  config.protocol.verification_points = w.verification_points;
  config.protocol.restart_every_r = w.restart_every_r;
  if (w.restart_every_r > 0.0) {
    config.protocol.initial_n_estimate = static_cast<double>(w.nodes);
  }
  config.overlay = core::OverlayKind::kCyclon;
  config.overlay_degree = 20;
  config.engine_threads = w.threads;
  return config;
}

host::AttributeSource churn_source(const Workload& w, const Inputs& in) {
  if (w.churn_rate <= 0.0) return nullptr;
  auto next = std::make_shared<std::size_t>(0);
  return [values = in.churn_values, next](rng::Rng&) {
    return (*values)[(*next)++ % values->size()];
  };
}

/// The system under test. Untraced runs use the product facade,
/// core::Adam2System; traced runs assemble the same engine from the public
/// constructors with the traced agent factory and overlay decorator.
class Sim {
 public:
  Sim(const Workload& w, const Inputs& in, bool traced) {
    const core::SystemConfig config = system_config(w);
    if (!traced) {
      system_ = std::make_unique<core::Adam2System>(config, in.population,
                                                    churn_source(w, in));
      return;
    }
    auto overlay = std::make_unique<perfbench::TracedOverlay>(
        core::make_overlay(config.overlay, config.overlay_degree));
    auto factory = perfbench::traced_factory(config.protocol);
    if (w.threads > 1) {
      engine_ = std::make_unique<sim::ParallelEngine>(
          config.engine, w.threads, in.population, std::move(overlay),
          std::move(factory), churn_source(w, in));
    } else {
      engine_ = std::make_unique<sim::Engine>(
          config.engine, in.population, std::move(overlay), std::move(factory),
          churn_source(w, in));
    }
  }

  sim::CycleEngine& engine() { return system_ ? system_->engine() : *engine_; }

  /// Same draws as Adam2System::start_instance: one global draw picks the
  /// initiator.
  void start_instance() {
    if (system_) {
      system_->start_instance();
      return;
    }
    const host::NodeId node = engine_->random_live_node();
    auto ctx = engine_->context_for(node);
    dynamic_cast<core::Adam2Agent&>(engine_->agent(node)).start_instance(ctx);
  }

 private:
  std::unique_ptr<core::Adam2System> system_;
  std::unique_ptr<sim::CycleEngine> engine_;
};

// -- One repetition ------------------------------------------------------------

double proc_status_kb(const char* key) {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      kb = std::strtod(line + key_len + 1, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kb;
}

struct Evaluation {
  double errm = 0.0;
  double erra = 0.0;
  std::size_t peers = 0;
  std::size_t missing = 0;
  std::size_t expected = 0;
  double seconds = 0.0;
  double start_s = 0.0;  ///< Offset from the repetition start.
};

/// Everything a repetition computes that the seed alone determines.
struct Outcome {
  std::vector<double> errors;  ///< errm, erra per evaluation.
  std::vector<std::size_t> peers;
  host::TrafficStats traffic;  ///< Ledger delta over the segment.
  std::uint64_t node_rounds = 0;
  std::size_t final_live = 0;
  std::size_t nodes_ever = 0;

  bool operator==(const Outcome& o) const {
    bool same = errors == o.errors && peers == o.peers &&
                node_rounds == o.node_rounds && final_live == o.final_live &&
                nodes_ever == o.nodes_ever &&
                traffic.failed_contacts == o.traffic.failed_contacts &&
                traffic.dropped_messages == o.traffic.dropped_messages;
    for (std::size_t c = 0; c < host::kChannelCount; ++c) {
      same = same && traffic.channels[c].bytes_sent ==
                         o.traffic.channels[c].bytes_sent &&
             traffic.channels[c].messages_sent ==
                 o.traffic.channels[c].messages_sent;
    }
    return same;
  }
};

struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double rss_construct_kb = 0.0;
  double rss_setup_kb = 0.0;
  std::vector<double> round_s;
  std::vector<double> round_start_s;  ///< Offsets from the repetition start.
  std::vector<std::size_t> round_live;
  std::vector<Evaluation> evals;
  Outcome outcome;
  // Traced repetitions only.
  LayerTotals setup_layers;
  std::vector<LayerTotals> round_layers;
};

Evaluation evaluate(sim::CycleEngine& engine, const Workload& w) {
  Evaluation e;
  const auto start = Clock::now();
  const stats::EmpiricalCdf truth{engine.live_attribute_values()};
  core::EvaluationOptions options;
  options.peer_sample = w.peer_sample;
  options.threads = w.threads;
  const core::PopulationErrors errors =
      core::evaluate_estimates(engine, truth, options);
  e.seconds = since(start);
  e.errm = errors.max_err;
  e.erra = errors.avg_err;
  e.peers = errors.peers;
  e.missing = errors.missing;
  const std::size_t live = engine.live_count();
  e.expected = w.peer_sample > 0 ? std::min(w.peer_sample, live) : live;
  return e;
}

host::TrafficStats ledger_delta(const host::TrafficStats& after,
                                const host::TrafficStats& before) {
  host::TrafficStats d;
  for (std::size_t c = 0; c < host::kChannelCount; ++c) {
    d.channels[c].messages_sent =
        after.channels[c].messages_sent - before.channels[c].messages_sent;
    d.channels[c].bytes_sent =
        after.channels[c].bytes_sent - before.channels[c].bytes_sent;
  }
  d.failed_contacts = after.failed_contacts - before.failed_contacts;
  d.dropped_messages = after.dropped_messages - before.dropped_messages;
  return d;
}

/// Construction plus warm-up; returns the set-up time.
double set_up(const Workload& w, const Inputs& in, bool traced,
              std::unique_ptr<Sim>& out, Rep* rep) {
  const auto start = Clock::now();
  out = std::make_unique<Sim>(w, in, traced);
  if (rep != nullptr) {
    rep->rss_construct_kb = proc_status_kb("VmRSS");
    if (traced) rep->setup_layers += perfbench::drain_layers();
  }
  out->engine().run_rounds(w.warmup_rounds);
  const double setup_s = since(start);
  if (rep != nullptr) {
    rep->rss_setup_kb = proc_status_kb("VmRSS");
    if (traced) rep->setup_layers += perfbench::drain_layers();
  }
  return setup_s;
}

Rep run_rep(const Workload& w, const Inputs& in, bool traced) {
  Rep rep;
  const auto start = Clock::now();
  std::unique_ptr<Sim> sim;
  rep.setup_s = set_up(w, in, traced, sim, &rep);
  sim::CycleEngine& engine = sim->engine();
  const host::TrafficStats before = engine.total_traffic();
  for (std::size_t r = 0; r < w.segment_rounds; ++r) {
    if (w.scripted && r % kInstanceRounds == 0) sim->start_instance();
    const std::size_t live = engine.live_count();
    const auto round_start = Clock::now();
    engine.run_round();
    rep.round_s.push_back(since(round_start));
    rep.round_start_s.push_back(
        std::chrono::duration<double>(round_start - start).count());
    rep.round_live.push_back(live);
    rep.outcome.node_rounds += live;
    if (traced) rep.round_layers.push_back(perfbench::drain_layers());
    const std::size_t done = r + 1;
    if (done >= w.first_eval && (done - w.first_eval) % w.eval_every == 0) {
      const double offset = since(start);
      rep.evals.push_back(evaluate(engine, w));
      rep.evals.back().start_s = offset;
    }
  }
  rep.wall_s = since(start);
  rep.outcome.traffic = ledger_delta(engine.total_traffic(), before);
  for (const Evaluation& e : rep.evals) {
    rep.outcome.errors.push_back(e.errm);
    rep.outcome.errors.push_back(e.erra);
    rep.outcome.peers.push_back(e.peers);
  }
  rep.outcome.final_live = engine.live_count();
  rep.outcome.nodes_ever = engine.nodes_ever();
  return rep;
}

/// Repetitions of one workload on a time budget (at least one), plus extra
/// set-ups until `min_setups` set-up times and 1 s of set-up are measured.
struct Pass {
  std::vector<Rep> reps;
  std::vector<double> setups;
  double peak_rss_kb = 0.0;
};

Pass run_pass(const Workload& w, const Inputs& in, double budget_s,
              bool traced, std::size_t min_setups) {
  Pass pass;
  const auto start = Clock::now();
  double rep_total = 0.0;
  do {
    pass.reps.push_back(run_rep(w, in, traced));
    pass.setups.push_back(pass.reps.back().setup_s);
    rep_total += pass.reps.back().wall_s;
  } while (since(start) + rep_total / static_cast<double>(pass.reps.size()) <=
           budget_s);
  double setup_total = std::accumulate(pass.setups.begin(), pass.setups.end(), 0.0);
  while (pass.setups.size() < min_setups ||
         (min_setups > 0 && setup_total < 1.0 && pass.setups.size() < 50)) {
    std::unique_ptr<Sim> sim;
    pass.setups.push_back(set_up(w, in, traced, sim, nullptr));
    setup_total += pass.setups.back();
  }
  pass.peak_rss_kb = proc_status_kb("VmHWM");
  return pass;
}

// -- Metrics -------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::vector<double> pooled_rounds(const Pass& pass) {
  std::vector<double> all;
  for (const Rep& rep : pass.reps) {
    all.insert(all.end(), rep.round_s.begin(), rep.round_s.end());
  }
  return all;
}

double median_rep_wall(const Pass& pass) {
  std::vector<double> walls;
  for (const Rep& rep : pass.reps) walls.push_back(rep.wall_s);
  return median(walls);
}

/// Layer totals over a traced repetition's segment.
LayerTotals segment_layers(const Rep& rep) {
  LayerTotals sum;
  for (const LayerTotals& t : rep.round_layers) sum += t;
  return sum;
}

/// The seed-determined results every check compares.
struct Summary {
  double errm = 0.0;
  double erra = 0.0;
  double bytes_per_node_round = 0.0;
  double failed_exchange_ratio = 0.0;
};

Summary summarize(const Outcome& o) {
  Summary s;
  s.errm = o.errors[o.errors.size() - 2];
  s.erra = o.errors.back();
  const double node_rounds = static_cast<double>(o.node_rounds);
  s.bytes_per_node_round =
      static_cast<double>(o.traffic.total_bytes_sent()) / node_rounds;
  s.failed_exchange_ratio =
      static_cast<double>(o.traffic.failed_contacts +
                          o.traffic.dropped_messages) /
      node_rounds;
  return s;
}

struct Metric {
  std::string name;
  double value;
};

std::vector<Metric> end_to_end(const Workload& w, const Pass& pass) {
  const std::vector<double> rounds = pooled_rounds(pass);
  double node_rounds = 0.0;
  std::vector<double> tails;  // Per repetition, so the percentile is fixed.
  for (const Rep& rep : pass.reps) {
    node_rounds += static_cast<double>(rep.outcome.node_rounds);
    tails.push_back(
        quantile(rep.round_s, tail_percentile(w.segment_rounds) / 100.0));
  }
  const Summary s = summarize(pass.reps.front().outcome);
  return {
      {"setup_s", median(pass.setups)},
      {"run_s", median_rep_wall(pass)},
      {"round_s_p50", median(rounds)},
      {"round_s_tail", median(tails)},
      {"node_rounds_per_s",
       node_rounds / std::accumulate(rounds.begin(), rounds.end(), 0.0)},
      {"rss_kb_per_node", pass.peak_rss_kb / static_cast<double>(w.nodes)},
      {"bytes_per_node_round", s.bytes_per_node_round},
      {"exchange_success_ratio", 1.0 - s.failed_exchange_ratio},
  };
}

std::vector<Metric> per_layer(const Workload& w, const Pass& plain,
                              const Pass& traced) {
  using perfbench::Op;
  LayerTotals seg;
  LayerTotals setup;
  double round_total = 0.0;
  std::size_t rounds = 0;
  std::vector<double> eval_s;
  for (const Rep& rep : traced.reps) {
    seg += segment_layers(rep);
    setup += rep.setup_layers;
    round_total += std::accumulate(rep.round_s.begin(), rep.round_s.end(), 0.0);
    rounds += rep.round_s.size();
    for (const Evaluation& e : rep.evals) eval_s.push_back(e.seconds);
  }
  const double n_rounds = static_cast<double>(rounds);
  const double n_setups = static_cast<double>(traced.reps.size());
  const double threads = static_cast<double>(std::max<std::size_t>(w.threads, 1));
  const double child_s = static_cast<double>(seg.child_ns) * 1e-9;
  const auto per_round = [&](Op op) { return seg.seconds(op) / n_rounds; };
  const auto per_setup = [&](Op op) { return setup.seconds(op) / n_setups; };
  const auto ratio = [](double a, std::uint64_t b) {
    return b == 0 ? 0.0 : a / static_cast<double>(b);
  };

  // Counts come from the first traced repetition (check_pass checks that
  // all repetitions agree).
  const LayerTotals first = segment_layers(traced.reps.front());
  const Rep& first_rep = traced.reps.front();
  const host::TrafficStats& ledger = first_rep.outcome.traffic;
  const Rep& plain_rep = plain.reps.front();
  const double nodes = static_cast<double>(w.nodes);
  const auto channel_bytes = [&](host::Channel c) {
    return static_cast<double>(ledger.on(c).bytes_sent);
  };

  return {
      {"sim.round_s", round_total / n_rounds},
      {"sim.engine_self_s", (round_total - child_s / threads) / n_rounds},
      {"sim.exchanges", static_cast<double>(first.requests)},
      {"sim.parallel_busy_share", child_s / (threads * round_total)},
      {"sim.overlay.maintain_s", per_round(perfbench::kMaintain)},
      {"sim.overlay.pick_s", per_round(perfbench::kPick)},
      {"sim.overlay.pick_calls",
       static_cast<double>(first.calls[perfbench::kPick])},
      {"sim.overlay.build_s", per_setup(perfbench::kBuild)},
      {"sim.overlay.churn_s", per_round(perfbench::kChurn)},
      {"sim.overlay.known_values_s", per_round(perfbench::kKnownValues)},
      {"core.agent.round_start_s", per_round(perfbench::kRoundStart)},
      {"core.agent.request_s", per_round(perfbench::kRequest)},
      {"core.agent.respond_s", per_round(perfbench::kRespond)},
      {"core.agent.merge_s", per_round(perfbench::kMerge)},
      {"core.agent.bootstrap_s", per_round(perfbench::kBootstrap)},
      {"core.agent.construct_s", per_setup(perfbench::kConstruct)},
      {"core.agent.active_instances_mean",
       ratio(static_cast<double>(seg.active_instances),
             seg.calls[perfbench::kRoundStart])},
      {"wire.request_bytes_mean",
       ratio(static_cast<double>(seg.request_bytes), seg.requests)},
      {"wire.response_bytes_mean",
       ratio(static_cast<double>(seg.response_bytes), seg.responses)},
      {"core.evaluate_s", median(eval_s)},
      {"core.evaluate_erra", summarize(first_rep.outcome).erra},
      {"core.evaluate_errm", summarize(first_rep.outcome).errm},
      {"core.evaluate_peers", static_cast<double>(first_rep.evals.front().peers)},
      {"host.traffic.aggregation_bytes",
       channel_bytes(host::Channel::kAggregation)},
      {"host.traffic.overlay_bytes", channel_bytes(host::Channel::kOverlay)},
      {"host.traffic.bootstrap_bytes",
       channel_bytes(host::Channel::kBootstrap)},
      {"host.traffic.failed_contacts",
       static_cast<double>(ledger.failed_contacts)},
      {"host.traffic.dropped_messages",
       static_cast<double>(ledger.dropped_messages)},
      {"mem.rss_construct_kb_per_node", plain_rep.rss_construct_kb / nodes},
      {"mem.rss_setup_kb_per_node", plain_rep.rss_setup_kb / nodes},
      {"mem.rss_growth_kb_per_node",
       (plain.peak_rss_kb - plain_rep.rss_setup_kb) / nodes},
      {"mem.sizeof_node_b", static_cast<double>(sizeof(host::Node))},
      {"mem.sizeof_agent_b", static_cast<double>(sizeof(core::Adam2Agent))},
      {"trace.overhead_s", median_rep_wall(traced) - median_rep_wall(plain)},
  };
}

// -- Checks --------------------------------------------------------------------

struct Checks {
  std::size_t attempted = 0;  ///< Evaluations: one CDF answer per peer each.
  std::size_t failed = 0;
  std::vector<std::string> problems;

  void fail(std::string what) { problems.push_back(std::move(what)); }
};

void check_pass(const Pass& pass, const char* label, Checks& checks) {
  for (const Rep& rep : pass.reps) {
    for (const Evaluation& e : rep.evals) {
      ++checks.attempted;
      const bool ok = e.missing == 0 && e.peers == e.expected &&
                      std::isfinite(e.erra) && std::isfinite(e.errm) &&
                      e.erra > 0.0 && e.erra <= e.errm && e.errm < 0.5;
      if (!ok) {
        ++checks.failed;
        checks.fail(std::string(label) + ": evaluation with " +
                    std::to_string(e.missing) + " peers lacking an estimate, " +
                    std::to_string(e.peers) + "/" + std::to_string(e.expected) +
                    " evaluated, errm " + std::to_string(e.errm) + ", erra " +
                    std::to_string(e.erra));
      }
    }
    if (!(rep.outcome == pass.reps.front().outcome)) {
      checks.fail(std::string(label) + ": repetitions of one seed disagree");
    }
    if (rep.outcome.traffic.total_bytes_sent() == 0) {
      checks.fail(std::string(label) + ": no traffic");
    }
    const LayerTotals counts = segment_layers(rep);
    const LayerTotals first = segment_layers(pass.reps.front());
    if (counts.calls != first.calls || counts.requests != first.requests ||
        counts.request_bytes != first.request_bytes ||
        counts.response_bytes != first.response_bytes) {
      checks.fail(std::string(label) + ": call counts differ between repetitions");
    }
  }
}

// -- Output --------------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += quoted(metrics[i].name) + ":" + number(metrics[i].value);
  }
  return out + "}";
}

/// Spans of the traced pass: workload -> set-up / round k / evaluate k, each
/// round carrying its per-layer sums.
void write_spans(const std::string& path, const Workload& w,
                 const Pass& traced) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "{\"workload\":" << quoted(w.name) << ",\"spans\":[\n";
  std::size_t id = 0;
  double offset = 0.0;
  bool first_line = true;
  // `parent` is null for the workload span of each repetition.
  const auto span = [&](std::optional<std::size_t> parent,
                        std::string_view name, std::size_t index, double start,
                        double end, const std::string& extra) {
    out << (first_line ? "" : ",\n") << "{\"id\":" << id++ << ",\"parent\":"
        << (parent ? std::to_string(*parent) : "null")
        << ",\"name\":" << quoted(name)
        << ",\"index\":" << index << ",\"start_s\":" << number(start)
        << ",\"end_s\":" << number(end) << extra << "}";
    first_line = false;
  };
  for (std::size_t k = 0; k < traced.reps.size(); ++k) {
    const Rep& rep = traced.reps[k];
    const std::size_t root = id;
    span(std::nullopt, "workload", k, offset, offset + rep.wall_s, "");
    span(root, "setup", k, offset, offset + rep.setup_s, "");
    for (std::size_t r = 0; r < rep.round_s.size(); ++r) {
      const LayerTotals& t = rep.round_layers[r];
      std::string layers = ",\"live\":" + std::to_string(rep.round_live[r]) +
                           ",\"layers_s\":{";
      static constexpr const char* kNames[] = {
          "core.agent.round_start", "core.agent.request",
          "core.agent.respond",     "core.agent.merge",
          "core.agent.bootstrap",   "core.agent.construct",
          "sim.overlay.maintain",   "sim.overlay.pick",
          "sim.overlay.build",      "sim.overlay.churn",
          "sim.overlay.known_values", "sim.overlay.neighbors"};
      for (std::size_t op = 0; op < perfbench::kOpCount; ++op) {
        if (op > 0) layers += ",";
        layers += quoted(kNames[op]) + ":" +
                  number(t.seconds(static_cast<perfbench::Op>(op)));
      }
      layers += ",\"child\":" +
                number(static_cast<double>(t.child_ns) * 1e-9) + "}";
      span(root, "round", r, offset + rep.round_start_s[r],
           offset + rep.round_start_s[r] + rep.round_s[r], layers);
    }
    for (std::size_t e = 0; e < rep.evals.size(); ++e) {
      span(root, "evaluate", e, offset + rep.evals[e].start_s,
           offset + rep.evals[e].start_s + rep.evals[e].seconds, "");
    }
    offset += rep.wall_s;
  }
  out << "\n]}\n";
  out.close();
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  int trace = 0;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + std::string(flag));
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      throw std::invalid_argument("unknown flag " + std::string(flag));
    }
  }
  return args;
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (w.name == args.workload) found = &w;
  }
  if (found == nullptr) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  const Workload& w = *found;
  const Inputs inputs = make_inputs(w, args.seed);

  Checks checks;
  std::vector<Metric> metrics;
  std::optional<Pass> plain;
  if (args.trace == 0) {
    plain = run_pass(w, inputs, args.seconds, false, 3);
    check_pass(*plain, "untraced", checks);
    metrics = end_to_end(w, *plain);
  } else {
    plain = run_pass(w, inputs, args.seconds / 2, false, 0);
    const Pass traced = run_pass(w, inputs, args.seconds / 2, true, 0);
    check_pass(*plain, "untraced", checks);
    check_pass(traced, "traced", checks);
    if (!(traced.reps.front().outcome == plain->reps.front().outcome)) {
      checks.fail("traced run does not reproduce the untraced outputs");
    }
    metrics = per_layer(w, *plain, traced);
    if (!args.spans.empty()) write_spans(args.spans, w, traced);
  }

  const Summary s = summarize(plain->reps.front().outcome);
  const std::vector<double> rounds = pooled_rounds(*plain);
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"nodes\":%zu,"
      "\"threads\":%zu,\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
      "\"problems\":[",
      quoted(w.name).c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, w.nodes, w.threads, checks.problems.empty() ? "true" : "false",
      checks.attempted, checks.failed);
  for (std::size_t i = 0; i < checks.problems.size(); ++i) {
    std::printf("%s%s", i > 0 ? "," : "", quoted(checks.problems[i]).c_str());
  }
  std::printf(
      "],\"reps\":%zu,\"setups\":%zu,\"rounds_timed\":%zu,"
      "\"tail_percentile\":%d,\"peak_rss_kb\":%s,"
      "\"outcome\":{\"errm\":%s,\"erra\":%s,\"bytes_per_node_round\":%s,"
      "\"failed_exchange_ratio\":%s},\"metrics\":%s}\n",
      plain->reps.size(), plain->setups.size(), rounds.size(),
      tail_percentile(w.segment_rounds), number(plain->peak_rss_kb).c_str(),
      number(s.errm).c_str(), number(s.erra).c_str(),
      number(s.bytes_per_node_round).c_str(),
      number(s.failed_exchange_ratio).c_str(), metrics_json(metrics).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
