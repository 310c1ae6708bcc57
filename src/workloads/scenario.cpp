#include "workloads/scenario.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/error.h"
#include "common/rng.h"

namespace soc::workloads {

namespace {

using sim::Op;
using sim::OpKind;

bool is_message(OpKind kind) {
  return kind == OpKind::kSend || kind == OpKind::kRecv ||
         kind == OpKind::kIsend || kind == OpKind::kIrecv;
}

bool is_scalable(OpKind kind) {
  return kind == OpKind::kCpuCompute || kind == OpKind::kGpuKernel ||
         kind == OpKind::kCopyH2D || kind == OpKind::kCopyD2H;
}

// Shared decorator plumbing: inner pull with per-rank phase tracking (so
// injected delays are attributed to the phase the rank was in), plus a
// one-op stash for decorators that must hold the pulled op back while
// they emit a delay first.  A decorator injects only in front of a pulled
// op: once the inner stream has ended, nothing comes due any more.
class StreamDecorator : public sim::OpSource {
 public:
  explicit StreamDecorator(std::unique_ptr<sim::OpSource> inner)
      : inner_(std::move(inner)),
        last_phase_(static_cast<std::size_t>(inner_->ranks()), 0),
        pending_(static_cast<std::size_t>(inner_->ranks())),
        has_pending_(static_cast<std::size_t>(inner_->ranks()), 0) {}

  int ranks() const override { return inner_->ranks(); }

 protected:
  /// The rank's held-back op if there is one, else the inner stream's
  /// next; false once the inner stream has ended.
  bool pull(int rank, SimTime now, Op* op) {
    const std::size_t r = static_cast<std::size_t>(rank);
    if (has_pending_[r]) {
      has_pending_[r] = 0;
      *op = pending_[r];
      return true;
    }
    if (!inner_->next(rank, now, op)) return false;
    if (op->kind == OpKind::kPhase) last_phase_[r] = op->phase;
    return true;
  }

  /// Holds the pulled `*op` back for the rank's next pull and replaces it
  /// with a `seconds` stall in the rank's current phase.
  void delay(int rank, Op* op, double seconds) {
    const std::size_t r = static_cast<std::size_t>(rank);
    pending_[r] = *op;
    has_pending_[r] = 1;
    *op = sim::delay_op(seconds, last_phase_[r]);
  }

 private:
  std::unique_ptr<sim::OpSource> inner_;
  std::vector<int> last_phase_;
  std::vector<Op> pending_;
  std::vector<char> has_pending_;
};

// Crash-and-restart: every rank on the crashed node stalls for the
// downtime at its first pull at or after the crash time, then resumes.
// Message matching stays intact (peers block until the node returns), so
// the damage surfaces as load imbalance / serialization — exactly what
// the profiler decomposition should attribute.
class NodeCrashStream final : public StreamDecorator {
 public:
  NodeCrashStream(std::unique_ptr<sim::OpSource> inner, const FaultSpec& spec,
                  int ranks_per_node)
      : StreamDecorator(std::move(inner)),
        crash_at_(from_seconds(spec.start_seconds)),
        downtime_(spec.downtime_seconds),
        first_rank_(spec.node * ranks_per_node),
        last_rank_(first_rank_ + ranks_per_node - 1),
        injected_(static_cast<std::size_t>(ranks()), 0) {}

  bool next(int rank, SimTime now, Op* op) override {
    const std::size_t r = static_cast<std::size_t>(rank);
    if (!pull(rank, now, op)) return false;
    if (rank >= first_rank_ && rank <= last_rank_ && !injected_[r] &&
        now >= crash_at_) {
      injected_[r] = 1;
      delay(rank, op, downtime_);
    }
    return true;
  }

 private:
  SimTime crash_at_;
  double downtime_;
  int first_rank_;
  int last_rank_;
  std::vector<char> injected_;
};

// Link flap: message ops issued by the affected node's ranks during the
// window are held back behind a delay that ends when the window closes.
class LinkFlapStream final : public StreamDecorator {
 public:
  LinkFlapStream(std::unique_ptr<sim::OpSource> inner, const FaultSpec& spec,
                 int ranks_per_node)
      : StreamDecorator(std::move(inner)),
        open_(from_seconds(spec.start_seconds)),
        close_(from_seconds(spec.end_seconds)),
        first_rank_(spec.node * ranks_per_node),
        last_rank_(first_rank_ + ranks_per_node - 1) {}

  bool next(int rank, SimTime now, Op* op) override {
    if (!pull(rank, now, op)) return false;
    if (rank >= first_rank_ && rank <= last_rank_ && is_message(op->kind) &&
        now >= open_ && now < close_) {
      delay(rank, op, to_seconds(close_ - now));
    }
    return true;
  }

 private:
  SimTime open_;
  SimTime close_;
  int first_rank_;
  int last_rank_;
};

// Straggler: the target rank's compute/kernel/copy ops take `slowdown`
// times longer.  Applied via Op::time_scale so the engine stretches the
// cost-model duration after memo lookup — memoized costs stay shared
// with healthy ranks.
class StragglerStream final : public StreamDecorator {
 public:
  StragglerStream(std::unique_ptr<sim::OpSource> inner, const FaultSpec& spec)
      : StreamDecorator(std::move(inner)),
        rank_(spec.rank),
        slowdown_(spec.slowdown) {}

  bool next(int rank, SimTime now, Op* op) override {
    if (!pull(rank, now, op)) return false;
    if (rank == rank_ && is_scalable(op->kind)) op->time_scale *= slowdown_;
    return true;
  }

 private:
  int rank_;
  double slowdown_;
};

// OS noise: each rank stalls `duration_seconds` roughly every
// `interval_seconds`, with the interval perturbed by up to ±jitter of
// itself.  Each rank draws from its own split of the seed, so the noise
// pattern is independent of cross-rank interleaving and thread count.
class NoiseStream final : public StreamDecorator {
 public:
  NoiseStream(std::unique_ptr<sim::OpSource> inner, const NoiseSpec& spec)
      : StreamDecorator(std::move(inner)), spec_(spec) {
    const std::size_t n = static_cast<std::size_t>(ranks());
    rngs_.reserve(n);
    next_fire_.reserve(n);
    for (std::size_t r = 0; r < n; ++r) {
      rngs_.push_back(Rng(spec_.seed).split(static_cast<std::uint64_t>(r)));
      next_fire_.push_back(step(rngs_.back()));
    }
  }

  bool next(int rank, SimTime now, Op* op) override {
    const std::size_t r = static_cast<std::size_t>(rank);
    if (!pull(rank, now, op)) return false;
    if (now >= next_fire_[r]) {
      // One stall per pull; intervals the rank slept through are skipped.
      while (next_fire_[r] <= now) next_fire_[r] += step(rngs_[r]);
      delay(rank, op, spec_.duration_seconds);
    }
    return true;
  }

 private:
  SimTime step(Rng& rng) {
    double interval = spec_.interval_seconds;
    if (spec_.jitter > 0.0) {
      interval *= 1.0 + spec_.jitter * (2.0 * rng.next_double() - 1.0);
    }
    return from_seconds(interval);
  }

  NoiseSpec spec_;
  std::vector<Rng> rngs_;
  std::vector<SimTime> next_fire_;
};

// Checkpoint/restart on Daly's cadence: every rank writes for δ =
// size/bandwidth seconds, every τ + δ, with τ from daly_optimal_interval.
class CheckpointStream final : public StreamDecorator {
 public:
  CheckpointStream(std::unique_ptr<sim::OpSource> inner,
                   const CheckpointSpec& spec)
      : StreamDecorator(std::move(inner)),
        write_seconds_(spec.size_bytes / spec.bandwidth),
        runtime_(spec.runtime_seconds) {
    const double tau =
        daly_optimal_interval(write_seconds_, spec.mtti_seconds);
    interval_ = from_seconds(tau);
    period_ = from_seconds(tau + write_seconds_);
    next_fire_.assign(static_cast<std::size_t>(ranks()), interval_);
  }

  bool next(int rank, SimTime now, Op* op) override {
    const std::size_t r = static_cast<std::size_t>(rank);
    if (!pull(rank, now, op)) return false;
    if (now >= next_fire_[r] &&
        (runtime_ <= 0.0 || to_seconds(next_fire_[r]) <= runtime_)) {
      while (next_fire_[r] <= now) next_fire_[r] += period_;
      delay(rank, op, write_seconds_);
    }
    return true;
  }

 private:
  double write_seconds_;
  double runtime_;
  SimTime interval_ = 0;
  SimTime period_ = 0;
  std::vector<SimTime> next_fire_;
};

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      if (start < s.size()) parts.push_back(s.substr(start));
      break;
    }
    if (end > start) parts.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

// Parses "key=value,key=value" with a per-spec key dispatcher.
template <typename SetField>
void parse_kv(const std::string& body, const std::string& what,
              SetField&& set_field) {
  for (const std::string& pair : split(body, ',')) {
    const std::size_t eq = pair.find('=');
    SOC_REQUIRE(eq != std::string::npos && eq > 0,
                what + ": expected key=value, got '" + pair + "'");
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    try {
      SOC_REQUIRE(set_field(key, value),
                  what + ": unknown key '" + key + "'");
    } catch (const std::invalid_argument&) {
      throw UsageError(what + ": bad value for '" + key + "': " + value);
    } catch (const std::out_of_range&) {
      throw UsageError(what + ": bad value for '" + key + "': " + value);
    }
  }
}

}  // namespace

const char* fault_kind_name(FaultSpec::Kind kind) {
  switch (kind) {
    case FaultSpec::Kind::kNodeCrash: return "node-crash";
    case FaultSpec::Kind::kLinkFlap: return "link-flap";
    case FaultSpec::Kind::kStraggler: return "straggler";
  }
  return "?";
}

double daly_optimal_interval(double write_seconds, double mtti_seconds) {
  SOC_CHECK(write_seconds > 0.0, "daly: checkpoint write time must be > 0");
  SOC_CHECK(mtti_seconds > 0.0, "daly: MTTI must be > 0");
  if (write_seconds >= 2.0 * mtti_seconds) return mtti_seconds;
  const double ratio = write_seconds / (2.0 * mtti_seconds);
  return std::sqrt(2.0 * write_seconds * mtti_seconds) *
             (1.0 + std::sqrt(ratio) / 3.0 + ratio / 9.0) -
         write_seconds;
}

std::unique_ptr<sim::OpSource> apply_scenarios(
    std::unique_ptr<sim::OpSource> inner, const ScenarioConfig& config,
    int nodes) {
  if (!config.enabled()) return inner;
  SOC_CHECK(inner != nullptr, "apply_scenarios: null stream");
  const int ranks = inner->ranks();
  SOC_CHECK(nodes > 0 && ranks % nodes == 0,
            "apply_scenarios: ranks must divide evenly over nodes");
  const int rpn = ranks / nodes;

  for (const FaultSpec& fault : config.faults) {
    switch (fault.kind) {
      case FaultSpec::Kind::kNodeCrash:
        SOC_REQUIRE(fault.node >= 0 && fault.node < nodes,
                    "node-crash: node " + std::to_string(fault.node) +
                        " out of range for " + std::to_string(nodes) +
                        " nodes");
        SOC_REQUIRE(fault.downtime_seconds > 0.0,
                    "node-crash: downtime must be > 0");
        inner = std::make_unique<NodeCrashStream>(std::move(inner), fault, rpn);
        break;
      case FaultSpec::Kind::kLinkFlap:
        SOC_REQUIRE(fault.node >= 0 && fault.node < nodes,
                    "link-flap: node " + std::to_string(fault.node) +
                        " out of range for " + std::to_string(nodes) +
                        " nodes");
        SOC_REQUIRE(fault.end_seconds > fault.start_seconds,
                    "link-flap: window must have t1 > t0");
        inner = std::make_unique<LinkFlapStream>(std::move(inner), fault, rpn);
        break;
      case FaultSpec::Kind::kStraggler:
        SOC_REQUIRE(fault.rank >= 0 && fault.rank < ranks,
                    "straggler: rank " + std::to_string(fault.rank) +
                        " out of range for " + std::to_string(ranks) +
                        " ranks");
        SOC_REQUIRE(fault.slowdown > 0.0, "straggler: slowdown must be > 0");
        inner = std::make_unique<StragglerStream>(std::move(inner), fault);
        break;
    }
  }
  if (config.noise.enabled()) {
    SOC_REQUIRE(config.noise.jitter >= 0.0 && config.noise.jitter < 1.0,
                "noise: jitter must be within [0, 1)");
    inner = std::make_unique<NoiseStream>(std::move(inner), config.noise);
  }
  if (config.checkpoint.enabled()) {
    inner = std::make_unique<CheckpointStream>(std::move(inner),
                                               config.checkpoint);
  }
  return inner;
}

FaultSpec parse_fault_spec(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  SOC_REQUIRE(colon != std::string::npos,
              "fault spec needs '<kind>:<params>', got '" + spec + "'");
  const std::string kind = spec.substr(0, colon);
  const std::string body = spec.substr(colon + 1);
  FaultSpec fault;
  if (kind == "node-crash") {
    fault.kind = FaultSpec::Kind::kNodeCrash;
    parse_kv(body, "node-crash", [&](const std::string& k, const std::string& v) {
      if (k == "node") fault.node = std::stoi(v);
      else if (k == "t") fault.start_seconds = std::stod(v);
      else if (k == "down") fault.downtime_seconds = std::stod(v);
      else return false;
      return true;
    });
    SOC_REQUIRE(fault.node >= 0, "node-crash spec needs node=<N>");
    SOC_REQUIRE(fault.downtime_seconds > 0.0,
                "node-crash spec needs down=<seconds> > 0");
  } else if (kind == "link-flap") {
    fault.kind = FaultSpec::Kind::kLinkFlap;
    parse_kv(body, "link-flap", [&](const std::string& k, const std::string& v) {
      if (k == "node") fault.node = std::stoi(v);
      else if (k == "t0") fault.start_seconds = std::stod(v);
      else if (k == "t1") fault.end_seconds = std::stod(v);
      else return false;
      return true;
    });
    SOC_REQUIRE(fault.node >= 0, "link-flap spec needs node=<N>");
    SOC_REQUIRE(fault.end_seconds > fault.start_seconds,
                "link-flap spec needs t1=<seconds> > t0=<seconds>");
  } else if (kind == "straggler") {
    fault.kind = FaultSpec::Kind::kStraggler;
    parse_kv(body, "straggler", [&](const std::string& k, const std::string& v) {
      if (k == "rank") fault.rank = std::stoi(v);
      else if (k == "slowdown") fault.slowdown = std::stod(v);
      else return false;
      return true;
    });
    SOC_REQUIRE(fault.rank >= 0, "straggler spec needs rank=<R>");
    SOC_REQUIRE(fault.slowdown > 0.0 && fault.slowdown != 1.0,
                "straggler spec needs slowdown=<factor> (> 0, != 1)");
  } else {
    throw UsageError("unknown fault kind '" + kind +
                     "' (valid: node-crash, link-flap, straggler)");
  }
  return fault;
}

NoiseSpec parse_noise_spec(const std::string& spec) {
  NoiseSpec noise;
  parse_kv(spec, "noise", [&](const std::string& k, const std::string& v) {
    if (k == "interval") noise.interval_seconds = std::stod(v);
    else if (k == "duration") noise.duration_seconds = std::stod(v);
    else if (k == "seed") noise.seed = std::stoull(v);
    else if (k == "jitter") noise.jitter = std::stod(v);
    else return false;
    return true;
  });
  SOC_REQUIRE(noise.enabled(),
              "noise: interval and duration must both be > 0");
  return noise;
}

CheckpointSpec parse_checkpoint_spec(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  SOC_REQUIRE(colon != std::string::npos && spec.substr(0, colon) == "daly",
              "checkpoint spec needs 'daly:<params>', got '" + spec + "'");
  CheckpointSpec ckpt;
  parse_kv(spec.substr(colon + 1), "checkpoint",
           [&](const std::string& k, const std::string& v) {
             if (k == "size") ckpt.size_bytes = std::stod(v);
             else if (k == "bw") ckpt.bandwidth = std::stod(v);
             else if (k == "mtti") ckpt.mtti_seconds = std::stod(v);
             else if (k == "runtime") ckpt.runtime_seconds = std::stod(v);
             else return false;
             return true;
           });
  SOC_REQUIRE(ckpt.enabled(), "checkpoint: size and bw must both be > 0");
  SOC_REQUIRE(ckpt.mtti_seconds > 0.0, "checkpoint: mtti must be > 0");
  return ckpt;
}

ScenarioConfig parse_scenario(const std::string& faults,
                              const std::string& noise,
                              const std::string& checkpoint) {
  ScenarioConfig config;
  for (const std::string& spec : split(faults, ';')) {
    config.faults.push_back(parse_fault_spec(spec));
  }
  if (!noise.empty()) config.noise = parse_noise_spec(noise);
  if (!checkpoint.empty()) config.checkpoint = parse_checkpoint_spec(checkpoint);
  return config;
}

}  // namespace soc::workloads
