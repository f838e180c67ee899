// Tick benchmark: replays seeded monitor ticks through one const RiskMonitor
// on one thread and reports end-to-end tick latency, throughput, set-up time
// and memory (--trace=0), or the per-layer decomposition of the same ticks
// (--trace=1). tickbench/run.py builds this binary and is the entry point;
// README.md in this directory describes the workloads and metrics.
//
//   tick_bench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//              [--trace-out=<file.json>] [--require-release]
//   tick_bench --selftest [--require-release]
//
// Prints one JSON line (workload, digests, context, metrics) on success.
// Exits 3 without metrics when a determinism gate fails.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/telemetry.hpp"
#include "core/monitor.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace tickbench {
namespace {

namespace core = iprism::core;
using Assessment = core::RiskMonitor::Assessment;
using iprism::common::telemetry::trace_now_ns;

constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kSelftestPrefixTicks = 200;

/// Thrown when a determinism or cross-check gate fails: the run reports no
/// metrics.
struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void gate(bool ok, const std::string& what) {
  if (!ok) throw GateFailure(what);
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// Linear-interpolated quantile of a sorted sample, q in [0, 1].
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(trace_now_ns() - start_ns) * 1e-9;
}

bool assessment_ok(const Assessment& a) {
  return a.sti_combined >= 0.0 && a.sti_combined <= 1.0;
}

std::uint64_t hash_assessment(std::uint64_t h, const Assessment& a, bool ok) {
  h = hash_mix(h, ok ? 1 : 0);
  if (!ok) return h;
  h = hash_mix(h, double_bits(a.sti_combined));
  h = hash_mix(h, static_cast<std::uint64_t>(a.level));
  h = hash_mix(h, a.riskiest_actor ? static_cast<std::uint64_t>(*a.riskiest_actor) + 1 : 0);
  return hash_mix(h, double_bits(a.riskiest_sti));
}

bool same_bits(const Assessment& a, const Assessment& b) {
  return double_bits(a.sti_combined) == double_bits(b.sti_combined) && a.level == b.level &&
         a.riskiest_actor == b.riskiest_actor &&
         double_bits(a.riskiest_sti) == double_bits(b.riskiest_sti);
}

// --- Set-up ------------------------------------------------------------------

/// Everything the timed loop touches: the generated worlds, the const
/// engine, and one warm session per episode.
struct Prepared {
  Workload workload;
  std::unique_ptr<core::RiskMonitor> monitor;
  std::vector<core::RiskSession> sessions;
};

struct SetupTimes {
  double inputs_s = 0.0;
  double warmup_s = 0.0;
  double total_s = 0.0;
};

Prepared set_up(const std::string& name, std::uint64_t seed, SetupTimes& times) {
  const std::uint64_t begin = trace_now_ns();
  Prepared p;
  p.workload = make_workload(name, seed);
  const std::uint64_t generated = trace_now_ns();
  p.monitor = std::make_unique<core::RiskMonitor>(monitor_params());
  p.sessions.resize(p.workload.episodes.size());
  // One cold tick per session grows its scratch; reset() keeps the scratch
  // and forgets the level, so every timed pass starts from the same state.
  for (std::size_t e = 0; e < p.sessions.size(); ++e) {
    (void)p.monitor->update(p.sessions[e], p.workload.episodes[e].ticks.front());
    p.sessions[e].reset();
  }
  const std::uint64_t end = trace_now_ns();
  times.inputs_s = static_cast<double>(generated - begin) * 1e-9;
  times.warmup_s = static_cast<double>(end - generated) * 1e-9;
  times.total_s = static_cast<double>(end - begin) * 1e-9;
  return p;
}

/// Set-up repeated between measured passes, so set-ups are spread over the
/// run like the tick repetitions and setup_s (the fastest of them) samples
/// the host as often. Every set-up must generate the same inputs.
class Fixture {
 public:
  Fixture(std::string name, std::uint64_t seed) : name_(std::move(name)), seed_(seed) {}

  /// Set up again before the next pass? For the first kMinPasses passes;
  /// then whenever set-up time stays under a tenth of the `measured_s`
  /// so far, which renews before every pass when set-up is cheap and caps
  /// its cost (and so a run's length) when not.
  bool due(double measured_s) const {
    double spent = 0.0;
    for (const SetupTimes& t : times_) spent += t.total_s;
    return times_.size() < kMinPasses || spent < 0.1 * measured_s;
  }

  /// Drops the current set-up and builds the next one.
  Prepared& renew() {
    current_.reset();
    SetupTimes t;
    current_ = set_up(name_, seed_, t);
    times_.push_back(t);
    const std::uint64_t h = input_digest(current_->workload);
    gate(times_.size() == 1 || h == input_hash_,
         "set-up " + std::to_string(times_.size() - 1) + " generated different inputs");
    input_hash_ = h;
    return *current_;
  }

  Prepared& current() { return *current_; }
  const std::vector<SetupTimes>& times() const { return times_; }
  std::uint64_t input_hash() const { return input_hash_; }

 private:
  std::string name_;
  std::uint64_t seed_;
  std::optional<Prepared> current_;
  std::vector<SetupTimes> times_;
  std::uint64_t input_hash_ = 0;
};

// --- Untraced passes -----------------------------------------------------------

struct Pass {
  std::vector<double> latency_ns;  ///< per tick
  std::vector<Assessment> assessments;
  double wall_s = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t failed = 0;
};

/// One pass over every tick: each episode's session is reset, then each tick
/// is one RiskMonitor::update, timed alone. With `allocs`, the heap
/// allocations of the loop are counted into it; the pass's own buffers are
/// sized before counting starts, so only the program's allocations count.
Pass untraced_pass(Prepared& p, bool keep_assessments, AllocTotals* allocs = nullptr) {
  Pass out;
  out.latency_ns.resize(p.workload.tick_count());
  if (keep_assessments) out.assessments.reserve(out.latency_ns.size());
  std::uint64_t h = 0;
  std::size_t idx = 0;
  if (allocs != nullptr) alloc_count_begin();
  const std::uint64_t begin = trace_now_ns();
  for (std::size_t e = 0; e < p.sessions.size(); ++e) {
    core::RiskSession& session = p.sessions[e];
    session.reset();
    for (const auto& world : p.workload.episodes[e].ticks) {
      Assessment a;
      bool ok = true;
      const std::uint64_t t0 = trace_now_ns();
      try {
        a = p.monitor->update(session, world);
      } catch (const std::exception& ex) {
        ok = false;
        if (out.failed == 0) std::cerr << "tick " << idx << " threw: " << ex.what() << "\n";
      }
      const std::uint64_t t1 = trace_now_ns();
      ok = ok && assessment_ok(a);
      out.latency_ns[idx++] = static_cast<double>(t1 - t0);
      h = hash_assessment(h, a, ok);
      out.failed += ok ? 0 : 1;
      if (keep_assessments) out.assessments.push_back(a);
    }
  }
  out.wall_s = seconds_since(begin);
  if (allocs != nullptr) *allocs = alloc_count_end();
  out.digest = h;
  return out;
}

/// True while another pass of `last_s` seconds ends closer to `seconds` of
/// measurement than stopping after `measured_s` would (always until
/// kMinPasses).
bool another_pass(std::size_t done, double measured_s, double last_s, double seconds) {
  return done < kMinPasses || measured_s + 0.5 * last_s < seconds;
}

/// Each tick's fastest repetition, ns. On a shared host the same tick runs
/// in a fast and a slow state (the slow one ~1.5x, switching within seconds),
/// so the median of a tick's repetitions flips with the slow share of the run;
/// the fastest repetition is the program's cost with the host out of the way.
/// Throughput and set-up time are taken the same way (end_to_end).
std::vector<double> per_tick_fastest(const std::vector<Pass>& passes) {
  std::vector<double> out = passes.front().latency_ns;
  for (const Pass& pass : passes) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::min(out[i], pass.latency_ns[i]);
  }
  return out;
}

// --- Output ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Report {
  bool trace = false;
  std::uint64_t input_digest = 0;
  std::uint64_t assessment_digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int setups = 0;
  int timed_passes = 0;
  int traced_passes = 0;
  std::vector<Metric> metrics;
};

void print_report(const Report& r, const Workload& w) {
  std::ostringstream os;
  os << "{\"workload\":" << json_string(w.name) << ",\"seed\":" << w.seed
     << ",\"trace\":" << (r.trace ? 1 : 0) << ",\"correct\":" << (r.failed == 0 ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"input_digest\":\"" << hex(r.input_digest) << "\",\"assessment_digest\":\""
     << hex(r.assessment_digest) << "\",\"context\":{\"cpu_model\":" << json_string(cpu_model())
     << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
     << ",\"compiler\":" << json_string(TICKBENCH_COMPILER)
     << ",\"build_type\":" << json_string(TICKBENCH_BUILD_TYPE)
     << ",\"telemetry\":" << (IPRISM_TELEMETRY_ENABLED ? "true" : "false")
     << ",\"seed\":" << w.seed << ",\"episodes\":" << w.episodes.size()
     << ",\"distinct_ticks\":" << w.tick_count() << ",\"setups\":" << r.setups
     << ",\"repetitions\":" << r.timed_passes << ",\"traced_repetitions\":" << r.traced_passes
     << "},\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i ? "," : "") << json_string(m.name) << ":{\"value\":" << json_number(m.value)
       << ",\"unit\":" << json_string(m.unit) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// --- End-to-end run ------------------------------------------------------------

void end_to_end(const std::string& name, std::uint64_t seed, double seconds) {
  // Peak RSS is read after the first set-up and pass: later set-ups only
  // churn the allocator, and their count follows the host's speed.
  Fixture fixture(name, seed);
  std::vector<Pass> passes;
  double rss_mb = 0.0;
  double measured_s = 0.0;
  while (another_pass(passes.size(), measured_s, passes.empty() ? 0.0 : passes.back().wall_s,
                      seconds)) {
    if (fixture.due(measured_s)) fixture.renew();
    passes.push_back(untraced_pass(fixture.current(), false));
    if (passes.size() == 1) rss_mb = peak_rss_mb();
    measured_s += passes.back().wall_s;
    gate(passes.back().digest == passes.front().digest,
         "timed pass " + std::to_string(passes.size() - 1) + " assessment digest " +
             hex(passes.back().digest) + " != pass 0 digest " + hex(passes.front().digest));
  }

  Report r;
  const std::size_t n = fixture.current().workload.tick_count();
  std::vector<double> tick_ns = per_tick_fastest(passes);
  std::sort(tick_ns.begin(), tick_ns.end());
  // Throughput: the ticks' fastest repetitions plus the least loop overhead
  // of any pass (session resets, timer reads; a pass's wall time minus its
  // ticks). A whole pass (2-3.5 s) rarely runs clear of the host's slow
  // spells, so the fastest pass would follow the host, not the program.
  double loop_overhead_s = passes.front().wall_s;
  for (const Pass& pass : passes) {
    r.failed += pass.failed;
    double ticks_s = 0.0;
    for (const double v : pass.latency_ns) ticks_s += v * 1e-9;
    loop_overhead_s = std::min(loop_overhead_s, pass.wall_s - ticks_s);
  }
  double busy_s = 0.0;
  for (const double v : tick_ns) busy_s += v * 1e-9;
  double setup_s = fixture.times().front().total_s;
  for (const SetupTimes& t : fixture.times()) setup_s = std::min(setup_s, t.total_s);

  r.trace = false;
  r.input_digest = fixture.input_hash();
  r.assessment_digest = passes.front().digest;
  r.attempted = n * passes.size();
  r.setups = static_cast<int>(fixture.times().size());
  r.timed_passes = static_cast<int>(passes.size());
  r.metrics = {
      {"tick_p50_us", quantile(tick_ns, 0.50) * 1e-3, "us"},
      {"tick_p98_us", quantile(tick_ns, 0.98) * 1e-3, "us"},
      {"ticks_per_s", static_cast<double>(n) / (busy_s + loop_overhead_s), "1/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  print_report(r, fixture.current().workload);
}

// --- Traced run ------------------------------------------------------------------

struct TracedPass {
  std::vector<LayerTimes> times;  ///< per tick
  WorkCounts counts;
  std::uint64_t digest = 0;
};

TracedPass traced_pass(Prepared& p, const Decomposer& decomposer,
                       const std::vector<Assessment>& reference, std::vector<Span>& spans) {
  TracedPass out;
  out.times.resize(p.workload.tick_count());
  std::uint64_t h = 0;
  std::uint32_t idx = 0;
  for (std::size_t e = 0; e < p.sessions.size(); ++e) {
    MonitorState state;
    for (const auto& world : p.workload.episodes[e].ticks) {
      const Assessment a =
          decomposer.tick(idx, p.sessions[e], state, world, spans, out.counts, out.times[idx]);
      gate(same_bits(a, reference[idx]),
           "tick " + std::to_string(idx) + ": layer decomposition disagrees with "
           "RiskMonitor::update (monitor or STI policy changed?)");
      h = hash_assessment(h, a, assessment_ok(a));
      ++idx;
    }
  }
  out.digest = h;
  return out;
}

/// Program-side counts the decomposition must reproduce (telemetry builds).
struct TelemetryCounts {
  std::uint64_t compute_attributed = 0;
  std::uint64_t cf_free = 0;
  std::uint64_t attribution_runs = 0;
};

TelemetryCounts read_telemetry() {
  TelemetryCounts c;
#if IPRISM_TELEMETRY_ENABLED
  auto& reg = iprism::common::telemetry::MetricsRegistry::instance();
  c.compute_attributed = reg.histogram("reachtube.compute_attributed").count();
  c.cf_free = reg.counter("sti.cf_free").value();
  c.attribution_runs = reg.counter("monitor.attribution_runs").value();
#endif
  return c;
}

void write_trace(const std::string& path, const Workload& w, const std::vector<Span>& spans) {
  std::vector<std::size_t> episode_of;
  std::vector<std::size_t> first_tick;
  for (std::size_t e = 0; e < w.episodes.size(); ++e) {
    first_tick.push_back(episode_of.size());
    episode_of.insert(episode_of.end(), w.episodes[e].ticks.size(), e);
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "tick_bench: cannot write trace to " << path << "\n";
    return;
  }
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::size_t e = episode_of[s.tick];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << kLayerNames[s.layer]
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << json_number(s.start_ns * 1e-3)
        << ",\"dur\":" << json_number(s.dur_ns * 1e-3) << ",\"args\":{\"id\":\"" << w.name << "/"
        << e << "/" << (s.tick - first_tick[e]) << "\"}}";
  }
  out << "\n]}\n";
}

void traced(const std::string& name, std::uint64_t seed, double seconds,
            const std::string& trace_out) {
  // Untraced and traced passes alternate on each set-up, so both sample the
  // same host conditions and their difference is the tracing, not drift.
  // The first untraced pass keeps the assessments the decomposition must
  // reproduce; the spans of the last traced pass are written out.
  Fixture fixture(name, seed);
  std::vector<Span> spans;
  std::vector<Pass> plain;
  std::vector<TracedPass> traced;
  double measured_s = 0.0;
  double last_pair_s = 0.0;
  while (another_pass(traced.size(), measured_s, last_pair_s, seconds)) {
    if (fixture.due(measured_s)) fixture.renew();
    Prepared& p = fixture.current();
    const std::uint64_t pair_begin = trace_now_ns();
    plain.push_back(untraced_pass(p, plain.empty()));
    gate(plain.back().digest == plain.front().digest, "timed pass assessment digests differ");
    spans.clear();
    spans.reserve(p.workload.tick_count() * 16);
    const Decomposer decomposer(*p.monitor, monitor_params());
    traced.push_back(traced_pass(p, decomposer, plain.front().assessments, spans));
    gate(traced.back().digest == plain.front().digest,
         "traced pass digest " + hex(traced.back().digest) + " != timed digest");
    gate(traced.back().counts == traced.front().counts,
         "traced pass work counts differ between passes");
    last_pair_s = seconds_since(pair_begin);
    measured_s += last_pair_s;
  }
  Prepared& p = fixture.current();
  const std::size_t n = p.workload.tick_count();
  const WorkCounts& wc = traced.front().counts;

  // Counting passes: allocations of RiskMonitor::update, and the program's
  // own telemetry counts over the same ticks.
  AllocTotals allocs[2];
  for (AllocTotals& totals : allocs) {
    const TelemetryCounts before = read_telemetry();
    const Pass pass = untraced_pass(p, false, &totals);
    const TelemetryCounts after = read_telemetry();
    gate(pass.digest == plain.front().digest, "counting pass digest differs");
    if (IPRISM_TELEMETRY_ENABLED) {
      gate(after.compute_attributed - before.compute_attributed == wc.base_calls,
           "decomposition base calls != reachtube.compute_attributed count");
      gate(after.cf_free - before.cf_free == wc.cf_free,
           "decomposition free counterfactuals != sti.cf_free");
      gate(after.attribution_runs - before.attribution_runs == wc.full_ticks,
           "decomposition full ticks != monitor.attribution_runs");
    }
  }
  gate(allocs[0].count == allocs[1].count && allocs[0].bytes == allocs[1].bytes,
       "allocation counts differ between passes");

  // Each tick's fastest untraced repetition, and the layer times of its
  // fastest traced repetition (so layers and tick come from one run of it).
  double untraced_sum = 0.0;
  for (const double v : per_tick_fastest(plain)) untraced_sum += v;
  std::vector<double> layer_sum(kLayerCount, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const TracedPass* best = &traced.front();
    for (const TracedPass& pass : traced) {
      if (pass.times[i][kTick] < best->times[i][kTick]) best = &pass;
    }
    for (std::size_t layer = 0; layer < kLayerCount; ++layer) {
      layer_sum[layer] += static_cast<double>(best->times[i][layer]);
    }
  }
  double layers_total = 0.0;
  for (int layer = kForecast; layer < kLayerCount; ++layer) {
    layers_total += layer_sum[static_cast<std::size_t>(layer)];
  }
  const double ticks = static_cast<double>(n);
  auto us_per_tick = [&](Layer layer) { return layer_sum[layer] * 1e-3 / ticks; };
  auto ratio = [](std::uint64_t num, std::uint64_t den, double if_none) {
    return den == 0 ? if_none : static_cast<double>(num) / static_cast<double>(den);
  };
  const auto base_calls = static_cast<double>(wc.base_calls);
  SetupTimes fastest_setup = fixture.times().front();
  for (const SetupTimes& t : fixture.times()) {
    fastest_setup.inputs_s = std::min(fastest_setup.inputs_s, t.inputs_s);
    fastest_setup.warmup_s = std::min(fastest_setup.warmup_s, t.warmup_s);
  }

  Report r;
  r.trace = true;
  r.input_digest = fixture.input_hash();
  r.assessment_digest = plain.front().digest;
  for (const Pass& pass : plain) r.failed += pass.failed;
  r.attempted = n * (plain.size() + traced.size() + 2);
  r.setups = static_cast<int>(fixture.times().size());
  r.timed_passes = static_cast<int>(plain.size());
  r.traced_passes = static_cast<int>(traced.size());
  r.metrics = {
      {"forecast.us_per_tick", us_per_tick(kForecast), "us"},
      {"forecast.actors_per_tick", static_cast<double>(wc.actors) / ticks, "count"},
      {"obstacles.us_per_tick", us_per_tick(kObstacles), "us"},
      {"base.us_per_tick", us_per_tick(kBase), "us"},
      {"base.calls_per_tick", base_calls / ticks, "count"},
      {"base.tests_per_call", static_cast<double>(wc.base_tests) / base_calls, "count"},
      {"base.states_per_call", static_cast<double>(wc.base_states) / base_calls, "count"},
      {"base.ns_per_test", layer_sum[kBase] / static_cast<double>(wc.base_tests), "ns"},
      {"base.active_obstacle_slices_per_call", static_cast<double>(wc.base_active) / base_calls,
       "count"},
      {"base.blocked_frontier_per_call", static_cast<double>(wc.base_frontier) / base_calls,
       "count"},
      {"unblocked.us_per_tick", us_per_tick(kUnblocked), "us"},
      {"unblocked.free_frac", ratio(wc.unblocked_free, wc.unblocked_calls, 1.0), "fraction"},
      {"counterfactual.us_per_tick", us_per_tick(kCounterfactual), "us"},
      {"counterfactual.replays_per_tick", static_cast<double>(wc.replays) / ticks, "count"},
      {"counterfactual.free_frac", ratio(wc.cf_free, wc.cf_total, 1.0), "fraction"},
      {"replay.fresh_tests_per_tick", static_cast<double>(wc.replay_fresh_tests) / ticks,
       "count"},
      {"replay.memo_hit_frac",
       ratio(wc.replay_memo_hits, wc.replay_memo_hits + wc.replay_fresh_tests, 0.0), "fraction"},
      {"monitor.full_tick_frac", static_cast<double>(wc.full_ticks) / ticks, "fraction"},
      {"tick.unattributed_frac", 1.0 - layers_total / untraced_sum, "fraction"},
      {"trace.overhead_frac", layer_sum[kTick] / untraced_sum - 1.0, "fraction"},
      {"alloc.count_per_tick", static_cast<double>(allocs[0].count) / ticks, "count"},
      {"alloc.bytes_per_tick", static_cast<double>(allocs[0].bytes) / ticks, "B"},
      {"setup.inputs_s", fastest_setup.inputs_s, "s"},
      {"setup.warmup_s", fastest_setup.warmup_s, "s"},
  };
  if (!trace_out.empty()) write_trace(trace_out, p.workload, spans);
  print_report(r, p.workload);
}

// --- Self-test ---------------------------------------------------------------------

/// Same seed → same inputs and assessments; another seed → other inputs; the
/// decomposition equals RiskMonitor::update on a prefix of every workload.
/// Prints each workload's default-seed digests as one JSON line.
int selftest() {
  std::ostringstream digests;
  digests << "{";
  for (const std::string_view name_view : kWorkloadNames) {
    const std::string name(name_view);
    SetupTimes times;
    Prepared a = set_up(name, kDefaultSeed, times);
    Prepared b = set_up(name, kDefaultSeed, times);
    const std::uint64_t inputs_a = input_digest(a.workload);
    const std::uint64_t inputs_b = input_digest(b.workload);
    gate(inputs_a == inputs_b, name + ": same seed generated different inputs");
    gate(input_digest(make_workload(name, kDefaultSeed + 1)) != inputs_a,
         name + ": seeds " + std::to_string(kDefaultSeed) + " and " +
             std::to_string(kDefaultSeed + 1) + " generated the same inputs");
    const Pass pass_a = untraced_pass(a, true);
    const Pass pass_b = untraced_pass(b, false);
    gate(pass_a.digest == pass_b.digest, name + ": same seed gave different assessments");
    gate(pass_a.failed == 0, name + ": failed ticks");

    // Prefix: fresh sessions, decomposition vs the assessments of pass_a.
    const Decomposer decomposer(*a.monitor, monitor_params());
    std::vector<Span> spans;
    WorkCounts counts;
    LayerTimes layer_times{};
    std::uint32_t idx = 0;
    for (std::size_t e = 0; e < a.sessions.size() && idx < kSelftestPrefixTicks; ++e) {
      core::RiskSession session;
      MonitorState state;
      for (const auto& world : a.workload.episodes[e].ticks) {
        const Assessment got =
            decomposer.tick(idx, session, state, world, spans, counts, layer_times);
        gate(same_bits(got, pass_a.assessments[idx]),
             name + ": decomposition != RiskMonitor::update at tick " + std::to_string(idx));
        ++idx;
      }
    }
    std::cerr << "selftest " << name << ": " << a.workload.tick_count() << " ticks, "
              << idx << "-tick prefix decomposes bit-identically\n";
    digests << (name == kWorkloadNames[0] ? "" : ",") << json_string(name)
            << ":{\"seed\":" << kDefaultSeed << ",\"ticks\":" << a.workload.tick_count()
            << ",\"input_digest\":\"" << hex(inputs_a) << "\",\"assessment_digest\":\""
            << hex(pass_a.digest) << "\"}";
  }
  digests << "}";
  std::cout << digests.str() << std::endl;
  return 0;
}

int run(int argc, char** argv) {
  iprism::bench::require_release_guard(argc, argv);
  const iprism::common::CliArgs args(argc, argv);
  if (args.has("selftest")) return selftest();

  const std::string name = args.get_string("workload", "");
  const std::uint64_t seed = std::stoull(args.get_string("seed", std::to_string(kDefaultSeed)));
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_int("trace", 0) != 0;
  if (seconds <= 0.0) {
    std::cerr << "tick_bench: --seconds must be > 0\n";
    return 2;
  }
  if (trace) {
    traced(name, seed, seconds, args.get_string("trace-out", ""));
  } else {
    end_to_end(name, seed, seconds);
  }
  return 0;
}

}  // namespace
}  // namespace tickbench

int main(int argc, char** argv) {
  try {
    return tickbench::run(argc, argv);
  } catch (const tickbench::GateFailure& e) {
    std::cerr << "tick_bench: gate failed: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "tick_bench: " << e.what() << "\n";
    return 2;
  }
}
