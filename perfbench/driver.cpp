// End-to-end benchmark driver: runs one seeded workload against the library
// and the serve daemons, checks every output against a computation made apart
// from the program, and prints one JSON result line.
//
//   e2e_driver --workload certify-100k|size-sim|serve-direct|serve-cluster
//              --seed N --seconds S --trace 0|1 --bin-dir DIR
//   e2e_driver --selftest
//
// Work is fixed per (workload, --seconds): the number of passes, instances or
// requests is a function of the arguments, never of a wall-clock budget.
// op_ms and setup_s are CPU times (see cpu_ms); ops_per_s is a wall-clock
// rate from the fastest repeat of each unit. Every layer is timed from
// outside, around calls into its public functions; with --trace 1 those calls
// are recorded as spans (name, start, end, parent, request id), written to
// <workload>.trace.json in the working directory, and reduced to per-layer
// self times.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/certify.hpp"
#include "graph/scc.hpp"
#include "lid_api.hpp"
#include "lint/checks.hpp"
#include "lis/lis_graph.hpp"
#include "lis/netlist_io.hpp"
#include "mg/mcm.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/session.hpp"
#include "util/json.hpp"
#include "util/rational.hpp"
#include "verify/certificate.hpp"

namespace {

using namespace lid;
using Clock = std::chrono::steady_clock;

// Static initialisation runs before main: the closest in-process stand-in for
// the process start that setup_s is measured from.
const Clock::time_point g_process_start = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_process_start)
      .count();
}
double ms_between(std::int64_t a_ns, std::int64_t b_ns) { return (b_ns - a_ns) / 1e6; }

// CPU time of this thread or process (CLOCK_THREAD_CPUTIME_ID,
// CLOCK_PROCESS_CPUTIME_ID). op_ms and setup_s are CPU times: the host's
// hypervisor takes whole slices of wall time from the guest (steal, measured
// at 0-40% of a CPU), and that time is not the program's.
double cpu_ms(clockid_t clock) {
  timespec t{};
  ::clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_nsec) / 1e6;
}

struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i = std::min(v.size() - 1, static_cast<std::size_t>(q * v.size()));
  return v[i];
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded per thread, merged when the run ends.

bool g_trace = false;

struct SpanRec {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  int parent;  // index into the same thread's buffer, -1 for a root
  std::int64_t request;
};

struct ThreadSpans {
  std::vector<SpanRec> spans;
  std::vector<int> stack;
};
thread_local ThreadSpans t_spans;

std::mutex g_spans_mutex;
std::vector<SpanRec> g_spans;

class Span {
 public:
  explicit Span(const char* name, std::int64_t request = 0) {
    if (!g_trace) return;
    index_ = static_cast<int>(t_spans.spans.size());
    const int parent = t_spans.stack.empty() ? -1 : t_spans.stack.back();
    t_spans.spans.push_back({name, now_ns(), 0, parent, request});
    t_spans.stack.push_back(index_);
  }
  ~Span() {
    if (index_ < 0) return;
    t_spans.spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
    t_spans.stack.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

// Moves this thread's spans into the global list, rebasing parent indices.
void flush_spans() {
  const std::lock_guard<std::mutex> lock(g_spans_mutex);
  const int base = static_cast<int>(g_spans.size());
  for (SpanRec s : t_spans.spans) {
    if (s.parent >= 0) s.parent += base;
    g_spans.push_back(s);
  }
  t_spans.spans.clear();
}

struct SelfTime {
  double ms = 0;
  std::int64_t calls = 0;
  double per_call() const { return calls > 0 ? ms / static_cast<double>(calls) : 0.0; }
};

// Self time per span name: duration minus the part its children cover.
std::map<std::string, SelfTime> self_times() {
  std::vector<double> child_ms(g_spans.size(), 0.0);
  for (const SpanRec& s : g_spans) {
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += ms_between(s.start_ns, s.end_ns);
  }
  std::map<std::string, SelfTime> self;
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    SelfTime& t = self[g_spans[i].name];
    t.ms += ms_between(g_spans[i].start_ns, g_spans[i].end_ns) - child_ms[i];
    t.calls += 1;
  }
  return self;
}

void write_spans(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  out << "[";
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRec& s = g_spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}";
  }
  out << "\n]\n";
}

// Cost of one traced span, measured on this host at the end of a traced run.
double span_cost_ns() {
  constexpr int kN = 100000;
  ThreadSpans saved;
  std::swap(saved, t_spans);
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kN; ++i) {
    const Span s("calibrate");
  }
  const double per = static_cast<double>(now_ns() - t0) / kN;
  std::swap(saved, t_spans);
  return per;
}

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;  // filled only when tracing
  double ref_start_ms = 0;              // host reference right after set-up
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    failed += 1;
    if (problems.size() < 20) problems.push_back(why);
  }
  void wrong(const std::string& why) {
    correct = false;
    if (problems.size() < 20) problems.push_back(why);
  }
  void set_layer(const std::string& name, double value, const char* unit) {
    layer[name] = Metric{value, unit};
  }
};

// Every per-layer metric the benchmark declares, printed on every workload in
// traced runs (0 where a workload does not exercise the layer).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"lis.parse_ms", "ms"},
    {"lis.expand_ms", "ms"},
    {"lis.places", "count"},
    {"lis.transitions", "count"},
    {"graph.scc_ms", "ms"},
    {"graph.sccs", "count"},
    {"mg.howard_ms", "ms"},
    {"mg.howard_rounds", "count"},
    {"mg.ns_per_place_round", "ns"},
    {"lint.ms", "ms"},
    {"lint.findings", "count"},
    {"certify.pass_p50_ms", "ms"},
    {"core.certify_ms", "ms"},
    {"verify.encode_ms", "ms"},
    {"verify.decode_ms", "ms"},
    {"verify.check_ms", "ms"},
    {"verify.cert_bytes", "bytes"},
    {"verify.sizing_check_ms", "ms"},
    {"core.size_ms", "ms"},
    {"core.size_total_ms", "ms"},
    {"core.size_max_ms", "ms"},
    {"core.lazy_rounds", "count"},
    {"core.constraints", "count"},
    {"core.exact_ms", "ms"},
    {"core.exact_nodes", "count"},
    {"core.howard_warm_restarts", "count"},
    {"core.fell_back", "count"},
    {"core.extra_slots", "slots"},
    {"core.slots_over_lower_bound", "slots"},
    {"des.det_ms", "ms"},
    {"des.det_events", "count"},
    {"des.stoch_ms", "ms"},
    {"des.stoch_events", "count"},
    {"des.stall_events", "count"},
    {"des.sim_throughput", "ratio"},
    {"des.events_per_s", "events/s"},
    {"serve.exec_ms.analyze", "ms"},
    {"serve.exec_ms.size-queues", "ms"},
    {"serve.exec_ms.register-model", "ms"},
    {"serve.wait_ms", "ms"},
    {"serve.transport_ms", "ms"},
    {"serve.hit_p50_ms", "ms"},
    {"serve.solve_p50_ms", "ms"},
    {"serve.rps_total", "1/s"},
    {"serve.client_cpu_ms", "ms"},
    {"serve.daemon_cpu_ms", "ms"},
    {"serve.memo_hit_ratio", "ratio"},
    {"serve.evictions", "count"},
    {"serve.reregistrations", "count"},
    {"serve.bytes_per_request", "bytes"},
    {"serve.rtt_p99_ms", "ms"},
    {"serve.rtt_samples", "count"},
    {"cluster.hop_ms", "ms"},
    {"cluster.worker_skew", "ratio"},
    {"cluster.failovers", "count"},
    {"cluster.reregistrations", "count"},
    {"setup.gen_ms", "ms"},
    {"setup.wall_ms", "ms"},
    {"serve.ref_ms", "ms"},
    {"setup.start_ms", "ms"},
    {"setup.register_ms", "ms"},
    {"host.ref_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_ms", "ms"},
    {"trace.op_ms", "ms"},
};

const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"}, {"op_ms", "ms"}, {"ops_per_s", "1/s"}, {"peak_rss_mb", "MB"}};

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const RunResult& r) {
  for (const std::string& p : r.problems) std::cerr << "perfbench: " << p << "\n";
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed << ", \"metrics\": {";
  const auto& names = g_trace ? kLayerMetrics : kEndToEnd;
  const auto& values = g_trace ? r.layer : r.e2e;
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = values.find(name);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << number(it == values.end() ? 0.0 : it->second.value) << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// ---------------------------------------------------------------------------
// Host reference: a fixed computation outside the program, run at the start
// and end of each workload, that shows when a run fell in a slow minute.

double host_ref_ms() {
  std::uint64_t s = 12345;
  std::vector<std::uint64_t> v(1 << 19);
  for (auto& x : v) x = splitmix(s);
  const std::int64_t t0 = now_ns();
  std::sort(v.begin(), v.end());
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < v.size(); i += 7) acc ^= v[i] * (i + 1);
  const double ms = ms_between(t0, now_ns());
  if (acc == 42) std::cerr << "";  // keeps the loop observable
  return ms;
}

// Ends the set-up: setup_s is the CPU time the driver, and the daemons it
// started, used from the driver's start to here. The host reference is taken
// next, before the first timed operation.
void end_setup(RunResult& r, double daemons_cpu_ms = 0) {
  r.e2e["setup_s"] = {(cpu_ms(CLOCK_PROCESS_CPUTIME_ID) + daemons_cpu_ms) / 1e3, "s"};
  r.set_layer("setup.wall_ms", now_ns() / 1e6, "ms");
  r.ref_start_ms = host_ref_ms();
}

// User plus system CPU time of a child process, from /proc/<pid>/stat.
double child_cpu_ms(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) throw BenchError("cannot read /proc/" + std::to_string(pid) + "/stat");
  std::istringstream fields(stat.substr(paren + 2));
  std::string f;
  double ticks = 0;
  for (int i = 0; i < 13 && fields >> f; ++i) {
    if (i >= 11) ticks += std::stod(f);  // utime, stime
  }
  return ticks * 1e3 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double vm_hwm_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// The checks. Each returns "" when the input passes and a reason otherwise;
// run_selftest feeds each one a deliberately wrong input.

std::string check_certificate(const lis::LisGraph& g, const verify::Certificate& cert) {
  const verify::CheckResult r = verify::check(g, cert);
  if (r.ok) return "";
  return std::string("certificate rejected: ") + verify::to_string(r.reason) + " " + r.detail;
}

// A certificate with one potential altered: the consumer of the `pick`-th
// place on the critical walk loses one unit, which breaks that (tight)
// place's potential inequality.
verify::Certificate tamper_potential(verify::Certificate cert, const lis::LisGraph& g,
                                     std::uint64_t pick = 0) {
  verify::McmWitness& w = cert.kind == verify::Kind::kAnalyze ? cert.practical : cert.achieved;
  const lis::Expansion exp = lis::expand_doubled(g);
  if (!w.acyclic && !w.critical.places.empty()) {
    const auto place =
        static_cast<mg::PlaceId>(w.critical.places[pick % w.critical.places.size()]);
    w.potential[static_cast<std::size_t>(exp.graph.consumer(place))] -= 1;
  } else if (!w.potential.empty()) {
    w.potential.front() += 1;
  }
  return cert;
}

// The sized netlist, written to text and parsed back, keeps every queue at
// least as large as the original's and analyses to exactly `target`.
std::string check_sized(const lis::LisGraph& original, const std::string& sized_text,
                        const util::Rational& target) {
  lis::LisGraph sized;
  {
    const Span s("lis.parse");
    sized = lis::from_text(sized_text);
  }
  if (sized.num_channels() != original.num_channels()) return "sized netlist lost channels";
  for (std::size_t c = 0; c < original.num_channels(); ++c) {
    const auto id = static_cast<lis::ChannelId>(c);
    if (sized.channel(id).queue_capacity < original.channel(id).queue_capacity) {
      return "sized netlist shrank queue " + std::to_string(c);
    }
  }
  lis::Expansion exp;
  {
    const Span s("lis.expand");
    exp = lis::expand_doubled(sized);
  }
  util::Rational theta;
  {
    const Span s("mg.howard");
    mg::Workspace ws;
    theta = mg::mst_howard(exp.graph, ws);
  }
  if (theta != target) {
    return "sized netlist analyses to " + theta.to_string() + ", target " + target.to_string();
  }
  return "";
}

std::string check_payload(const std::string& got, const std::string& want) {
  if (got == want) return "";
  std::size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  return "payload differs from the in-process answer at byte " + std::to_string(i);
}

std::string check_ledger(std::int64_t client_ok, std::int64_t server_ok) {
  if (client_ok == server_ok) return "";
  return "ledger mismatch: client ok " + std::to_string(client_ok) + ", server ok " +
         std::to_string(server_ok);
}

// DES conservation (in = out + in flight) and the occupancy bound q + 2·rs + 1.
std::string check_des(const des::SimReport& r) {
  for (const des::ChannelStats& c : r.channels) {
    if (c.tokens_in != c.tokens_out + c.in_flight) {
      return "DES channel " + std::to_string(c.channel) + " does not conserve tokens";
    }
    if (c.max_occupancy > c.capacity + 2 * c.relay_stations + 1) {
      return "DES channel " + std::to_string(c.channel) + " occupancy " +
             std::to_string(c.max_occupancy) + " over its bound";
    }
  }
  return "";
}

// Lower bound on the slots any sizing needs: the deficits of a greedy set of
// channel-disjoint constraints from the certificate add up, since no slot can
// serve two of them.
std::int64_t constraint_lower_bound(const verify::Certificate& cert) {
  std::vector<const verify::DeficitConstraint*> order;
  for (const auto& c : cert.constraints) order.push_back(&c);
  std::stable_sort(order.begin(), order.end(),
                   [](const auto* a, const auto* b) { return a->deficit > b->deficit; });
  std::vector<std::int64_t> used;
  std::int64_t bound = 0;
  for (const auto* c : order) {
    const bool disjoint = std::none_of(c->channels.begin(), c->channels.end(), [&](std::int64_t ch) {
      return std::find(used.begin(), used.end(), ch) != used.end();
    });
    if (!disjoint) continue;
    bound += c->deficit;
    used.insert(used.end(), c->channels.begin(), c->channels.end());
  }
  return bound;
}

// No sizing can add fewer slots than the certificate's constraint set needs.
std::string check_slots(std::int64_t extra, const verify::Certificate& cert) {
  const std::int64_t lb = constraint_lower_bound(cert);
  if (extra >= lb) return "";
  return "sizing adds " + std::to_string(extra) + " slots, below the certificate's lower bound " +
         std::to_string(lb);
}

// ---------------------------------------------------------------------------
// Generator settings: `cores` cores in `sccs` SCCs with `chords` extra chords
// per SCC and cores/20 relay stations between SCCs.

GenerateOptions gen_options(int cores, int sccs, int chords, std::uint64_t seed) {
  GenerateOptions o;
  o.cores = cores;
  o.sccs = sccs;
  o.extra_cycles = chords;
  o.relay_stations = cores / 20;
  o.seed = seed;
  return o;
}

// The family of the 10^5-core CI netlist (gen --v 100000 --s 200 --c 400
// --rs 5000), scaled to `cores`. `rs_anywhere` also places relay stations
// inside SCCs (gen --policy any).
GenerateOptions family(int cores, std::uint64_t seed, bool rs_anywhere = false) {
  GenerateOptions o = gen_options(cores, cores / 500, cores / 250, seed);
  o.rs_anywhere = rs_anywhere;
  return o;
}

Instance generate_or_throw(const GenerateOptions& o) {
  Result<Instance> r = lid::generate(o);
  if (!r) throw BenchError("generate: " + r.error().to_string());
  return std::move(r).value();
}

// ---------------------------------------------------------------------------
// certify-100k: parse -> lint -> expand -> SCC -> Howard -> certify ->
// certificate to JSON and back -> check, on one 10^5-core netlist.

// The cost of one timed call: the thread's CPU time (the pipelines are
// single-threaded, so this is the work's own time) and the wall time a user
// waits for it.
struct Cost {
  double cpu_ms = 0;
  double wall_ms = 0;
};

// Runs `fn` inside a span and returns what it cost.
template <class F>
Cost timed(const char* name, std::int64_t op, F&& fn) {
  const Span s(name, op);
  const std::int64_t w = now_ns();
  const double a = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
  fn();
  return {cpu_ms(CLOCK_THREAD_CPUTIME_ID) - a, ms_between(w, now_ns())};
}

// The fastest of a unit's repeats. Neighbours on the host slow some repeats
// (contended caches and memory, stolen slices) and none speeds one up, so the
// fastest moves least from minute to minute.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

// The fastest CPU time and the fastest wall time of a unit's repeats.
Cost fastest(const std::vector<Cost>& v) {
  Cost best{v.empty() ? 0.0 : 1e300, v.empty() ? 0.0 : 1e300};
  for (const Cost& c : v) {
    best.cpu_ms = std::min(best.cpu_ms, c.cpu_ms);
    best.wall_ms = std::min(best.wall_ms, c.wall_ms);
  }
  return best;
}

// The steps of one certified pass, in order.
constexpr const char* kCertifySteps[] = {"lis.parse",   "lint",          "lis.expand",
                                         "graph.scc",   "mg.howard",     "core.certify",
                                         "verify.encode", "verify.decode", "verify.check"};
constexpr std::size_t kNumCertifySteps = std::size(kCertifySteps);

struct PassOut {
  std::size_t places = 0, transitions = 0, sccs = 0, findings = 0, cert_bytes = 0;
  std::int64_t howard_rounds = 0;
  std::array<Cost, kNumCertifySteps> step_cost{};
  verify::Certificate cert;
};

PassOut certify_pass(const std::string& text, std::int64_t op, RunResult& r) {
  const Span pass("certify.pass", op);
  PassOut out;
  std::size_t k = 0;
  auto step = [&](auto&& fn) {
    out.step_cost[k] = timed(kCertifySteps[k], op, fn);
    ++k;
  };
  lis::LisGraph g;
  step([&] { g = lis::from_text(text); });
  step([&] {
    const linter::Report report = linter::run_checks(g);
    out.findings = report.diagnostics.size();
    if (report.has_errors()) r.wrong("lint reports error-tier findings");
  });
  lis::Expansion ideal, doubled;
  step([&] {
    ideal = lis::expand_ideal(g);
    doubled = lis::expand_doubled(g);
  });
  out.places = doubled.graph.num_places();
  out.transitions = doubled.graph.num_transitions();
  step([&] { out.sccs = static_cast<std::size_t>(graph::scc(doubled.graph.structure()).count); });
  util::Rational theta_ideal, theta_practical;
  step([&] {
    mg::Workspace ws;
    theta_ideal = mg::mst_howard(ideal.graph, ws);
    theta_practical = mg::mst_howard(doubled.graph, ws);
    out.howard_rounds = ws.stats().improvement_rounds;
  });
  if (!(theta_practical <= theta_ideal && theta_ideal <= util::Rational(1))) {
    r.wrong("theta order violated: " + theta_practical.to_string() + " / " + theta_ideal.to_string());
  }
  verify::Certificate cert;
  step([&] { cert = core::certify_analysis(g); });
  if (cert.practical.theta != theta_practical || cert.ideal.theta != theta_ideal) {
    r.wrong("certificate thetas differ from the Howard solve");
  }
  std::string json;
  step([&] { json = verify::to_json(cert); });
  out.cert_bytes = json.size();
  verify::CertificateParse parsed;
  step([&] { parsed = verify::parse_certificate_text(json); });
  if (!parsed) {
    r.fail("certificate does not parse back: " + parsed.error);
    return out;
  }
  std::string verdict;
  step([&] { verdict = check_certificate(g, parsed.certificate); });
  if (!verdict.empty()) r.fail(verdict);
  out.cert = std::move(parsed.certificate);
  return out;
}

// The CI netlist (gen --v 100000 --s 200 --c 400 --rs 5000 --seed 7). The
// netlist is fixed because Howard's round count differs by 20-50% between
// generator seeds at this size; --seed picks the tampered potential.
constexpr std::uint64_t kCertifyGenSeed = 7;

void run_certify(std::uint64_t seed, int seconds, RunResult& r) {
  const int passes = std::max(3, seconds * 3 / 4);
  std::string text;
  {
    const Span s("setup.gen");
    const Instance inst = generate_or_throw(family(100000, kCertifyGenSeed));
    text = lis::to_text(inst.graph());
  }
  const std::int64_t setup_end = now_ns();
  r.set_layer("setup.gen_ms", setup_end / 1e6, "ms");
  end_setup(r);

  // Warm pass: faults in the allocator's pages and the code; untimed.
  PassOut warm = certify_pass(text, 0, r);
  r.attempted += 1;
  {
    const lis::LisGraph g = lis::from_text(text);
    if (check_certificate(g, tamper_potential(warm.cert, g, seed)).empty()) {
      r.wrong("checker accepted a certificate with one potential altered");
    }
  }
  flush_spans();
  g_spans.clear();

  std::array<std::vector<Cost>, kNumCertifySteps> step_cost;
  std::vector<double> pass_wall_ms;
  PassOut last;
  for (int i = 0; i < passes; ++i) {
    const std::int64_t a = now_ns();
    last = certify_pass(text, i + 1, r);
    pass_wall_ms.push_back(ms_between(a, now_ns()));
    for (std::size_t k = 0; k < kNumCertifySteps; ++k) step_cost[k].push_back(last.step_cost[k]);
    r.attempted += 1;
  }
  // A pass costs the sum of each step's fastest repeat: op_ms in CPU time,
  // ops_per_s in wall time.
  Cost pass;
  for (const auto& v : step_cost) {
    pass.cpu_ms += fastest(v).cpu_ms;
    pass.wall_ms += fastest(v).wall_ms;
  }
  r.e2e["op_ms"] = {pass.cpu_ms, "ms"};
  r.e2e["ops_per_s"] = {1000.0 / pass.wall_ms, "1/s"};
  r.set_layer("certify.pass_p50_ms", median(pass_wall_ms), "ms");
  r.set_layer("lis.places", static_cast<double>(last.places), "count");
  r.set_layer("lis.transitions", static_cast<double>(last.transitions), "count");
  r.set_layer("graph.sccs", static_cast<double>(last.sccs), "count");
  r.set_layer("mg.howard_rounds", static_cast<double>(last.howard_rounds), "count");
  r.set_layer("lint.findings", static_cast<double>(last.findings), "count");
  r.set_layer("verify.cert_bytes", static_cast<double>(last.cert_bytes), "bytes");
}

// ---------------------------------------------------------------------------
// size-sim: lazy certified sizing over a fixed corpus of degraded netlists,
// then the sizing certificate, the re-parsed sized netlist, and two DES runs.

struct CorpusEntry {
  int cores;
  std::uint64_t gen_seed;
  bool rs_anywhere;
};

// Degraded members of the scaled CI family, every one sized to its ideal MST
// with exact_proved. The three at 1-2 x 10^4 cores keep relay stations
// between SCCs, so the sizing collapses SCCs and their certificates carry no
// constraint set. The 5000-core member places relay stations inside SCCs: its
// lazy solve converges on the uncollapsed graph (15 rounds, 14 constraints),
// so its certificate gives a non-zero lower bound on the slots. The set is
// fixed because sizing cost varies ~10x between generator seeds; --seed
// drives the DES draws and the order the instances are worked.
const std::vector<CorpusEntry> kSizeCorpus = {
    {5000, 3, true}, {10000, 1, false}, {15000, 2, false}, {20000, 2, false},
};

constexpr std::int64_t kStochHorizon = 50;

std::int64_t extra_slots(const Sizing& z) {
  std::int64_t extra = 0;
  for (const QueueChange& c : z.changes) extra += c.after - c.before;
  return extra;
}

void run_size_sim(std::uint64_t seed, int seconds, RunResult& r) {
  const int rounds = std::max(2, seconds / 2);
  std::vector<Instance> corpus;
  {
    const Span s("setup.gen");
    for (const CorpusEntry& e : kSizeCorpus) {
      corpus.push_back(generate_or_throw(family(e.cores, e.gen_seed, e.rs_anywhere)));
    }
  }
  const std::int64_t setup_end = now_ns();
  r.set_layer("setup.gen_ms", setup_end / 1e6, "ms");
  end_setup(r);

  SizeQueuesOptions sq;
  sq.solver = Solver::kLazy;
  sq.certify = true;
  sq.exact_timeout_ms = 0.0;          // no wall-clock cutoff
  sq.exact_max_nodes = 20'000'000;    // deterministic budget
  DesOptions det;
  det.horizon = 1'000'000;  // the recurrence detector stops it early
  det.trace_occupancy = true;
  DesOptions stoch;
  stoch.horizon = kStochHorizon;
  stoch.channel_latency = *des::parse_latency_dist("uniform:1:3");
  stoch.trace_occupancy = true;

  std::uint64_t s = seed;
  const std::size_t n = corpus.size();
  std::vector<std::optional<Sizing>> sizings(n);
  std::vector<std::uint64_t> des_seed(n);
  std::vector<std::int64_t> des_events(n, 0);
  std::int64_t over_lb = 0, det_events = 0, stalls = 0, constrained = 0;
  double sim_throughput = 0;

  // Check pass: size every instance once and check everything about the
  // answer. Its sizing and stochastic DES count as the first repeats; the
  // deterministic limit between them spreads the repeats over the run.
  std::vector<std::vector<Cost>> size_cost(n), des_cost(n);
  for (std::size_t k = 0; k < n; ++k) {
    const Instance& inst = corpus[k];
    const auto op = static_cast<std::int64_t>(k + 1);
    r.attempted += 1;
    std::optional<Result<Sizing>> sized;
    size_cost[k].push_back(timed("core.size", op, [&] { sized.emplace(lid::size_queues(inst, sq)); }));
    if (!*sized) {
      r.fail("size_queues failed: " + sized->error().to_string());
      continue;
    }
    if (!(*sized)->exact_proved || !(*sized)->certificate) {
      r.fail("sizing of instance " + std::to_string(k) + " not proved exact");
      continue;
    }
    const Sizing& z = **sized;
    const std::int64_t extra = extra_slots(z);
    const std::int64_t lb = constraint_lower_bound(*z.certificate);
    over_lb += extra - lb;
    if (lb > 0) constrained += 1;
    std::string why;
    {
      const Span sp("verify.sizing_check", op);
      why = check_certificate(inst.graph(), *z.certificate);
    }
    if (why.empty()) why = check_slots(extra, *z.certificate);
    if (why.empty()) why = check_sized(inst.graph(), lis::to_text(z.sized.graph()), z.theta_ideal);
    if (!why.empty()) r.wrong(why);

    Result<DesReport> d = [&] {
      const Span sp("des.det", op);
      return lid::simulate_des(z.sized, det);
    }();
    if (!d) {
      r.fail("simulate_des failed: " + d.error().to_string());
      continue;
    }
    const util::Rational expect = std::min(util::Rational(1), z.achieved);
    if (!d->periodic_found || d->throughput != expect) {
      r.wrong("DES deterministic limit " + d->throughput.to_string() + " != min(1, theta) " +
              expect.to_string());
    }
    des_seed[k] = splitmix(s);
    stoch.seed = des_seed[k];
    std::optional<Result<DesReport>> st;
    des_cost[k].push_back(timed("des.stoch", op, [&] { st.emplace(lid::simulate_des(z.sized, stoch)); }));
    if (!*st) {
      r.fail("simulate_des failed: " + st->error().to_string());
      continue;
    }
    if (why = check_des(*d); why.empty()) why = check_des(**st);
    if (!why.empty()) r.wrong(why);
    det_events += d->events;
    des_events[k] = (*st)->events;
    stalls += (*st)->total_stall_events;
    sim_throughput += (*st)->throughput.to_double();
    sizings[k] = std::move(*sized).value();
  }

  // Timed rounds: every instance is sized and simulated once per round, in a
  // seeded order. Each answer must repeat the checked one exactly.
  std::vector<std::size_t> order(n);
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[splitmix(s) % i]);
    for (const std::size_t k : order) {
      const auto op = static_cast<std::int64_t>((round + 1) * n + k + 1);
      r.attempted += 1;
      if (!sizings[k]) {
        r.fail("instance " + std::to_string(k) + " has no checked sizing");
        continue;
      }
      std::optional<Result<Sizing>> z;
      size_cost[k].push_back(timed("core.size", op, [&] { z.emplace(lid::size_queues(corpus[k], sq)); }));
      if (!*z || !(*z)->exact_proved || (*z)->changes.size() != sizings[k]->changes.size() ||
          extra_slots(**z) != extra_slots(*sizings[k])) {
        r.fail("sizing of instance " + std::to_string(k) + " differs from the checked one");
        continue;
      }
      stoch.seed = des_seed[k];
      std::optional<Result<DesReport>> st;
      des_cost[k].push_back(
          timed("des.stoch", op, [&] { st.emplace(lid::simulate_des((*z)->sized, stoch)); }));
      if (!*st || (*st)->events != des_events[k]) {
        r.fail("stochastic DES of instance " + std::to_string(k) + " differs from the checked one");
      }
    }
  }

  // The certificate of the rs-anywhere member must make the slot check bite.
  if (constrained == 0) r.wrong("no sizing certificate gave a non-zero lower bound on the slots");

  // Per instance, the fastest of its repeats; summed over the corpus.
  double size_total = 0, des_total = 0, des_wall = 0;
  std::int64_t events = 0, lazy_rounds = 0, constraints = 0, nodes = 0, warm = 0, fell = 0, slots = 0;
  double exact_ms = 0, size_max = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (!sizings[k]) continue;
    size_total += fastest(size_cost[k]).cpu_ms;
    size_max = std::max(size_max, fastest(size_cost[k]).cpu_ms);
    des_total += fastest(des_cost[k]).cpu_ms;
    des_wall += fastest(des_cost[k]).wall_ms;
    events += des_events[k];
    const Sizing& z = *sizings[k];
    exact_ms += z.exact_ms;
    nodes += z.exact_nodes;
    lazy_rounds += z.lazy_iterations;
    warm += z.howard_warm_restarts;
    fell += z.lazy_fell_back ? 1 : 0;
    constraints += std::max<std::int64_t>(0, z.certificate->constraint_count);
    slots += extra_slots(z);
  }
  const double dn = static_cast<double>(n);
  r.e2e["op_ms"] = {size_total, "ms"};
  r.e2e["ops_per_s"] = {static_cast<double>(events) / (des_wall / 1000.0), "1/s"};
  r.set_layer("core.size_total_ms", size_total, "ms");
  r.set_layer("core.size_max_ms", size_max, "ms");
  r.set_layer("core.lazy_rounds", static_cast<double>(lazy_rounds) / dn, "count");
  r.set_layer("core.constraints", static_cast<double>(constraints) / dn, "count");
  r.set_layer("core.exact_ms", exact_ms / dn, "ms");
  r.set_layer("core.exact_nodes", static_cast<double>(nodes) / dn, "count");
  r.set_layer("core.howard_warm_restarts", static_cast<double>(warm) / dn, "count");
  r.set_layer("core.fell_back", static_cast<double>(fell), "count");
  r.set_layer("core.extra_slots", static_cast<double>(slots), "slots");
  r.set_layer("core.slots_over_lower_bound", static_cast<double>(over_lb), "slots");
  r.set_layer("des.det_events", static_cast<double>(det_events) / dn, "count");
  r.set_layer("des.stoch_events", static_cast<double>(events) / dn, "count");
  r.set_layer("des.stall_events", static_cast<double>(stalls) / dn, "count");
  r.set_layer("des.sim_throughput", sim_throughput / dn, "ratio");
  r.set_layer("des.events_per_s", static_cast<double>(events) / (des_total / 1000.0), "events/s");
}

// ---------------------------------------------------------------------------
// Child processes (lid_serve, lid_cluster). Sockets are relative paths in the
// working directory, which the driver shares with its children.

struct Child {
  pid_t pid = -1;
};

Child spawn(const std::vector<std::string>& args, const std::string& ready_text, double timeout_ms) {
  int fds[2];
  if (::pipe(fds) != 0) throw BenchError("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw BenchError("fork failed");
  if (pid == 0) {
    ::dup2(fds[1], 1);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, 2);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::string seen;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_ms * 1e6);
  while (seen.find(ready_text) == std::string::npos) {
    pollfd p{fds[0], POLLIN, 0};
    const int left = static_cast<int>(std::max<std::int64_t>(0, (deadline - now_ns()) / 1000000));
    if (left == 0 || ::poll(&p, 1, left) <= 0) break;
    char buf[512];
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    seen.append(buf, static_cast<std::size_t>(n));
  }
  // Both daemons ignore SIGPIPE, so their final-stats line after the read
  // end closes is simply dropped.
  ::close(fds[0]);
  Child c{pid};
  if (seen.find(ready_text) == std::string::npos) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    throw BenchError(args.front() + " did not become ready");
  }
  return c;
}

void stop(Child& c) {
  if (c.pid <= 0) return;
  ::kill(c.pid, SIGTERM);
  for (int i = 0; i < 1000; ++i) {
    if (::waitpid(c.pid, nullptr, WNOHANG) == c.pid) {
      c.pid = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(c.pid, SIGKILL);
  ::waitpid(c.pid, nullptr, 0);
  c.pid = -1;
}

// ---------------------------------------------------------------------------
// serve-direct / serve-cluster: a seeded closed-loop request mix from two
// client connections, sent in batches of fixed composition.
//
// The model-addressed reads follow lid_loadgen's cluster scenario
// (tools/lid_loadgen.cpp, --cluster): analyze / size-queues / lint /
// rate-safety at 45/20/20/15 in its work-heavy phases, with the first quarter
// of the models taking 80% of them. That scenario has no writes and no inline
// netlists; the 10% register-model and 10% inline analyze shares here are
// assumptions of this benchmark, not measured traffic.

constexpr int kModels = 24;              // registered working set
constexpr int kHotModels = kModels / 4;  // take 80% of the model-addressed reads
constexpr int kInline = 6;               // distinct inline netlists
constexpr int kClients = 2;

enum class Kind { kAnalyze, kSize, kLint, kRate, kRegister, kInline };
constexpr int kKinds = 6;
constexpr const char* kVerbs[kKinds] = {"analyze",     "size-queues",    "lint",
                                        "rate-safety", "register-model", "analyze"};
// One client's share of one batch, per kind: 80 reads at 45/20/20/15, 10
// writes and 10 inline netlists per 100 requests.
constexpr std::array<int, kKinds> kClientBatch = {18, 8, 8, 6, 5, 5};
constexpr int kBatchPerClient = 50;
static_assert(kClientBatch[0] + kClientBatch[1] + kClientBatch[2] + kClientBatch[3] +
                  kClientBatch[4] + kClientBatch[5] ==
              kBatchPerClient);
constexpr int kBatch = kClients * kBatchPerClient;

struct Req {
  Kind kind;
  int target;  // model index or inline index
};

std::string json_string(const std::string& s) {
  util::JsonWriter w;
  w.value(s);
  return w.str();
}

struct ServeModel {
  Instance inst;
  std::string text;  // canonical
  std::string fingerprint;
};

struct Sample {
  Kind kind;
  double rtt_ms, server_ms, wait_ms, ref_ms;
  bool retried;
};

// The counters of one or more servers' `stats` payloads, summed.
struct ServerSnapshot {
  std::int64_t requests_ok = 0, bytes = 0, memo_hits = 0, memo_misses = 0, evictions = 0;
  std::map<std::string, std::pair<std::int64_t, double>> stages;  // calls, wall ms

  void add(const util::Json& stats) {
    auto num = [&](const char* section, const char* key) -> std::int64_t {
      const util::Json* sec = stats.find(section);
      const util::Json* v = sec == nullptr ? nullptr : sec->find(key);
      return v == nullptr ? 0 : v->as_int();
    };
    requests_ok += num("counters", "requests_ok");
    bytes += num("counters", "bytes_in") + num("counters", "bytes_out");
    memo_hits += num("registry", "memo_hits");
    memo_misses += num("registry", "memo_misses");
    evictions += num("registry", "evictions");
    if (const util::Json* st = stats.find("stages")) {
      for (const auto& [name, e] : st->members()) {
        auto& slot = stages[name];
        slot.first += e.find("calls") ? e.find("calls")->as_int() : 0;
        slot.second += e.find("wall_ms") ? e.find("wall_ms")->as_double() : 0.0;
      }
    }
  }
};

util::Json parse_json(const Result<std::string>& text, const char* what) {
  if (!text) throw BenchError(std::string(what) + ": " + text.error().to_string());
  util::JsonParse p = util::json_parse(*text);
  if (!p) throw BenchError(std::string(what) + ": " + p.error);
  return std::move(p.value);
}

ServerSnapshot snapshot(const std::vector<std::string>& sockets) {
  ServerSnapshot snap;
  for (const std::string& sock : sockets) {
    Result<serve::Session> sess = serve::Session::connect_unix(sock);
    if (!sess) throw BenchError("stats connect: " + sess.error().to_string());
    snap.add(parse_json(std::move(sess).value().stats(), "stats"));
  }
  return snap;
}

std::int64_t field(const util::Json& j, const char* key) {
  const util::Json* v = j.find(key);
  if (v == nullptr) throw BenchError(std::string("cluster-stats lacks ") + key);
  return v->as_int();
}

void run_serve(bool cluster, std::uint64_t seed, int seconds, const std::string& bin_dir,
               RunResult& r) {
  const int batches = std::max(4, seconds * 5);
  const int requests = batches * kBatch;
  std::uint64_t s = seed;

  // Inputs.
  std::vector<ServeModel> models, inlines;
  {
    const Span sp("setup.gen");
    for (int i = 0; i < kModels + kInline; ++i) {
      const bool is_inline = i >= kModels;
      const Instance inst = generate_or_throw(is_inline ? gen_options(2000, 20, 8, splitmix(s))
                                                     : gen_options(500, 10, 4, splitmix(s)));
      ServeModel m{inst, lis::to_text(inst.graph()), verify::fingerprint(inst.graph())};
      (is_inline ? inlines : models).push_back(std::move(m));
    }
  }
  // mix[b][c]: what client c sends in batch b, the counts of kClientBatch in
  // a seeded order. Reads go to a hot model with probability 80%, else to a
  // cold one; writes and inline netlists pick uniformly.
  auto read_target = [&] {
    const std::uint64_t h = splitmix(s);
    return h % 100 < 80 ? static_cast<int>((h >> 8) % kHotModels)
                        : kHotModels + static_cast<int>((h >> 8) % (kModels - kHotModels));
  };
  std::vector<std::vector<std::vector<Req>>> mix(static_cast<std::size_t>(batches),
                                                 std::vector<std::vector<Req>>(kClients));
  for (auto& batch : mix) {
    for (std::vector<Req>& list : batch) {
      for (int k = 0; k < kKinds; ++k) {
        const auto kind = static_cast<Kind>(k);
        for (int j = 0; j < kClientBatch[static_cast<std::size_t>(k)]; ++j) {
          const int t = kind == Kind::kRegister ? static_cast<int>(splitmix(s) % kModels)
                        : kind == Kind::kInline ? static_cast<int>(splitmix(s) % kInline)
                                                : read_target();
          list.push_back({kind, t});
        }
      }
      for (std::size_t i = list.size(); i > 1; --i) std::swap(list[i - 1], list[splitmix(s) % i]);
    }
  }
  const std::int64_t gen_end = now_ns();
  r.set_layer("setup.gen_ms", gen_end / 1e6, "ms");

  // Reference answers, computed in-process through the same protocol layer
  // against a private registry that holds every model.
  serve::RegistryOptions big;
  big.max_bytes = std::size_t{1} << 34;
  big.max_models = 1 << 20;
  serve::Registry local(big);
  serve::ExecContext ctx;
  ctx.registry = &local;
  const serve::ExecLimits limits;
  auto line_for = [&](Kind k, int t, std::int64_t id) {
    const bool is_inline = k == Kind::kInline;
    const ServeModel& m = (is_inline ? inlines : models)[static_cast<std::size_t>(t)];
    const std::string who = is_inline || k == Kind::kRegister ? "\"netlist\":" + json_string(m.text)
                                                               : "\"model\":\"" + m.fingerprint + "\"";
    std::string line = "{\"id\":" + std::to_string(id) + ",\"verb\":\"" +
                       kVerbs[static_cast<int>(k)] + "\"," + who;
    if (k == Kind::kSize) line += ",\"certify\":true";
    return line + "}";
  };
  std::map<std::pair<int, int>, std::string> expected;
  std::map<std::pair<int, int>, double> ref_ms;
  auto reference = [&](Kind k, int t) {
    const std::int64_t a = now_ns();
    const serve::Outcome o = serve::execute(*serve::parse_request(line_for(k, t, 0)), limits, ctx);
    ref_ms[{static_cast<int>(k), t}] = ms_between(a, now_ns());
    if (!o.ok) throw BenchError("reference request failed: " + o.error_message);
    expected[{static_cast<int>(k), t}] = o.payload;
  };
  // Registering every model is input preparation: the registry budget is
  // half of the working set's accounted base bytes, so the set does not fit.
  std::size_t working_bytes = 0;
  for (int t = 0; t < kModels; ++t) {
    reference(Kind::kRegister, t);
    const util::JsonParse p = util::json_parse(expected[{static_cast<int>(Kind::kRegister), t}]);
    working_bytes += static_cast<std::size_t>(p.value.find("bytes")->as_int());
  }
  const std::size_t budget = working_bytes / 2;
  const std::int64_t prep_end = now_ns();

  // Processes.
  const std::string serve_bin = bin_dir + "/lid_serve";
  std::vector<Child> children;
  std::vector<std::string> pids;
  auto serve_args = [&](const std::string& sock, int workers) {
    return std::vector<std::string>{serve_bin, "--socket", sock, "--workers", std::to_string(workers),
                                    "--registry-max-bytes", std::to_string(budget), "--quiet"};
  };
  std::string front;
  try {
    if (!cluster) {
      front = "./serve.sock";
      ::unlink(front.c_str());
      children.push_back(spawn(serve_args(front, 2), "listening", 20000));
    } else {
      for (int w = 0; w < 2; ++w) {
        const std::string sock = "./worker-" + std::to_string(w) + ".sock";
        ::unlink(sock.c_str());
        children.push_back(spawn(serve_args(sock, 1), "listening", 20000));
      }
      front = "./front.sock";
      ::unlink(front.c_str());
      children.push_back(spawn({bin_dir + "/lid_cluster", "--socket", front, "--workers", "0",
                                "--adopt", "./worker-0.sock,./worker-1.sock", "--quiet"},
                               "listening", 20000));
    }
  } catch (...) {
    for (Child& c : children) stop(c);
    throw;
  }
  for (const Child& c : children) pids.push_back(std::to_string(c.pid));
  auto daemons_cpu = [&] {
    double ms = 0;
    for (const Child& c : children) ms += child_cpu_ms(c.pid);
    return ms;
  };
  const std::int64_t start_end = now_ns();
  r.set_layer("setup.start_ms", ms_between(prep_end, start_end), "ms");

  std::vector<std::vector<Sample>> samples(kClients);
  std::vector<std::int64_t> client_ok(kClients, 0), responses(kClients, 0), rereg(kClients, 0);
  std::vector<std::vector<std::string>> failures(kClients);
  std::vector<std::vector<std::string>> certified(kClients);
  std::vector<double> batch_ms;
  ServerSnapshot before, after;
  util::Json cbefore, cafter;
  std::vector<std::string> server_sockets = {front};
  if (cluster) server_sockets = {"./worker-0.sock", "./worker-1.sock"};
  auto cluster_stats = [](serve::Session& sess) {
    const Result<std::string> line = sess.call("{\"verb\":\"cluster-stats\"}");
    if (!line) throw BenchError("cluster-stats: " + line.error().to_string());
    return parse_json(serve::extract_result(*line), "cluster-stats");
  };
  double total_s = 0, client_cpu = 0, daemon_cpu = 0;
  try {
    std::vector<serve::Session> sessions;
    for (int c = 0; c < kClients; ++c) {
      Result<serve::Session> sess = serve::Session::connect_unix(front);
      if (!sess) throw BenchError("connect: " + sess.error().to_string());
      sessions.push_back(std::move(sess).value());
    }
    for (int t = 0; t < kHotModels; ++t) {
      if (!sessions[0].register_model(models[static_cast<std::size_t>(t)].text)) {
        throw BenchError("hot-model registration failed");
      }
    }
    r.set_layer("setup.register_ms", ms_between(start_end, now_ns()), "ms");
    end_setup(r, daemons_cpu());

    // The other reference answers, outside setup_s: nothing timed runs yet.
    const std::int64_t ref_start = now_ns();
    for (const Kind k : {Kind::kAnalyze, Kind::kSize, Kind::kLint, Kind::kRate}) {
      for (int t = 0; t < kModels; ++t) reference(k, t);
    }
    for (int t = 0; t < kInline; ++t) reference(Kind::kInline, t);
    r.set_layer("serve.ref_ms", ms_between(ref_start, now_ns()), "ms");

    // Warm pass: every inline netlist, and every read of every hot model.
    for (int t = 0; t < kInline; ++t) (void)sessions[0].call(line_for(Kind::kInline, t, 0));
    for (const Kind k : {Kind::kAnalyze, Kind::kSize, Kind::kLint, Kind::kRate}) {
      for (int t = 0; t < kHotModels; ++t) (void)sessions[0].call(line_for(k, t, 0));
    }

    auto client = [&](int c, int b) {
      const auto cs = static_cast<std::size_t>(c);
      serve::Session& sess = sessions[cs];
      const std::vector<Req>& list = mix[static_cast<std::size_t>(b)][cs];
      for (std::size_t j = 0; j < list.size(); ++j) {
        const Req q = list[j];
        const auto id = static_cast<std::int64_t>(b) * kBatch + c * kBatchPerClient +
                        static_cast<std::int64_t>(j) + 1;
        const std::string line = line_for(q.kind, q.target, id);
        const Span sp("serve.request", id);
        const std::int64_t a = now_ns();
        Result<std::string> resp = sess.call(line);
        bool retried = false;
        if (resp && resp->find("\"unknown_model\"") != std::string::npos) {
          // The documented Session recovery: re-register, then retry.
          retried = true;
          rereg[cs] += 1;
          const Result<serve::ModelHandle> h =
              sess.register_model(models[static_cast<std::size_t>(q.target)].text);
          if (h) client_ok[cs] += 1;
          responses[cs] += h ? 2 : 1;
          resp = sess.call(line);
        }
        const double rtt = ms_between(a, now_ns());
        if (!resp) {
          failures[cs].push_back("request " + std::to_string(id) + ": " + resp.error().to_string());
          continue;
        }
        responses[cs] += 1;
        const Result<std::string> payload = serve::extract_result(*resp);
        if (!payload) {
          failures[cs].push_back("request " + std::to_string(id) + ": " + resp->substr(0, 200));
          continue;
        }
        client_ok[cs] += 1;
        const std::pair<int, int> key{static_cast<int>(q.kind), q.target};
        if (const std::string why = check_payload(*payload, expected[key]); !why.empty()) {
          failures[cs].push_back("request " + std::to_string(id) + ": " + why);
          continue;
        }
        if (q.kind == Kind::kSize) certified[cs].push_back(*payload);
        const util::JsonParse env = util::json_parse(*resp);
        const double server_ms = env.value.find("server_ms") ? env.value.find("server_ms")->as_double() : 0;
        const double wait_ms = env.value.find("wait_ms") ? env.value.find("wait_ms")->as_double() : 0;
        samples[cs].push_back({q.kind, rtt, server_ms, wait_ms, ref_ms[key], retried});
      }
      flush_spans();
    };

    before = snapshot(server_sockets);
    if (cluster) cbefore = cluster_stats(sessions[0]);
    const std::int64_t t0 = now_ns();
    const double client_cpu0 = cpu_ms(CLOCK_PROCESS_CPUTIME_ID), daemon_cpu0 = daemons_cpu();
    for (int b = 0; b < batches; ++b) {
      const std::int64_t a = now_ns();
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c, b);
      for (std::thread& t : threads) t.join();
      batch_ms.push_back(ms_between(a, now_ns()));
    }
    client_cpu = cpu_ms(CLOCK_PROCESS_CPUTIME_ID) - client_cpu0;
    daemon_cpu = daemons_cpu() - daemon_cpu0;
    total_s = ms_between(t0, now_ns()) / 1000.0;
    after = snapshot(server_sockets);
    if (cluster) cafter = cluster_stats(sessions[0]);
  } catch (...) {
    for (Child& c : children) stop(c);
    throw;
  }
  double rss = 0;
  for (const std::string& pid : pids) rss += vm_hwm_mb(pid);
  for (Child& c : children) stop(c);

  // Client-side certificate re-checks, once per distinct payload.
  std::map<std::string, std::string> verdicts;
  for (const auto& list : certified) {
    for (const std::string& payload : list) {
      auto [it, fresh] = verdicts.try_emplace(payload);
      if (!fresh) continue;
      const util::JsonParse p = util::json_parse(payload);
      const util::Json* cj = p ? p.value.find("certificate") : nullptr;
      const verify::CertificateParse cp =
          cj ? verify::parse_certificate(*cj) : verify::CertificateParse{};
      if (!cp) {
        it->second = "served sizing certificate missing or malformed";
        continue;
      }
      for (const ServeModel& m : models) {
        if (m.fingerprint == cp.certificate.fingerprint) it->second = check_certificate(m.inst.graph(), cp.certificate);
      }
    }
  }

  r.attempted = requests;
  for (const auto& f : failures) for (const std::string& why : f) r.fail(why);
  for (const auto& [payload, why] : verdicts) {
    if (!why.empty()) r.wrong(why);
  }
  std::int64_t ok = 0, answered = 0, reregs = 0;
  for (int c = 0; c < kClients; ++c) {
    ok += client_ok[static_cast<std::size_t>(c)];
    answered += responses[static_cast<std::size_t>(c)];
    reregs += rereg[static_cast<std::size_t>(c)];
  }
  if (!cluster) {
    // The opening snapshot's stats call and the closing snapshot's hello both
    // land inside the delta.
    const std::int64_t server_ok = after.requests_ok - before.requests_ok - 2;
    if (const std::string why = check_ledger(ok, server_ok); !why.empty()) r.wrong(why);
  } else {
    // Health probes also hit the workers' counters, so the ledger is the
    // router's: every forwarded request the clients saw answered, none failed.
    const std::int64_t admitted = field(cafter, "admitted") - field(cbefore, "admitted");
    const std::int64_t completed = field(cafter, "completed") - field(cbefore, "completed");
    const std::int64_t failed = field(cafter, "failed") - field(cbefore, "failed");
    if (const std::string why = check_ledger(answered, admitted); !why.empty()) r.wrong("router " + why);
    if (admitted != completed || failed != 0) {
      r.wrong("router ledger: admitted " + std::to_string(admitted) + ", completed " +
              std::to_string(completed) + ", failed " + std::to_string(failed));
    }
    r.set_layer("cluster.failovers", static_cast<double>(field(cafter, "failovers") - field(cbefore, "failovers")), "count");
    r.set_layer("cluster.reregistrations",
                static_cast<double>(field(cafter, "reregistrations") - field(cbefore, "reregistrations")), "count");
    const util::Json* wa = cafter.find("worker_state");
    const util::Json* wb = cbefore.find("worker_state");
    double lo = 1e300, hi = 0;
    for (std::size_t w = 0; wa != nullptr && wb != nullptr && w < wa->size() && w < wb->size(); ++w) {
      const double share = static_cast<double>(field(wa->at(w), "forwarded") - field(wb->at(w), "forwarded"));
      lo = std::min(lo, share);
      hi = std::max(hi, share);
    }
    r.set_layer("cluster.worker_skew", lo > 0 && lo < 1e300 ? hi / lo : 0.0, "ratio");
  }

  std::vector<double> rtt, hits, solves, wait, transport;
  for (const auto& list : samples) {
    for (const Sample& x : list) {
      rtt.push_back(x.rtt_ms);
      wait.push_back(x.wait_ms);
      transport.push_back(x.rtt_ms - x.server_ms);
      const bool model_read = x.kind != Kind::kRegister && x.kind != Kind::kInline;
      // A memo hit replays stored bytes: its server time is a small fraction
      // of the solve the same request cost in-process.
      if (model_read && !x.retried && x.server_ms < 0.25 * x.ref_ms) hits.push_back(x.rtt_ms);
      else if (x.kind != Kind::kRegister) solves.push_back(x.rtt_ms);
    }
  }
  const double req = static_cast<double>(requests);
  // op_ms: the closed loop's CPU cost per request, over every process on the
  // path: the clients (serve::Session), the server or router, and the workers.
  r.e2e["op_ms"] = {(client_cpu + daemon_cpu) / req, "ms"};
  // ops_per_s: wall-clock goodput of the fastest batch. Every batch has the
  // same composition, so the fastest is the one the host disturbed least;
  // added waiting anywhere on the path (front door, router, pool) slows all.
  r.e2e["ops_per_s"] = {kBatch / (fastest(batch_ms) / 1000.0), "1/s"};
  r.e2e["peak_rss_mb"] = {rss, "MB"};
  r.set_layer("serve.client_cpu_ms", client_cpu / req, "ms");
  r.set_layer("serve.daemon_cpu_ms", daemon_cpu / req, "ms");
  r.set_layer("serve.rps_total", static_cast<double>(rtt.size()) / total_s, "1/s");
  r.set_layer("serve.hit_p50_ms", median(hits), "ms");
  r.set_layer("serve.solve_p50_ms", median(solves), "ms");
  r.set_layer("serve.rtt_p99_ms", quantile(rtt, 0.99), "ms");
  r.set_layer("serve.rtt_samples", static_cast<double>(rtt.size()), "count");
  r.set_layer("serve.wait_ms", median(wait), "ms");
  r.set_layer("serve.transport_ms", median(transport), "ms");
  if (cluster) r.set_layer("cluster.hop_ms", median(transport), "ms");
  for (const char* verb : {"analyze", "size-queues", "register-model"}) {
    const auto& [cb, wb] = before.stages[std::string("exec_") + verb];
    const auto& [ca, wa] = after.stages[std::string("exec_") + verb];
    r.set_layer(std::string("serve.exec_ms.") + verb, ca > cb ? (wa - wb) / static_cast<double>(ca - cb) : 0.0, "ms");
  }
  const double hits_n = static_cast<double>(after.memo_hits - before.memo_hits);
  const double miss_n = static_cast<double>(after.memo_misses - before.memo_misses);
  r.set_layer("serve.memo_hit_ratio", hits_n + miss_n > 0 ? hits_n / (hits_n + miss_n) : 0.0, "ratio");
  r.set_layer("serve.evictions", static_cast<double>(after.evictions - before.evictions), "count");
  r.set_layer("serve.reregistrations", static_cast<double>(reregs), "count");
  const double bytes = static_cast<double>(after.bytes - before.bytes);
  r.set_layer("serve.bytes_per_request", bytes / requests, "bytes");
}

// ---------------------------------------------------------------------------
// Self-test: every check must reject a deliberately wrong input.

int run_selftest() {
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
    if (!ok) ++bad;
  };
  // A small degraded netlist of the benchmark's family.
  Instance inst;
  for (std::uint64_t seed = 1;; ++seed) {
    inst = generate_or_throw(gen_options(200, 8, 2, seed));
    const Result<Analysis> a = lid::analyze(inst);
    if (a && a->degraded) break;
  }
  const lis::LisGraph& g = inst.graph();
  const verify::Certificate cert = core::certify_analysis(g);
  expect(check_certificate(g, cert).empty(), "certificate: the emitted certificate passes");
  expect(!check_certificate(g, tamper_potential(cert, g)).empty(),
         "certificate: one potential altered is rejected");

  SizeQueuesOptions sq;
  sq.certify = true;
  const Result<Sizing> z = lid::size_queues(inst, sq);
  expect(z && z->exact_proved && !z->changes.empty(), "sizing: instance sizes with grown queues");
  if (z && !z->changes.empty()) {
    const std::string text = lis::to_text(z->sized.graph());
    expect(check_sized(g, text, z->theta_ideal).empty(), "sized netlist: the solver's answer passes");
    expect(check_certificate(g, *z->certificate).empty(), "sizing certificate: passes");
    lis::LisGraph shrunk = z->sized.graph();
    for (std::size_t c = 0; c < shrunk.num_channels(); ++c) {
      const auto id = static_cast<lis::ChannelId>(c);
      if (shrunk.channel(id).queue_capacity > g.channel(id).queue_capacity) {
        shrunk.set_queue_capacity(id, shrunk.channel(id).queue_capacity - 1);
        break;
      }
    }
    expect(!check_sized(g, lis::to_text(shrunk), z->theta_ideal).empty(),
           "sized netlist: one grown queue shrunk by one slot is rejected");
  }

  // A sizing whose certificate carries a constraint set: relay stations
  // inside SCCs keep the lazy solve on the uncollapsed graph.
  std::optional<Sizing> constrained;
  for (std::uint64_t seed = 1; seed <= 200 && !constrained; ++seed) {
    GenerateOptions o = gen_options(400, 4, 4, seed);
    o.rs_anywhere = true;
    const Instance small = generate_or_throw(o);
    Result<Sizing> zs = lid::size_queues(small, sq);
    if (zs && zs->certificate && constraint_lower_bound(*zs->certificate) > 0) constrained = std::move(zs).value();
  }
  expect(constrained.has_value(), "slots: an instance with a non-zero lower bound exists");
  if (constrained) {
    const std::int64_t lb = constraint_lower_bound(*constrained->certificate);
    expect(check_slots(extra_slots(*constrained), *constrained->certificate).empty(),
           "slots: the solver's sizing passes");
    expect(!check_slots(lb - 1, *constrained->certificate).empty(),
           "slots: one slot below the lower bound is rejected");
  }

  const std::string line = "{\"verb\":\"analyze\",\"netlist\":" + json_string(lis::to_text(g)) + "}";
  const serve::Outcome o = serve::execute(*serve::parse_request(line));
  expect(o.ok && check_payload(o.payload, o.payload).empty(), "payload: identical bytes pass");
  std::string changed = o.payload;
  changed[changed.size() / 2] ^= 0x01;
  expect(!check_payload(changed, o.payload).empty(), "payload: one byte changed is rejected");

  expect(check_ledger(1000, 1000).empty(), "ledger: equal totals pass");
  expect(!check_ledger(1000, 1001).empty(), "ledger: totals differing by one are rejected");
  std::cout << (bad == 0 ? "selftest passed" : "selftest FAILED") << std::endl;
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, bin_dir = ".";
  std::uint64_t seed = 1;
  int seconds = 10;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) workload = argv[++i];
    else if (a == "--seed" && has) seed = std::stoull(argv[++i]);
    else if (a == "--seconds" && has) seconds = std::max(1, std::stoi(argv[++i]));
    else if (a == "--trace" && has) g_trace = std::string(argv[++i]) == "1";
    else if (a == "--bin-dir" && has) bin_dir = argv[++i];
    else if (a == "--selftest") selftest = true;
    else {
      std::cerr << "e2e_driver: unknown argument '" << a << "'\n";
      return 2;
    }
  }
  ::signal(SIGPIPE, SIG_IGN);
  try {
    if (selftest) return run_selftest();
    RunResult r;
    if (workload == "certify-100k") run_certify(seed, seconds, r);
    else if (workload == "size-sim") run_size_sim(seed, seconds, r);
    else if (workload == "serve-direct") run_serve(false, seed, seconds, bin_dir, r);
    else if (workload == "serve-cluster") run_serve(true, seed, seconds, bin_dir, r);
    else {
      std::cerr << "e2e_driver: unknown workload '" << workload << "'\n";
      return 2;
    }
    const double ref_end = host_ref_ms();
    if (r.e2e.find("peak_rss_mb") == r.e2e.end()) r.e2e["peak_rss_mb"] = {vm_hwm_mb("self"), "MB"};
    if (g_trace) {
      flush_spans();
      r.set_layer("host.ref_ms", 0.5 * (r.ref_start_ms + ref_end), "ms");
      const std::map<std::string, SelfTime> self = self_times();
      const std::vector<std::pair<const char*, const char*>> per_call = {
          {"lis.parse", "lis.parse_ms"},     {"lis.expand", "lis.expand_ms"},
          {"graph.scc", "graph.scc_ms"},     {"mg.howard", "mg.howard_ms"},
          {"lint", "lint.ms"},               {"core.certify", "core.certify_ms"},
          {"verify.encode", "verify.encode_ms"}, {"verify.decode", "verify.decode_ms"},
          {"verify.check", "verify.check_ms"},   {"core.size", "core.size_ms"},
          {"des.det", "des.det_ms"},         {"des.stoch", "des.stoch_ms"},
          {"verify.sizing_check", "verify.sizing_check_ms"}};
      for (const auto& [span, metric] : per_call) {
        const auto it = self.find(span);
        r.set_layer(metric, it == self.end() ? 0.0 : it->second.per_call(), "ms");
      }
      const auto rounds = r.layer.find("mg.howard_rounds");
      const auto places = r.layer.find("lis.places");
      if (rounds != r.layer.end() && places != r.layer.end() && rounds->second.value > 0) {
        r.set_layer("mg.ns_per_place_round",
                    r.layer["mg.howard_ms"].value * 1e6 / (rounds->second.value * places->second.value), "ns");
      }
      const double spans = static_cast<double>(g_spans.size());
      r.set_layer("trace.spans", spans, "count");
      r.set_layer("trace.overhead_ms", spans * span_cost_ns() / 1e6, "ms");
      r.set_layer("trace.op_ms", r.e2e["op_ms"].value, "ms");
      write_spans(workload + ".trace.json");
      std::cerr << "perfbench: per-layer self time for " << workload << " (ms per call, calls, ms in total):\n";
      for (const auto& [name, t] : self) {
        std::cerr << "  " << name << " " << t.per_call() << " " << t.calls << " " << t.ms << "\n";
      }
    }
    print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2e_driver: " << e.what() << "\n";
    return 1;
  }
}
