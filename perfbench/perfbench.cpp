/// \file perfbench.cpp
/// \brief Pipeline benchmark driver: one repetition of one of three seeded,
/// single-process, closed-loop workloads over the public API of the mesh
/// stack, with the benchmark's own span ledger around every layer call.
///
///   adapt_cycle   the paper's Sec. I loop: solve -> distributed refine ->
///                 ParMA balance -> checkpoint/restore -> solve
///   parma_tables  Tables II/III: T1-T4 multi-criteria improvement, each
///                 from the cached T0 hypergraph assignment
///   halo_solve    ten Poisson solves on a fixed partition (halo exchange)
///
/// Usage (run.py launches one process per repetition and aggregates):
///   perfbench --workload <name> --seed <n> --trace <0|1>
///             [--mode rep|setup] [--scratch <dir>] [--spans <file>]
///
/// A repetition is the set-up (mesh generation, jiggle, initial partition,
/// distribute) followed by the timed section. `--mode setup` runs the set-up
/// alone. The one stdout line is a JSON object with the set-up and
/// timed-section times, CPU time, peak RSS, the check tally and every
/// exact-repeat count; with --trace 1 also the per-layer times from the
/// spans, which are written to `--spans`. The exit code is non-zero when an
/// output check failed.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adapt/sizefield.hpp"
#include "common/rng.hpp"
#include "dist/digest.hpp"
#include "dist/padapt.hpp"
#include "dist/pario.hpp"
#include "dist/partedmesh.hpp"
#include "meshgen/workloads.hpp"
#include "parma/balance.hpp"
#include "parma/improve.hpp"
#include "parma/metrics.hpp"
#include "part/partition.hpp"
#include "solver/poisson.hpp"

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double cpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(u.ru_utime) + sec(u.ru_stime);
}

double peakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream) {
  common::Rng r(seed * 0x9e3779b97f4a7c15ull + stream);
  return r.next();
}

// --- the span ledger --------------------------------------------------------

/// One benchmark-side span: a public library call or a benchmark check.
struct Span {
  std::string name;  ///< "<layer>.<call>"
  int parent = -1;   ///< index of the enclosing span, -1 for a root
  double start = 0.0;
  double end = 0.0;
  pcu::CommStats net;  ///< Network traffic the call posted
};

std::string layerOf(const std::string& span) {
  return span.substr(0, span.find('.'));
}

/// Records spans (only when tracing) and, always, the per-layer Network
/// deltas inside the timed section: those are counts, and counts must
/// repeat exactly in traced and untraced repetitions alike. The benchmark's
/// own work (layer "bench": digests, plans, fingerprints, quality reads,
/// clean-up) is always timed, because it is excluded from wall_s.
class Ledger {
 public:
  explicit Ledger(bool tracing) : tracing_(tracing) {}

  /// Run `fn` as span `name`; `net` is the transport the call uses.
  template <class Fn>
  decltype(auto) call(const char* name, const dist::Network* net, Fn&& fn) {
    const pcu::CommStats before = net != nullptr ? net->stats() : pcu::CommStats{};
    const bool own = std::string_view(name).starts_with("bench.");
    const double start = own ? now() : 0.0;
    const int idx = open(name);
    if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
      fn();
      close(idx, name, net, before);
      if (own) bench_s_ += now() - start;
    } else {
      decltype(auto) r = fn();
      close(idx, name, net, before);
      if (own) bench_s_ += now() - start;
      return r;
    }
  }

  /// Open/close a root span (set-up or timed section); -1 when not tracing.
  int open(const char* name) {
    if (!tracing_) return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start = now();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void closeRoot(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end = now();
    stack_.pop_back();
  }
  /// Count Network deltas per layer (the timed section only).
  void setCounting(bool on) { counting_ = on; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::map<std::string, pcu::CommStats>& layerNet() const {
    return layer_net_;
  }
  [[nodiscard]] const pcu::CommStats& totalNet() const { return total_net_; }
  /// Seconds spent in "bench.*" calls so far.
  [[nodiscard]] double benchSeconds() const { return bench_s_; }

 private:
  void close(int idx, const char* name, const dist::Network* net,
             const pcu::CommStats& before) {
    pcu::CommStats d;
    if (net != nullptr) {
      const auto& a = net->stats();
      d.messages_sent = a.messages_sent - before.messages_sent;
      d.bytes_sent = a.bytes_sent - before.bytes_sent;
      d.physical_messages = a.physical_messages - before.physical_messages;
      d.physical_bytes = a.physical_bytes - before.physical_bytes;
    }
    if (counting_) {
      layer_net_[layerOf(name)] += d;
      total_net_ += d;
    }
    if (idx < 0) return;
    auto& s = spans_[static_cast<std::size_t>(idx)];
    s.end = now();
    s.net = d;
    stack_.pop_back();
  }

  bool tracing_;
  bool counting_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, pcu::CommStats> layer_net_;
  pcu::CommStats total_net_;
  double bench_s_ = 0.0;
};

// --- output checks ----------------------------------------------------------

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
};

/// Everything a workload needs from one repetition.
struct Ctx {
  std::uint64_t seed = 0;
  std::string scratch;  ///< checkpoint directory (adapt_cycle)
  Ledger ledger;
  Checks checks;
  /// Exact-repeat quantities: counts and quality metrics.
  std::map<std::string, double> counts;
};

void verifyMesh(Ctx& c, const dist::PartedMesh& pm, const std::string& after) {
  std::string error;
  try {
    c.ledger.call("dist.verify", &pm.network(), [&] { pm.verify(); });
  } catch (const std::exception& e) {
    error = e.what();
  }
  c.checks.expect(error.empty(), "verify() after " + after + ": " + error);
}

/// Element-digest multiset equality ("no element lost or duplicated"),
/// computed and released inside the span.
bool sameDigests(Ctx& c, const dist::PartedMesh& pm,
                 const std::multiset<std::uint64_t>& ref) {
  return c.ledger.call("bench.digests", nullptr,
                       [&] { return dist::digest::elementDigests(pm) == ref; });
}

/// f(x) = 1 + 0.5 sin(k.x + phase), k and phase drawn from `stream`.
std::function<double(const common::Vec3&)> seededRhs(std::uint64_t seed,
                                                     std::uint64_t stream) {
  common::Rng r(mixSeed(seed, stream));
  const double kx = r.uniform(0.5, 1.5);
  const double ky = r.uniform(0.5, 1.5);
  const double kz = r.uniform(0.2, 0.8);
  const double ph = r.uniform(0.0, 6.283185307179586);
  return [=](const common::Vec3& x) {
    return 1.0 + 0.5 * std::sin(kx * x.x + ky * x.y + kz * x.z + ph);
  };
}

void solve(Ctx& c, dist::PartedMesh& pm,
                            const std::function<double(const common::Vec3&)>& f,
           solver::PoissonOptions opts, const char* what) {
  const auto r = c.ledger.call("solver.solvePoisson", &pm.network(), [&] {
    return solver::solvePoisson(
        pm, f, [](const common::Vec3&) { return 0.0; }, opts);
  });
  c.checks.expect(r.converged && r.residual < opts.tolerance,
                  std::string(what) + " converged below tolerance (residual " +
                      std::to_string(r.residual) + ", " +
                      std::to_string(r.iterations) + " iterations)");
  c.counts["solver.iters"] += r.iterations;
}

/// Serial mesh, its initial partition and the distributed mesh.
struct Input {
  meshgen::Generated gen;
  std::vector<dist::PartId> assignment;
  std::unique_ptr<dist::PartedMesh> pm;
  std::unique_ptr<dist::PartedMesh> retired;  ///< replaced by the timed section
};

/// `jiggled`: perturb interior vertices from the seed (12% of the shortest
/// incident edge), as the AAA surrogate of the table benches does.
Input makeInput(Ctx& c, const meshgen::VesselSpec& spec, bool jiggled,
                int nparts, part::Method method, pcu::Machine machine) {
  Input in;
  in.gen = meshgen::vessel(spec);
  if (jiggled) {
    common::Rng rng(mixSeed(c.seed, 1));
    meshgen::jiggle(*in.gen.mesh, 0.12, rng);
  }
  in.assignment = c.ledger.call("part.partition", nullptr, [&] {
    return part::partition(*in.gen.mesh, nparts, method);
  });
  in.pm = c.ledger.call("dist.distribute", nullptr, [&] {
    return dist::PartedMesh::distribute(*in.gen.mesh, in.gen.model.get(),
                                        in.assignment,
                                        dist::PartMap(nparts, machine));
  });
  return in;
}

void recordQuality(Ctx& c, double elem_imb, double vtx_imb_pct,
                   std::size_t boundary) {
  c.counts["elem_imbalance"] = elem_imb;
  c.counts["vtx_imbalance"] = vtx_imb_pct;
  c.counts["boundary_vtx"] = static_cast<double>(boundary);
}

/// Quality of the final mesh of a workload, measured as at its end.
void finalQuality(Ctx& c, const dist::PartedMesh& pm) {
  c.ledger.call("bench.quality", nullptr, [&] {
    const auto elems = parma::entityBalance(pm, 3);
    const auto verts = parma::entityBalance(pm, 0);
    recordQuality(c, elems.imbalance, verts.imbalancePercent(),
                  parma::boundaryCopies(pm, 0));
    c.counts["mesh.elements"] = static_cast<double>(pm.globalCount(3));
  });
}

// --- workloads -------------------------------------------------------------

/// One workload = set-up (untimed for wall_s) + timed section. `timed`
/// receives the set-up's output.
struct Workload {
  std::function<Input(Ctx&)> setup;
  std::function<void(Ctx&, Input&)> timed;
  /// Checks and reference values after set-up, outside both timings.
  std::function<void(Ctx&, Input&)> after_setup;
};

// adapt_cycle: the paper's Sec. I loop on the vessel, 32 parts. The seed
// drives only the two right-hand sides. The geometry and the refinement
// front stay fixed: ParMA's Rgn balance is chaotic in them (over six seeds
// a +-3% front shift alone spread the final vertex imbalance over 27-41%),
// so a seeded geometry would make the quality metrics unmeasurable between
// runs.
Workload adaptCycle() {
  static const meshgen::VesselSpec spec{.circumferential = 8, .axial = 32};
  Workload w;
  w.setup = [](Ctx& c) {
    return makeInput(c, spec, false, 32, part::Method::GraphRB, pcu::Machine(4, 8));
  };
  w.timed = [](Ctx& c, Input& in) {
    dist::PartedMesh& pm = *in.pm;
    solve(c, pm, seededRhs(c.seed, 2), {.max_iterations = 600, .tolerance = 1e-6},
          "first solve");

    const double zc = 0.55 * spec.length;
    adapt::AnalyticSize size([&](const common::Vec3& x) {
      const double dz = (x.z - zc) / (0.12 * spec.length);
      return 1.1 - 0.62 * std::exp(-dz * dz);
    });
    const auto rs = c.ledger.call("adapt.refineParted", &pm.network(), [&] {
      return dist::refineParted(pm, size, {.max_passes = 6});
    });
    c.counts["adapt.passes"] += rs.passes;
    c.counts["adapt.splits"] += static_cast<double>(rs.splits);
    c.checks.expect(rs.splits > 0, "refineParted split edges under the front");
    verifyMesh(c, pm, "refineParted");

    const auto before = c.ledger.call("bench.digests", nullptr,
                                      [&] { return dist::digest::elementDigests(pm); });
    parma::BalanceOptions b{.tolerance = 0.05};
    b.improve.max_iterations = 60;
    const auto br = c.ledger.call("parma.balance", &pm.network(),
                                  [&] { return parma::balance(pm, "Rgn", b); });
    c.counts["parma.rounds"] += br.rounds;
    c.counts["parma.elems_migrated"] += static_cast<double>(br.elements_migrated);
    c.checks.expect(br.rounds_faulted == 0, "balance ran without faulted rounds");
    verifyMesh(c, pm, "balance");
    c.checks.expect(sameDigests(c, pm, before), "element digests unchanged by balance");

    const std::string dir = c.scratch + "/ckpt";
    const auto ws = c.ledger.call("pario.checkpointImage", &pm.network(),
                                  [&] { return dist::pario::checkpointImage(pm, dir); });
    dist::pario::RestoreReport rr;
    auto restored = c.ledger.call("pario.restoreImage", nullptr, [&] {
      return dist::pario::restoreImage(dir, in.gen.model.get(),
                                       pm.network().partMap(),
                                       dist::pario::OnLoss::kFail, &rr);
    });
    c.ledger.call("bench.cleanup", nullptr, [&] { std::filesystem::remove_all(dir); });
    c.counts["pario.bytes_written"] += static_cast<double>(ws.bytes);
    c.counts["pario.bytes_read"] += static_cast<double>(rr.bytes_read);
    const bool same = c.ledger.call("bench.fingerprint", nullptr, [&] {
      return restored->fingerprint() == pm.fingerprint();
    });
    c.checks.expect(same && !rr.partial() && rr.chunks_repaired == 0,
                    "restoreImage is fingerprint-equal to the checkpointed mesh");
    verifyMesh(c, *restored, "restoreImage");

    solve(c, *restored, seededRhs(c.seed, 4),
          {.max_iterations = 1500, .tolerance = 1e-6}, "second solve");
    verifyMesh(c, *restored, "second solve");
    finalQuality(c, *restored);
    // The pre-checkpoint mesh is released with the input, after the timed
    // section.
    in.retired = std::exchange(in.pm, std::move(restored));
  };
  return w;
}

// parma_tables: Tables II/III on the 112,896-tet AAA surrogate, 128 parts.
Workload parmaTables() {
  struct T0 {
    std::multiset<std::uint64_t> digests;
    std::unordered_map<std::uint64_t, dist::PartId> home;  ///< digest -> T0 part
    double vtx_mean = 0.0;
  };
  auto t0 = std::make_shared<T0>();
  Workload w;
  w.setup = [](Ctx& c) {
    const meshgen::VesselSpec spec{.circumferential = 14, .axial = 96};
    return makeInput(c, spec, true, 128, part::Method::HypergraphRB,
                     pcu::Machine(4, 32));
  };
  w.after_setup = [t0](Ctx& c, Input& in) {
    t0->digests = dist::digest::elementDigests(*in.pm);
    t0->home.clear();
    const auto& serial = *in.gen.mesh;
    std::size_t i = 0;
    for (const auto e : serial.entities(serial.dim()))
      t0->home[dist::digest::elementDigest(serial, e)] = in.assignment[i++];
    c.checks.expect(t0->home.size() == t0->digests.size(),
                    "element digests are distinct (T0 home map is exact)");
    const auto verts = parma::entityBalance(*in.pm, 0);
    t0->vtx_mean = verts.mean;
    c.counts["T0.vtx_imbalance"] = verts.imbalancePercent();
    c.counts["T0.boundary_vtx"] = static_cast<double>(parma::boundaryCopies(*in.pm, 0));
  };
  w.timed = [t0](Ctx& c, Input& in) {
    static const char* const kPriority[] = {"Vtx>Rgn", "Vtx=Edge>Rgn",
                                            "Edge>Rgn", "Edge=Face>Rgn"};
    dist::PartedMesh& pm = *in.pm;
    double worst_elem = 0.0, worst_vtx = -1e300;
    std::size_t worst_boundary = 0;
    for (int t = 0; t < 4; ++t) {
      // Redistribute to the cached T0 assignment: every element goes home.
      auto plan = c.ledger.call("bench.plan", nullptr, [&] {
        dist::MigrationPlan p(static_cast<std::size_t>(pm.parts()));
        for (dist::PartId q = 0; q < pm.parts(); ++q) {
          const auto& m = pm.part(q).mesh();
          for (const auto e : pm.part(q).elements()) {
            const auto dest = t0->home.at(dist::digest::elementDigest(m, e));
            if (dest != q) p[static_cast<std::size_t>(q)][e] = dest;
          }
        }
        return p;
      });
      c.ledger.call("dist.migrate", &pm.network(), [&] { pm.migrate(plan); });
      c.ledger.call("bench.plan", nullptr, [&] { dist::MigrationPlan().swap(plan); });
      verifyMesh(c, pm, "redistribute");
      c.checks.expect(sameDigests(c, pm, t0->digests),
                      "element digests unchanged by redistribute");

      const auto ir = c.ledger.call("parma.improve", &pm.network(), [&] {
        return parma::improve(pm, kPriority[t], {.tolerance = 0.05});
      });
      for (const auto& l : ir.levels) c.counts["parma.improve_iters"] += l.iterations;
      c.counts["parma.elems_migrated"] += static_cast<double>(ir.totalMigrated());
      verifyMesh(c, pm, std::string("improve ") + kPriority[t]);
      c.checks.expect(sameDigests(c, pm, t0->digests),
                      std::string("element digests unchanged by improve ") +
                          kPriority[t]);

      c.ledger.call("bench.quality", nullptr, [&] {
        const auto bal = parma::allBalances(pm);
        worst_elem = std::max(worst_elem, bal[3].imbalance);
        if (t < 2)  // T1/T2 target vertices; Table II reports vs T0 mean
          worst_vtx = std::max(
              worst_vtx, (static_cast<double>(bal[0].peak) / t0->vtx_mean - 1.0) * 100.0);
        worst_boundary = std::max(worst_boundary, parma::boundaryCopies(pm, 0));
        c.counts[std::string("T") + std::to_string(t + 1) + ".boundary_vtx"] =
            static_cast<double>(parma::boundaryCopies(pm, 0));
      });
    }
    recordQuality(c, worst_elem, worst_vtx, worst_boundary);
  };
  return w;
}

// halo_solve: ten solves on a fixed 64-part partition of the vessel.
Workload haloSolve() {
  Workload w;
  w.setup = [](Ctx& c) {
    const meshgen::VesselSpec spec{.circumferential = 12, .axial = 64};
    return makeInput(c, spec, true, 64, part::Method::GraphRB, pcu::Machine(4, 16));
  };
  w.timed = [](Ctx& c, Input& in) {
    for (int step = 0; step < 10; ++step) {
      solve(c, *in.pm, seededRhs(c.seed, 100 + static_cast<std::uint64_t>(step)),
            {.max_iterations = 1000, .tolerance = 1e-10}, "time-step solve");
      verifyMesh(c, *in.pm, "solve");
    }
    finalQuality(c, *in.pm);
  };
  return w;
}

// --- output ----------------------------------------------------------------

/// Per-layer times of the traced repetition, from its spans.
std::map<std::string, double> spanTimes(const std::vector<Span>& spans,
                                        int timed_root) {
  std::map<std::string, double> by_call;  // summed duration per span name
  std::map<std::string, double> self;     // self time per layer, timed section
  std::vector<double> child(spans.size(), 0.0);
  for (const auto& s : spans)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.parent < 0) continue;  // roots, and checks between them
    const double dur = s.end - s.start;
    by_call[s.name] += dur;
    if (s.parent == timed_root) self[layerOf(s.name)] += dur - child[i];
  }
  std::map<std::string, double> t;
  t["solver.solve_s"] = by_call["solver.solvePoisson"];
  t["parma.balance_s"] = by_call["parma.balance"];
  t["parma.improve_s"] = by_call["parma.improve"];
  t["part.partition_s"] = by_call["part.partition"];
  t["dist.distribute_s"] = by_call["dist.distribute"];
  t["dist.redistribute_s"] = by_call["dist.migrate"];
  t["dist.verify_s"] = by_call["dist.verify"];
  t["adapt.refine_s"] = by_call["adapt.refineParted"];
  t["pario.write_s"] = by_call["pario.checkpointImage"];
  t["pario.read_s"] = by_call["pario.restoreImage"];
  for (const char* layer : {"solver", "parma", "dist", "adapt", "pario", "bench"})
    t[std::string(layer) + ".self_s"] = self[layer];
  const auto& root = spans[static_cast<std::size_t>(timed_root)];
  t["trace.unattributed_s"] =
      (root.end - root.start) - child[static_cast<std::size_t>(timed_root)];
  return t;
}

std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string jsonObject(const std::map<std::string, double>& m) {
  std::string o = "{";
  for (const auto& [k, v] : m) o += (o.size() > 1 ? ", \"" : "\"") + k + "\": " + num(v);
  return o + "}";
}

void writeSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"parent\": " << s.parent << ", \"start\": " << num(s.start)
        << ", \"end\": " << num(s.end)
        << ", \"msgs_logical\": " << s.net.messages_sent
        << ", \"msgs_physical\": " << s.net.physical_messages
        << ", \"bytes\": " << s.net.bytes_sent << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool setup_only = false;
  std::string scratch = ".bench_build/scratch";
  std::string spans = ".bench_build/spans.json";
};

Args parseArgs(int argc, char** argv) {
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in pairs");
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--mode") a.setup_only = v == "setup";
    else if (k == "--scratch") a.scratch = v;
    else if (k == "--spans") a.spans = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  return a;
}

int run(const Args& args) {
  Workload w;
  if (args.workload == "adapt_cycle") w = adaptCycle();
  else if (args.workload == "parma_tables") w = parmaTables();
  else if (args.workload == "halo_solve") w = haloSolve();
  else throw std::invalid_argument("unknown workload " + args.workload);

  Ctx c{.seed = args.seed, .scratch = args.scratch, .ledger = Ledger(args.trace)};
  const int setup_root = c.ledger.open("proc.setup");
  const double s0 = now();
  Input in = w.setup(c);
  const double setup_s = now() - s0;
  c.ledger.closeRoot(setup_root);
  if (args.setup_only) {
    std::cout << "{\"setup_s\": " << num(setup_s) << "}\n";
    return 0;
  }
  verifyMesh(c, *in.pm, "distribute");
  if (w.after_setup) w.after_setup(c, in);

  std::filesystem::create_directories(c.scratch);
  c.ledger.setCounting(true);
  const int timed_root = c.ledger.open("proc.workload");
  const double c0 = cpuSeconds();
  const double t0 = now();
  const double bench0 = c.ledger.benchSeconds();
  w.timed(c, in);
  // The benchmark's own work is not part of the measured loop.
  const double bench_s = c.ledger.benchSeconds() - bench0;
  const double wall_s = now() - t0 - bench_s;
  const double cpu_s = cpuSeconds() - c0 - bench_s;
  c.ledger.closeRoot(timed_root);
  c.ledger.setCounting(false);

  for (const auto& [layer, s] : c.ledger.layerNet()) {
    if (layer != "parma" && layer != "adapt" && layer != "solver") continue;
    c.counts[layer + ".msgs_logical"] = static_cast<double>(s.messages_sent);
    c.counts[layer + ".msgs_physical"] = static_cast<double>(s.physical_messages);
    c.counts[layer + ".bytes"] = static_cast<double>(s.bytes_sent);
  }
  const auto& net = c.ledger.totalNet();
  c.counts["network.msgs_logical"] = static_cast<double>(net.messages_sent);
  c.counts["network.msgs_physical"] = static_cast<double>(net.physical_messages);
  c.counts["network.bytes"] = static_cast<double>(net.bytes_sent);

  std::cout << "{\"setup_s\": " << num(setup_s) << ", \"wall_s\": " << num(wall_s)
            << ", \"cpu_s\": " << num(cpu_s) << ", \"peak_rss_mb\": " << num(peakRssMb())
            << ", \"attempted\": " << c.checks.attempted
            << ", \"failed\": " << c.checks.failed
            << ", \"counts\": " << jsonObject(c.counts);
  if (args.trace) {
    writeSpans(args.spans, c.ledger.spans());
    std::cout << ", \"times\": " << jsonObject(spanTimes(c.ledger.spans(), timed_root));
  }
  std::cout << "}\n" << std::flush;
  return c.checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
