// Ablation: collective algorithm choice on the modelled Frontier fabric
// (ring vs hierarchical two-level, intra- vs inter-node groups) — the
// design space behind the paper's §6.3 argument that the hybrid layout
// wins by keeping heavy collectives on Infinity Fabric. The in-process
// runtime has one data path (timed by micro_collectives); this bench
// evaluates the alpha-beta cost model's algorithms at Frontier scale.
#include "bench_util.hpp"
#include "hw/comm_model.hpp"

namespace {
using namespace dchag;
using namespace dchag::hw;
}  // namespace

int main() {
  bench::header("Ablation", "Collective placement on the Frontier fabric");
  const CommCostModel cost(MachineSpec::frontier());
  bench::ShapeChecks checks;

  bench::section("AllReduce time (ms) vs group size and placement, 256 MB");
  std::printf("%8s %18s %18s %12s\n", "ranks", "packed (8/node)",
              "sparse (1/node)", "ratio");
  const double bytes = 256e6;
  for (int p : {8, 16, 32, 64, 128}) {
    const double packed = 1e3 * cost.all_reduce_s(bytes, p, 8);
    const double sparse = 1e3 * cost.all_reduce_s(bytes, p, 1);
    std::printf("%8d %18.2f %18.2f %12.2f\n", p, packed, sparse,
                packed / sparse);
    if (p > 8) {
      checks.expect(packed > sparse,
                    "at " + std::to_string(p) +
                        " ranks, packing 8 ranks/node divides the NIC and "
                        "slows the collective");
    }
  }

  bench::section("intra-node vs cross-node group, identical size");
  for (double mb : {1.0, 16.0, 256.0}) {
    const double intra = 1e3 * cost.all_reduce_s(mb * 1e6, 8, 8);
    const double inter = 1e3 * cost.all_reduce_s(mb * 1e6, 8, 4);
    std::printf("%7.0f MB: intra-node %8.3f ms | 2-node %8.3f ms (%.1fx)\n",
                mb, intra, inter, inter / intra);
    checks.expect(inter > intra,
                  std::to_string(static_cast<int>(mb)) +
                      " MB: an 8-rank group inside one node beats the "
                      "same group across two nodes");
  }

  bench::section("payload scaling at 64 ranks (latency- vs bw-bound)");
  double prev = 0;
  bool monotone = true;
  for (double kb : {1.0, 64.0, 4096.0, 262144.0}) {
    const double t = 1e3 * cost.all_reduce_s(kb * 1e3, 64, 8);
    std::printf("%10.0f KB: %10.3f ms\n", kb, t);
    monotone = monotone && t > prev;
    prev = t;
  }
  checks.expect(monotone, "cost grows monotonically with payload");
  {
    // Tiny payloads are latency-dominated: halving bytes barely helps.
    const double t1 = cost.all_reduce_s(1e3, 64, 8);
    const double t2 = cost.all_reduce_s(2e3, 64, 8);
    checks.expect(t2 / t1 < 1.2,
                  "1-2 KB payloads are latency-bound (alpha term)");
    // Huge payloads are bandwidth-dominated: doubling bytes ~doubles time.
    const double b1 = cost.all_reduce_s(1e9, 64, 8);
    const double b2 = cost.all_reduce_s(2e9, 64, 8);
    checks.expect(b2 / b1 > 1.8, "GB payloads are bandwidth-bound");
  }

  bench::section("the paper's two layouts (7B block activations, 128 ranks)");
  {
    // Baseline: per-block TP AllReduce in 16-rank two-node groups.
    // Hybrid: 4-rank intra-node groups. Same per-rank payload.
    const double act_bytes = 26.0 * 196 * 4096 * 2;  // B*S*D bf16
    const double base = 1e3 * cost.all_reduce_s(act_bytes, 16, 8);
    const double hybrid = 1e3 * cost.all_reduce_s(act_bytes, 4, 4);
    std::printf("TP AllReduce per block: baseline(16 ranks, 2 nodes) "
                "%.3f ms vs hybrid(4 ranks, intra) %.3f ms\n",
                base, hybrid);
    checks.expect(hybrid < base / 2.0,
                  "hybrid's intra-node TP groups cut per-block collective "
                  "time by >2x (paper §6.3)");
  }
  return checks.report();
}
