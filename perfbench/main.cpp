// dchag_perfbench: runs ONE benchmark workload per process (so each gets
// its own peak RSS) and prints its report as one JSON line on stdout.
//
//   dchag_perfbench --workload W --seed N [--seconds S] [--trace 0|1]
//                   [--nominal-rps R] [--overload-rps R] [--out DIR]
//
// perfbench/run.py builds this binary, supplies the frozen rates from
// perfbench/workloads.json, and turns the report into the benchmark's
// result line. See perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "perfbench.hpp"
#include "tensor/thread_pool.hpp"

using namespace dchag;
using namespace dchag::perfbench;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "dchag_perfbench: %s\nusage: dchag_perfbench --workload W "
               "--seed N [--seconds S] [--trace 0|1] [--nominal-rps R] "
               "[--overload-rps R] [--out DIR]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--nominal-rps") {
        opt.nominal_rps = std::stod(value);
      } else if (flag == "--overload-rps") {
        opt.overload_rps = std::stod(value);
      } else if (flag == "--out") {
        opt.out_dir = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.seconds < 1.0) usage("--seconds must be at least 1");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  void (*run)(const Options&, Report&) = nullptr;
  if (opt.workload == "serve_poisson") {
    run = run_serve_poisson;
  } else if (opt.workload == "serve_subset_burst") {
    run = run_serve_subset_burst;
    // The default deployment runs the parallel kernels on a 3-lane pool;
    // the pool is sized from the environment once, so set it first.
    ::setenv("DCHAG_THREADS", "3", 1);
  } else if (opt.workload == "ingress_poisson") {
    run = run_ingress_poisson;
  } else if (opt.workload == "train_dchag") {
    run = run_train_dchag;
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }
  const bool serving = opt.workload != "train_dchag";
  if (serving && (opt.nominal_rps <= 0.0 || opt.overload_rps <= 0.0))
    usage("serving workloads need --nominal-rps and --overload-rps");

  std::unique_ptr<Tracer> tracer;
  if (opt.trace) {
    tracer = std::make_unique<Tracer>(std::size_t{1} << 17);
    g_tracer = tracer.get();
  }

  Report report;
  report.context("workload", opt.workload);
  report.context("seed", static_cast<double>(opt.seed));
  report.context("seconds", opt.seconds);
  report.context("trace", opt.trace ? 1.0 : 0.0);
  report.context("build_type", DCHAG_PERFBENCH_BUILD_TYPE);
  report.context("nproc",
                 static_cast<double>(std::thread::hardware_concurrency()));
  report.context("pool_lanes",
                 static_cast<double>(tensor::ThreadPool::global().lanes()));
  if (serving) {
    report.context("nominal_rps", opt.nominal_rps);
    report.context("overload_rps", opt.overload_rps);
  }
  try {
    run(opt, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dchag_perfbench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 2;
  }
  if (tracer) {
    const std::string path = opt.out_dir + "/" + opt.workload + ".trace.json";
    report.check(tracer->write_chrome_json(path), "trace written to " + path);
    report.context("trace_file", path);
    report.context("trace_spans", static_cast<double>(tracer->spans().size()));
    report.context("trace_dropped", static_cast<double>(tracer->dropped()));
    g_tracer = nullptr;
  }
  std::printf("%s\n", report.to_json().c_str());
  return report.outputs_ok() ? 0 : 1;
}
