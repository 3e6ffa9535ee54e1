// Microbenchmark (google-benchmark): the in-process collective runtime's
// one data path (direct shared-memory reads between barriers) for
// AllReduce, AllGather and ReduceScatter across payload sizes and group
// sizes, plus the point-to-point mailbox. These numbers characterise the
// simulation substrate itself, not Frontier; hw::CommCostModel prices
// ring and node-placement costs on the real fabric.
#include <benchmark/benchmark.h>

#include "comm/communicator.hpp"

namespace {

using namespace dchag::comm;

void run_collective(benchmark::State& state, CollectiveKind kind) {
  const int world = static_cast<int>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  World w(world);
  for (auto _ : state) {
    w.run([&](Communicator& comm) {
      std::vector<float> data(n, static_cast<float>(comm.rank()));
      switch (kind) {
        case CollectiveKind::kAllReduce:
          comm.all_reduce(data);
          break;
        case CollectiveKind::kAllGather: {
          std::vector<float> recv(n * static_cast<std::size_t>(world));
          comm.all_gather(std::span<const float>(data.data(), n), recv);
          break;
        }
        case CollectiveKind::kReduceScatter: {
          std::vector<float> send(n * static_cast<std::size_t>(world), 1.0f);
          comm.reduce_scatter(send, data);
          break;
        }
        default:
          break;
      }
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sizeof(float)) *
                          world);
}

void BM_AllReduce(benchmark::State& state) {
  run_collective(state, CollectiveKind::kAllReduce);
}
void BM_AllGather(benchmark::State& state) {
  run_collective(state, CollectiveKind::kAllGather);
}
void BM_ReduceScatter(benchmark::State& state) {
  run_collective(state, CollectiveKind::kReduceScatter);
}

BENCHMARK(BM_AllReduce)->Args({4, 1 << 10})->Args({8, 1 << 14});
BENCHMARK(BM_AllGather)->Args({4, 1 << 12})->Args({8, 1 << 12});
BENCHMARK(BM_ReduceScatter)->Args({4, 1 << 12})->Args({8, 1 << 12});

void BM_SendRecvPingPong(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  World w(2);
  for (auto _ : state) {
    w.run([&](Communicator& comm) {
      std::vector<float> buf(n, 1.0f);
      if (comm.rank() == 0) {
        comm.send(buf, 1, 0);
        comm.recv(buf, 1, 1);
      } else {
        comm.recv(buf, 0, 0);
        comm.send(buf, 0, 1);
      }
    });
  }
}
BENCHMARK(BM_SendRecvPingPong)->Arg(1 << 8)->Arg(1 << 14);

}  // namespace

BENCHMARK_MAIN();
