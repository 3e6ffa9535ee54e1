// Shared vocabulary types for the SPMD communication runtime.
//
// Reduction ops, collective kinds, and the per-communicator call
// statistics the tests use to assert how much communication a strategy
// actually performed.
#pragma once

#include <array>
#include <cstdint>

namespace dchag::comm {

enum class ReduceOp { kSum, kAvg, kMax, kMin };

enum class CollectiveKind : std::size_t {
  kAllReduce = 0,
  kAllGather = 1,
  kReduceScatter = 2,
  kBroadcast = 3,
  kSendRecv = 4,
  kBarrier = 5,
};
inline constexpr std::size_t kNumCollectiveKinds = 6;

[[nodiscard]] inline const char* to_string(CollectiveKind k) {
  switch (k) {
    case CollectiveKind::kAllReduce: return "AllReduce";
    case CollectiveKind::kAllGather: return "AllGather";
    case CollectiveKind::kReduceScatter: return "ReduceScatter";
    case CollectiveKind::kBroadcast: return "Broadcast";
    case CollectiveKind::kSendRecv: return "SendRecv";
    case CollectiveKind::kBarrier: return "Barrier";
  }
  return "?";
}

/// Per-communicator-handle ledger of collective traffic. Tests use it to
/// assert the paper's "no communication in the backward pass" property;
/// benches use it to report communication volume per step.
struct CommStats {
  std::array<std::uint64_t, kNumCollectiveKinds> calls{};
  std::array<std::uint64_t, kNumCollectiveKinds> payload_bytes{};

  void record(CollectiveKind k, std::uint64_t bytes) {
    calls[static_cast<std::size_t>(k)] += 1;
    payload_bytes[static_cast<std::size_t>(k)] += bytes;
  }
  [[nodiscard]] std::uint64_t total_calls() const {
    std::uint64_t n = 0;
    for (auto c : calls) n += c;
    return n;
  }
  [[nodiscard]] std::uint64_t total_payload_bytes() const {
    std::uint64_t n = 0;
    for (auto b : payload_bytes) n += b;
    return n;
  }
  [[nodiscard]] std::uint64_t calls_of(CollectiveKind k) const {
    return calls[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t bytes_of(CollectiveKind k) const {
    return payload_bytes[static_cast<std::size_t>(k)];
  }
};

}  // namespace dchag::comm
