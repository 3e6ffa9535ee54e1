// Wire protocol of the ingress tier: length-prefixed binary frames over a
// byte stream (TCP), plus the typed error surface. The payload codec is the
// one request/answer format of the tier: the shared-memory rings carry the
// same kInfer/kResult/kError payloads between dispatcher and workers.
//
// Frame layout (all integers little-endian):
//
//   u32 payload_bytes | u8 MsgType | payload
//
// Payloads:
//   kInfer        u64 id, f32 lead_time, u32 n_channels, i64 channels[n],
//                 i64 c, i64 h, i64 w, f32 data[c*h*w]
//   kResult       u64 id, i64 s, i64 d, f32 data[s*d]
//   kError        u64 id, u32 ErrorCode, u32 len, char message[len]
//   kMetricsQuery (empty)            -> kMetricsText  (char text[])
//   kHealthQuery  (empty)            -> kHealthOk     (char "ok")
//
// The codec never trusts the peer: every decode checks bounds and every
// malformed frame surfaces as IngressError{kBadRequest} instead of a read
// past the buffer.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace dchag::ingress {

using tensor::Index;
using tensor::Tensor;

/// Most channels one request may name.
constexpr std::uint32_t kMaxWireChannels = 64;

/// Largest non-tensor part of a kInfer or kResult payload: ids, lead time,
/// a full channel list and three dims. A transport that budgets tensor
/// floats adds this allowance for the rest of the message.
constexpr std::size_t kMaxWireHeaderBytes =
    8 + 4 + 4 + 8 * std::size_t{kMaxWireChannels} + 3 * 8;

enum class MsgType : std::uint8_t {
  kInfer = 1,
  kResult = 2,
  kError = 3,
  kMetricsQuery = 4,
  kMetricsText = 5,
  kHealthQuery = 6,
  kHealthOk = 7,
};

/// Typed rejection/failure codes; these travel on the wire, so values are
/// part of the protocol.
enum class ErrorCode : std::uint32_t {
  kSaturated = 1,      ///< admission queue full — retry later
  kBadRequest = 2,     ///< malformed frame or out-of-bounds request
  kShuttingDown = 3,   ///< ingress is draining; no new work accepted
  kInternal = 4,       ///< worker-side failure executing the request
};

[[nodiscard]] const char* to_string(ErrorCode c);

/// The client-visible exception for kError responses and protocol faults.
class IngressError : public std::runtime_error {
 public:
  IngressError(ErrorCode code, const std::string& message)
      : std::runtime_error(std::string(to_string(code)) + ": " + message),
        code_(code) {}
  [[nodiscard]] ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

struct InferRequest {
  std::uint64_t id = 0;  ///< client-chosen correlation id, echoed back
  float lead_time = 1.0f;
  std::vector<Index> channels;  ///< empty = all trained channels
  Tensor images;                ///< one sample, [C, H, W]
};

struct InferResult {
  std::uint64_t id = 0;
  Tensor pred;  ///< [S, C_target * p^2]
};

struct WireError {
  std::uint64_t id = 0;
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

[[nodiscard]] std::vector<std::uint8_t> encode_infer(const InferRequest& r);
[[nodiscard]] InferRequest decode_infer(const std::uint8_t* data,
                                        std::size_t size);

[[nodiscard]] std::vector<std::uint8_t> encode_result(const InferResult& r);
[[nodiscard]] InferResult decode_result(const std::uint8_t* data,
                                        std::size_t size);

[[nodiscard]] std::vector<std::uint8_t> encode_error(const WireError& e);
[[nodiscard]] WireError decode_error(const std::uint8_t* data,
                                     std::size_t size);

// ---------------------------------------------------------------------------
// Framed blocking socket I/O
// ---------------------------------------------------------------------------

struct Frame {
  MsgType type{};
  std::vector<std::uint8_t> payload;
};

/// Writes one complete frame (handles partial writes / EINTR; suppresses
/// SIGPIPE). Returns false when the peer is gone.
bool write_frame(int fd, MsgType type, const std::uint8_t* payload,
                 std::size_t size);
inline bool write_frame(int fd, MsgType type,
                        const std::vector<std::uint8_t>& payload) {
  return write_frame(fd, type, payload.data(), payload.size());
}

/// Reads one complete frame. nullopt on orderly EOF or a dead peer.
/// Throws IngressError{kBadRequest} on an oversized or truncated frame.
[[nodiscard]] std::optional<Frame> read_frame(int fd);

/// Frames larger than this are protocol violations (guards the listener
/// against a garbage length prefix allocating gigabytes).
constexpr std::uint32_t kMaxFrameBytes = 64u * 1024u * 1024u;

}  // namespace dchag::ingress
