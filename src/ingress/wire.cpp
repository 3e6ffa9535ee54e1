#include "ingress/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace dchag::ingress {

const char* to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::kSaturated: return "saturated";
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

namespace {

// Little-endian put/get; the serving fleet is homogeneous x86-64 today but
// the byte order is pinned so the protocol stays well-defined.
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f32(std::vector<std::uint8_t>& out, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  put_u32(out, bits);
}

/// Bounds-checked read cursor; every get_* throws kBadRequest past the end.
struct Reader {
  const std::uint8_t* p;
  std::size_t left;

  void need(std::size_t n) const {
    if (left < n)
      throw IngressError(ErrorCode::kBadRequest, "truncated payload");
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(p[i]) << (8 * i);
    p += 4;
    left -= 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(p[i]) << (8 * i);
    p += 8;
    left -= 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  float f32() {
    const std::uint32_t bits = u32();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }
  std::vector<float> floats(std::size_t n) {
    need(n * 4);
    std::vector<float> out(n);
    std::memcpy(out.data(), p, n * 4);
    p += n * 4;
    left -= n * 4;
    return out;
  }
  std::string str(std::size_t n) {
    need(n);
    std::string out(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return out;
  }
};

void put_tensor_2d_or_3d(std::vector<std::uint8_t>& out, const Tensor& t) {
  for (Index i = 0; i < t.shape().rank(); ++i) put_i64(out, t.dim(i));
  const std::size_t bytes = static_cast<std::size_t>(t.numel()) * 4;
  const std::size_t base = out.size();
  out.resize(base + bytes);
  std::memcpy(out.data() + base, t.data(), bytes);
}

/// Guards a dim triple against garbage before multiplying into a size.
std::int64_t checked_numel(std::initializer_list<std::int64_t> dims,
                           std::int64_t max_elems) {
  std::int64_t n = 1;
  for (std::int64_t d : dims) {
    if (d <= 0 || d > max_elems)
      throw IngressError(ErrorCode::kBadRequest, "bad tensor dimension");
    n *= d;
    if (n > max_elems)
      throw IngressError(ErrorCode::kBadRequest, "tensor too large");
  }
  return n;
}

constexpr std::int64_t kMaxElems = kMaxFrameBytes / 4;

}  // namespace

std::vector<std::uint8_t> encode_infer(const InferRequest& r) {
  if (r.channels.size() > kMaxWireChannels)
    throw IngressError(ErrorCode::kBadRequest,
                       "too many channels in request");
  if (r.images.shape().rank() != 3)
    throw IngressError(ErrorCode::kBadRequest,
                       "request images must be [C, H, W]");
  std::vector<std::uint8_t> out;
  out.reserve(64 + static_cast<std::size_t>(r.images.numel()) * 4);
  put_u64(out, r.id);
  put_f32(out, r.lead_time);
  put_u32(out, static_cast<std::uint32_t>(r.channels.size()));
  for (Index c : r.channels) put_i64(out, c);
  put_tensor_2d_or_3d(out, r.images);
  return out;
}

InferRequest decode_infer(const std::uint8_t* data, std::size_t size) {
  Reader rd{data, size};
  InferRequest r;
  r.id = rd.u64();
  r.lead_time = rd.f32();
  const std::uint32_t n_channels = rd.u32();
  if (n_channels > kMaxWireChannels)
    throw IngressError(ErrorCode::kBadRequest, "too many channels");
  r.channels.reserve(n_channels);
  for (std::uint32_t i = 0; i < n_channels; ++i)
    r.channels.push_back(static_cast<Index>(rd.i64()));
  const std::int64_t c = rd.i64(), h = rd.i64(), w = rd.i64();
  const std::int64_t n = checked_numel({c, h, w}, kMaxElems);
  r.images = Tensor::from_data(tensor::Shape{c, h, w},
                               rd.floats(static_cast<std::size_t>(n)));
  if (rd.left != 0)
    throw IngressError(ErrorCode::kBadRequest, "trailing bytes in request");
  return r;
}

std::vector<std::uint8_t> encode_result(const InferResult& r) {
  if (r.pred.shape().rank() != 2)
    throw IngressError(ErrorCode::kInternal, "result must be [S, D]");
  std::vector<std::uint8_t> out;
  out.reserve(32 + static_cast<std::size_t>(r.pred.numel()) * 4);
  put_u64(out, r.id);
  put_tensor_2d_or_3d(out, r.pred);
  return out;
}

InferResult decode_result(const std::uint8_t* data, std::size_t size) {
  Reader rd{data, size};
  InferResult r;
  r.id = rd.u64();
  const std::int64_t s = rd.i64(), d = rd.i64();
  const std::int64_t n = checked_numel({s, d}, kMaxElems);
  r.pred = Tensor::from_data(tensor::Shape{s, d},
                             rd.floats(static_cast<std::size_t>(n)));
  if (rd.left != 0)
    throw IngressError(ErrorCode::kBadRequest, "trailing bytes in result");
  return r;
}

std::vector<std::uint8_t> encode_error(const WireError& e) {
  std::vector<std::uint8_t> out;
  put_u64(out, e.id);
  put_u32(out, static_cast<std::uint32_t>(e.code));
  put_u32(out, static_cast<std::uint32_t>(e.message.size()));
  out.insert(out.end(), e.message.begin(), e.message.end());
  return out;
}

WireError decode_error(const std::uint8_t* data, std::size_t size) {
  Reader rd{data, size};
  WireError e;
  e.id = rd.u64();
  const std::uint32_t code = rd.u32();
  if (code < 1 || code > 4)
    throw IngressError(ErrorCode::kBadRequest, "unknown error code");
  e.code = static_cast<ErrorCode>(code);
  e.message = rd.str(rd.u32());
  if (rd.left != 0)
    throw IngressError(ErrorCode::kBadRequest, "trailing bytes in error");
  return e;
}

bool write_frame(int fd, MsgType type, const std::uint8_t* payload,
                 std::size_t size) {
  if (size > kMaxFrameBytes) return false;
  std::vector<std::uint8_t> header;
  put_u32(header, static_cast<std::uint32_t>(size));
  header.push_back(static_cast<std::uint8_t>(type));

  const auto send_all = [fd](const std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      // MSG_NOSIGNAL: a vanished peer must surface as an error return,
      // never as a process-killing SIGPIPE inside the dispatcher.
      const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += w;
      n -= static_cast<std::size_t>(w);
    }
    return true;
  };
  if (!send_all(header.data(), header.size())) return false;
  return size == 0 || send_all(payload, size);
}

std::optional<Frame> read_frame(int fd) {
  const auto recv_all = [fd](std::uint8_t* p, std::size_t n) -> int {
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd, p + got, n - got, 0);
      if (r == 0) return got == 0 ? 0 : -1;  // EOF (clean only at a frame edge)
      if (r < 0) {
        if (errno == EINTR) continue;
        return -1;
      }
      got += static_cast<std::size_t>(r);
    }
    return 1;
  };

  std::uint8_t header[5];
  const int hr = recv_all(header, 5);
  if (hr == 0) return std::nullopt;  // orderly EOF between frames
  if (hr < 0) return std::nullopt;   // peer vanished
  std::uint32_t size = 0;
  for (int i = 0; i < 4; ++i) size |= std::uint32_t(header[i]) << (8 * i);
  if (size > kMaxFrameBytes)
    throw IngressError(ErrorCode::kBadRequest, "oversized frame");
  Frame f;
  f.type = static_cast<MsgType>(header[4]);
  f.payload.resize(size);
  if (size > 0 && recv_all(f.payload.data(), size) != 1)
    throw IngressError(ErrorCode::kBadRequest, "truncated frame");
  return f;
}

}  // namespace dchag::ingress
