// Seeded mutation fuzzer for the wire codec, the one parser of every
// request and answer byte the ingress tier reads — from client sockets
// and from the shm rings alike. Valid kInfer/kResult/kError payloads are
// truncated, byte-flipped, padded, and given lying lengths, dims and
// channel counts. Every decoder, run on every mutant, must either return
// a value that re-encodes to exactly the input bytes or throw
// IngressError{kBadRequest}; anything else (another error code, another
// exception type, a value that does not round-trip, or a sanitizer report
// under the ASan/UBSan build) fails the test. The seed and iteration
// count are fixed, so a failure reproduces and the run takes well under a
// second in Release.
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "ingress/wire.hpp"

namespace dchag::ingress {
namespace {

using Bytes = std::vector<std::uint8_t>;

constexpr std::uint64_t kSeed = 20251017;
constexpr int kIterations = 30000;

/// Decodes `bytes` with one decoder and re-encodes the value it returns.
using RoundTrip = std::function<Bytes(const Bytes&)>;

struct Decoder {
  const char* name;
  RoundTrip round_trip;
  int decoded = 0;
  int rejected = 0;
};

/// Checks the property on one input; returns what went wrong, or "".
std::string check(Decoder& d, const Bytes& bytes) {
  try {
    if (d.round_trip(bytes) == bytes) {
      ++d.decoded;
      return {};
    }
    return "decoded value does not re-encode to the input bytes";
  } catch (const IngressError& e) {
    if (e.code() == ErrorCode::kBadRequest) {
      ++d.rejected;
      return {};
    }
    return std::string("wrong error code: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("untyped exception: ") + e.what();
  } catch (...) {
    return "non-std exception";
  }
}

/// A field of a payload whose value a mutation may lie about.
struct Field {
  std::size_t offset;
  std::size_t width;  ///< 4 (u32) or 8 (i64)
};

struct Seed {
  Bytes bytes;
  std::vector<Field> fields;  ///< length, dim and channel-count fields
};

class Fuzzer {
 public:
  explicit Fuzzer(std::uint64_t seed) : rng_(seed) {}

  int uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  Tensor tensor(tensor::Shape shape) {
    std::vector<float> data(static_cast<std::size_t>(shape.numel()));
    std::normal_distribution<float> normal;
    for (float& v : data) v = normal(rng_);
    return Tensor::from_data(shape, std::move(data));
  }

  /// A valid payload of a random message type, with its lie-able fields.
  Seed valid_payload() {
    Seed s;
    switch (uniform(0, 2)) {
      case 0: {
        InferRequest r;
        r.id = rng_();
        r.lead_time = static_cast<float>(uniform(0, 48));
        const int n = uniform(0, 5) == 0 ? int{kMaxWireChannels}
                                         : uniform(0, 6);
        for (int i = 0; i < n; ++i) r.channels.push_back(uniform(-2, 200));
        r.images = tensor({uniform(1, 4), uniform(1, 4), uniform(1, 4)});
        s.bytes = encode_infer(r);
        const std::size_t dims = 16 + 8 * std::size_t(n);
        s.fields = {{12, 4}, {dims, 8}, {dims + 8, 8}, {dims + 16, 8}};
        break;
      }
      case 1:
        s.bytes = encode_result(
            {rng_(), tensor({uniform(1, 6), uniform(1, 6)})});
        s.fields = {{8, 8}, {16, 8}};
        break;
      default: {
        std::string message(static_cast<std::size_t>(uniform(0, 40)), ' ');
        for (char& c : message) c = static_cast<char>(uniform(0, 255));
        s.bytes = encode_error(
            {rng_(), static_cast<ErrorCode>(uniform(1, 4)), message});
        s.fields = {{8, 4}, {12, 4}};
        break;
      }
    }
    return s;
  }

  /// Applies 1-3 random mutations to `s.bytes`.
  Bytes mutate(const Seed& s) {
    Bytes b = s.bytes;
    for (int m = uniform(1, 3); m > 0; --m) {
      switch (uniform(0, 3)) {
        case 0:  // truncation
          if (!b.empty()) b.resize(static_cast<std::size_t>(
                              uniform(0, static_cast<int>(b.size()) - 1)));
          break;
        case 1:  // byte flips
          for (int k = uniform(1, 4); k > 0 && !b.empty(); --k)
            b[static_cast<std::size_t>(
                uniform(0, static_cast<int>(b.size()) - 1))] ^=
                static_cast<std::uint8_t>(uniform(1, 255));
          break;
        case 2:  // trailing garbage
          for (int k = uniform(1, 8); k > 0; --k)
            b.push_back(static_cast<std::uint8_t>(uniform(0, 255)));
          break;
        default: {  // a length, dim or channel-count lie
          const Field f = s.fields[static_cast<std::size_t>(
              uniform(0, static_cast<int>(s.fields.size()) - 1))];
          if (f.offset + f.width <= b.size()) put(&b, f, lie(b, f));
          break;
        }
      }
    }
    return b;
  }

 private:
  static std::uint64_t get(const Bytes& b, Field f) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < f.width; ++i)
      v |= std::uint64_t(b[f.offset + i]) << (8 * i);
    return v;
  }

  static void put(Bytes* b, Field f, std::uint64_t v) {
    for (std::size_t i = 0; i < f.width; ++i)
      (*b)[f.offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  /// Off-by-one, zero, negative, boundary and overflow-bait values.
  std::uint64_t lie(const Bytes& b, Field f) {
    const std::uint64_t was = get(b, f);
    const std::uint64_t lies[] = {
        was + 1,
        was - 1,
        was * 2,
        0,
        ~std::uint64_t{0},  // -1
        std::uint64_t{kMaxWireChannels} + 1,
        std::uint64_t{kMaxFrameBytes} / 4 + 1,
        std::uint64_t{1} << 31,
        std::uint64_t{1} << 32,
        std::uint64_t(std::numeric_limits<std::int64_t>::max()),
        std::uint64_t(std::numeric_limits<std::int64_t>::min()),
        rng_(),
    };
    return lies[uniform(0, static_cast<int>(std::size(lies)) - 1)];
  }

  std::mt19937_64 rng_;
};

TEST(WireFuzz, DecodersRoundTripOrRejectTyped) {
  Decoder decoders[] = {
      {"decode_infer",
       [](const Bytes& b) {
         return encode_infer(decode_infer(b.data(), b.size()));
       }},
      {"decode_result",
       [](const Bytes& b) {
         return encode_result(decode_result(b.data(), b.size()));
       }},
      {"decode_error",
       [](const Bytes& b) {
         return encode_error(decode_error(b.data(), b.size()));
       }},
  };

  Fuzzer fuzz(kSeed);
  for (int it = 0; it < kIterations; ++it) {
    const Seed seed = fuzz.valid_payload();
    // Every tenth input goes in unmutated: valid payloads must round-trip.
    const Bytes input = it % 10 == 0 ? seed.bytes : fuzz.mutate(seed);
    for (Decoder& d : decoders) {
      const std::string why = check(d, input);
      if (!why.empty()) {
        ADD_FAILURE() << d.name << " on iteration " << it << " (seed "
                      << kSeed << ", " << input.size() << " bytes): " << why;
        return;
      }
    }
  }
  // The fuzzer must reach both sides of every decoder, or it tests little.
  for (const Decoder& d : decoders) {
    EXPECT_GT(d.decoded, kIterations / 100) << d.name;
    EXPECT_GT(d.rejected, kIterations / 2) << d.name;
  }
}

}  // namespace
}  // namespace dchag::ingress
