// Shared-memory ring pair: create/open geometry validation, SPSC
// request/response flow of wire-codec payloads, full/empty edges, the
// slot budget, liveness words, and a cross-thread producer/consumer
// stress run (threads stand in for the worker process; the
// memory-ordering contract is identical).
#include "ingress/shm_ring.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <thread>

namespace dchag::ingress {
namespace {

using tensor::Shape;

RingConfig small_config() {
  RingConfig cfg;
  cfg.slots = 2;
  cfg.max_payload_floats = 64;
  return cfg;
}

TEST(ShmRing, CreateOpenRoundTrip) {
  const std::string name = make_ring_name();
  ShmRing creator = ShmRing::create(name, small_config());
  ShmRing opener = ShmRing::open(name);
  EXPECT_EQ(opener.slots(), 2u);
  EXPECT_EQ(opener.max_message_bytes(), 64u * 4 + kMaxWireHeaderBytes);
  EXPECT_EQ(opener.state(), WorkerState::kStarting);
  EXPECT_EQ(opener.control(), ControlWord::kRun);
  creator.unlink();
  // The name is gone, but live mappings stay usable.
  EXPECT_THROW((void)ShmRing::open(name), std::exception);
  RingMessage msg;
  EXPECT_FALSE(creator.try_pop_request(&msg));
  EXPECT_FALSE(creator.try_pop_response(&msg));
}

TEST(ShmRing, StaleSegmentNameIsAnError) {
  const std::string name = make_ring_name();
  ShmRing first = ShmRing::create(name, small_config());
  // O_EXCL: a second create on the same name must fail loudly instead of
  // silently adopting a stale segment.
  EXPECT_THROW((void)ShmRing::create(name, small_config()), std::exception);
  first.unlink();
}

TEST(ShmRing, RequestFlowAndFullEmptyEdges) {
  const std::string name = make_ring_name();
  ShmRing disp = ShmRing::create(name, small_config());
  ShmRing work = ShmRing::open(name);

  InferRequest req;
  req.id = 77;
  req.lead_time = 1.5f;
  req.channels = {0, 3};
  req.images = Tensor::from_data(Shape{2, 1, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  const std::vector<std::uint8_t> bytes = encode_infer(req);

  EXPECT_TRUE(disp.try_push_request(1, MsgType::kInfer, bytes));
  EXPECT_TRUE(disp.try_push_request(2, MsgType::kInfer, bytes));
  // Full at 2 slots.
  EXPECT_FALSE(disp.try_push_request(3, MsgType::kInfer, bytes));

  RingMessage got;
  ASSERT_TRUE(work.try_pop_request(&got));
  EXPECT_EQ(got.id, 1u);
  EXPECT_EQ(got.type, MsgType::kInfer);
  EXPECT_EQ(got.payload, bytes);
  const InferRequest back = decode_infer(got.payload.data(), got.payload.size());
  EXPECT_EQ(back.id, 77u);
  EXPECT_FLOAT_EQ(back.lead_time, 1.5f);
  EXPECT_EQ(back.channels, req.channels);
  EXPECT_EQ(back.images.data()[3], 4.0f);

  // A consumed slot frees capacity for the next push.
  EXPECT_TRUE(disp.try_push_request(3, MsgType::kInfer, bytes));
  ASSERT_TRUE(work.try_pop_request(&got));
  EXPECT_EQ(got.id, 2u);
  ASSERT_TRUE(work.try_pop_request(&got));
  EXPECT_EQ(got.id, 3u);
  EXPECT_FALSE(work.try_pop_request(&got));  // empty
  // The directions are separate rings: nothing leaked onto the other.
  EXPECT_FALSE(disp.try_pop_response(&got));

  disp.unlink();
}

TEST(ShmRing, ResponseFlowCarriesResultsAndErrors) {
  const std::string name = make_ring_name();
  ShmRing disp = ShmRing::create(name, small_config());
  ShmRing work = ShmRing::open(name);

  const std::vector<std::uint8_t> ok = encode_result(
      {10, Tensor::from_data(Shape{2, 3}, {1, 2, 3, 4, 5, 6})});
  EXPECT_TRUE(work.try_push_response(100, MsgType::kResult, ok));
  const std::vector<std::uint8_t> bad =
      encode_error({11, ErrorCode::kInternal, "boom"});
  EXPECT_TRUE(work.try_push_response(101, MsgType::kError, bad));

  RingMessage got;
  ASSERT_TRUE(disp.try_pop_response(&got));
  EXPECT_EQ(got.id, 100u);
  ASSERT_EQ(got.type, MsgType::kResult);
  const InferResult result =
      decode_result(got.payload.data(), got.payload.size());
  EXPECT_EQ(result.id, 10u);
  ASSERT_EQ(result.pred.shape(), (Shape{2, 3}));
  EXPECT_EQ(result.pred.data()[5], 6.0f);

  ASSERT_TRUE(disp.try_pop_response(&got));
  EXPECT_EQ(got.id, 101u);
  ASSERT_EQ(got.type, MsgType::kError);
  const WireError error = decode_error(got.payload.data(), got.payload.size());
  EXPECT_EQ(error.code, ErrorCode::kInternal);
  EXPECT_EQ(error.message, "boom");
  EXPECT_FALSE(disp.try_pop_response(&got));

  disp.unlink();
}

TEST(ShmRing, MessagesAreBoundedByTheSlotBudget) {
  const std::string name = make_ring_name();
  ShmRing disp = ShmRing::create(name, small_config());
  ShmRing work = ShmRing::open(name);

  // A full-budget message fits exactly; one byte more is refused before
  // it touches shared memory.
  std::vector<std::uint8_t> bytes(disp.max_message_bytes(), 0xab);
  EXPECT_TRUE(disp.try_push_request(1, MsgType::kInfer, bytes));
  bytes.push_back(0);
  EXPECT_THROW(disp.try_push_request(2, MsgType::kInfer, bytes),
               std::exception);

  RingMessage got;
  ASSERT_TRUE(work.try_pop_request(&got));
  EXPECT_EQ(got.payload.size(), disp.max_message_bytes());
  EXPECT_FALSE(work.try_pop_request(&got));

  disp.unlink();
}

TEST(ShmRing, OversizedGeometryIsRefused) {
  // 2^30 floats per slot would overflow the 32-bit slot size field.
  EXPECT_THROW((void)ShmRing::create(make_ring_name(), RingConfig{1, 1u << 30}),
               std::exception);
}

TEST(ShmRing, CorruptSlotLengthPopsAsTypedError) {
  const std::string name = make_ring_name();
  ShmRing disp = ShmRing::create(name, small_config());
  ShmRing work = ShmRing::open(name);
  ASSERT_TRUE(disp.try_push_request(5, MsgType::kInfer, {1, 2, 3}));

  // Play a corrupt producer: rewrite the u32 length of request slot 0
  // (slot layout u64 id | u8 type | pad | u32 length, after the control
  // block) to one byte past the budget.
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  ASSERT_GE(fd, 0);
  struct stat st {};
  ASSERT_EQ(::fstat(fd, &st), 0);
  const std::size_t bytes = static_cast<std::size_t>(st.st_size);
  void* map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  ASSERT_NE(map, MAP_FAILED);
  const std::size_t slot_bytes = 16 + work.max_message_bytes();
  const std::size_t control_block = bytes - 2 * work.slots() * slot_bytes;
  const auto lie = static_cast<std::uint32_t>(work.max_message_bytes() + 1);
  std::memcpy(static_cast<std::uint8_t*>(map) + control_block + 12, &lie, 4);
  ::munmap(map, bytes);

  RingMessage got;
  ASSERT_TRUE(work.try_pop_request(&got));
  EXPECT_EQ(got.id, 5u);
  ASSERT_EQ(got.type, MsgType::kError);
  EXPECT_EQ(decode_error(got.payload.data(), got.payload.size()).code,
            ErrorCode::kInternal);
  EXPECT_FALSE(work.try_pop_request(&got));  // the slot was consumed

  disp.unlink();
}

TEST(ShmRing, LivenessWords) {
  const std::string name = make_ring_name();
  ShmRing disp = ShmRing::create(name, small_config());
  ShmRing work = ShmRing::open(name);

  EXPECT_EQ(disp.heartbeat(), 0u);
  work.beat();
  work.beat();
  EXPECT_EQ(disp.heartbeat(), 2u);

  work.set_state(WorkerState::kReady);
  EXPECT_EQ(disp.state(), WorkerState::kReady);
  disp.set_control(ControlWord::kDrainStop);
  EXPECT_EQ(work.control(), ControlWord::kDrainStop);

  disp.unlink();
}

TEST(ShmRing, CrossThreadSpscStress) {
  const std::string name = make_ring_name();
  ShmRing disp = ShmRing::create(name, small_config());
  ShmRing work = ShmRing::open(name);
  constexpr std::uint64_t kN = 5000;

  // "Worker": decode each request and answer its payload sum as a 1x1
  // result under the client id, the way the real worker echoes it.
  std::thread worker([&] {
    RingMessage msg;
    std::uint64_t served = 0;
    while (served < kN) {
      if (!work.try_pop_request(&msg)) {
        std::this_thread::yield();
        continue;
      }
      const InferRequest req =
          decode_infer(msg.payload.data(), msg.payload.size());
      float sum = 0.0f;
      for (Index i = 0; i < req.images.numel(); ++i)
        sum += req.images.data()[i];
      const std::vector<std::uint8_t> answer =
          encode_result({req.id, Tensor::from_data(Shape{1, 1}, {sum})});
      while (!work.try_push_response(msg.id, MsgType::kResult, answer))
        std::this_thread::yield();
      ++served;
    }
  });

  std::uint64_t pushed = 0, popped = 0;
  RingMessage msg;
  while (popped < kN) {
    if (pushed < kN) {
      const float base = static_cast<float>(pushed);
      const std::vector<std::uint8_t> bytes = encode_infer(
          {pushed + 1000, 1.0f, {},
           Tensor::from_data(Shape{1, 1, 4},
                             {base, base + 1, base + 2, base + 3})});
      if (disp.try_push_request(pushed + 1, MsgType::kInfer, bytes))
        ++pushed;
    }
    while (disp.try_pop_response(&msg)) {
      ++popped;
      EXPECT_EQ(msg.id, popped);  // SPSC preserves order
      const InferResult result =
          decode_result(msg.payload.data(), msg.payload.size());
      EXPECT_EQ(result.id, popped + 999);
      const float base = static_cast<float>(popped - 1);
      ASSERT_EQ(result.pred.numel(), 1);
      EXPECT_FLOAT_EQ(result.pred.data()[0], 4 * base + 6);
    }
  }
  worker.join();
  // Every request consumed, every answer popped.
  EXPECT_FALSE(work.try_pop_request(&msg));
  EXPECT_FALSE(disp.try_pop_response(&msg));
  disp.unlink();
}

}  // namespace
}  // namespace dchag::ingress
