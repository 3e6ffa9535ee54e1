// The worker's ring adapter, driven in-process through worker_main: a
// ring already holding requests and set to kDrainStop is fully answered
// through the worker's serve::Server before worker_main returns 0 — one
// response per request id, each bit-exact to a batch-1 forward of the
// same checkpoint, whatever batch it rode in, and a request the wire
// codec rejects answered with a kInternal error instead of a dead worker.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "ingress/shm_ring.hpp"
#include "ingress_test_util.hpp"

namespace dchag::ingress {
namespace {

struct Sent {
  std::vector<Index> channels;
  Tensor images;
};

TEST(WorkerLoop, DrainsItsRingBitExactlyThroughTheServer) {
  testutil::TrainedModel trained;
  RingConfig rc;
  rc.slots = 4;
  ShmRing ring = ShmRing::create(make_ring_name(), rc);

  // Three full-channel requests and one on the {1, 3} subset lane.
  std::map<std::uint64_t, Sent> sent;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    Sent s;
    if (id == 2) s.channels = {1, 3};
    s.images = testutil::sample_image(
        40 + id, s.channels.empty() ? testutil::kChannels
                                    : static_cast<Index>(s.channels.size()));
    // Ring id `id`, client id `id + 100`: the answer must echo the latter.
    ASSERT_TRUE(ring.try_push_request(
        id, MsgType::kInfer,
        encode_infer({id + 100, 1.0f, s.channels, s.images})));
    sent.emplace(id, std::move(s));
  }
  ring.set_control(ControlWord::kDrainStop);

  const testutil::WorkerRun run = testutil::run_worker_main(
      {ring.name(), testutil::tiny_spec().serialize(), trained.checkpoint,
       "0"});
  ring.unlink();
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_EQ(ring.state(), WorkerState::kStopped);

  RingMessage msg;
  EXPECT_FALSE(ring.try_pop_request(&msg));  // every request consumed
  std::map<std::uint64_t, int> answers;
  while (ring.try_pop_response(&msg)) {
    ++answers[msg.id];
    ASSERT_EQ(msg.type, MsgType::kResult)
        << decode_error(msg.payload.data(), msg.payload.size()).message;
    const InferResult result =
        decode_result(msg.payload.data(), msg.payload.size());
    EXPECT_EQ(result.id, msg.id + 100);
    const Sent& s = sent.at(msg.id);
    testutil::expect_bit_exact(result.pred,
                               trained.reference(s.images, s.channels));
  }
  EXPECT_EQ(answers,
            (std::map<std::uint64_t, int>{{1, 1}, {2, 1}, {3, 1}, {4, 1}}));
}

TEST(WorkerLoop, UndecodableRequestsGetInternalErrors) {
  testutil::TrainedModel trained;
  RingConfig rc;
  rc.slots = 4;
  ShmRing ring = ShmRing::create(make_ring_name(), rc);

  const Tensor images = testutil::sample_image(50);
  std::vector<std::uint8_t> good = encode_infer({7, 1.0f, {}, images});
  std::vector<std::uint8_t> truncated(good.begin(), good.end() - 1);
  ASSERT_TRUE(ring.try_push_request(1, MsgType::kInfer, truncated));
  ASSERT_TRUE(ring.try_push_request(2, MsgType::kInfer, good));
  ASSERT_TRUE(ring.try_push_request(3, MsgType::kResult, good));
  ring.set_control(ControlWord::kDrainStop);

  const testutil::WorkerRun run = testutil::run_worker_main(
      {ring.name(), testutil::tiny_spec().serialize(), trained.checkpoint,
       "0"});
  ring.unlink();
  ASSERT_EQ(run.code, 0) << run.err;

  std::map<std::uint64_t, MsgType> answers;
  RingMessage msg;
  while (ring.try_pop_response(&msg)) {
    answers[msg.id] = msg.type;
    if (msg.type == MsgType::kError) {
      EXPECT_EQ(decode_error(msg.payload.data(), msg.payload.size()).code,
                ErrorCode::kInternal);
    } else {
      testutil::expect_bit_exact(
          decode_result(msg.payload.data(), msg.payload.size()).pred,
          trained.reference(images));
    }
  }
  EXPECT_EQ(answers, (std::map<std::uint64_t, MsgType>{
                         {1, MsgType::kError},
                         {2, MsgType::kResult},
                         {3, MsgType::kError}}));
}

}  // namespace
}  // namespace dchag::ingress
