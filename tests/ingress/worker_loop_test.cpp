// The worker's ring adapter, driven in-process through worker_main: a
// ring already holding requests and set to kDrainStop is fully answered
// through the worker's serve::Server before worker_main returns 0 — one
// response per request id, each bit-exact to a batch-1 forward of the
// same checkpoint, whatever batch it rode in.
#include <gtest/gtest.h>

#include <algorithm>
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
    RingRequest req;
    req.id = id;
    req.n_channels = static_cast<std::uint32_t>(s.channels.size());
    std::copy(s.channels.begin(), s.channels.end(), req.channels);
    req.c = s.images.dim(0);
    req.h = s.images.dim(1);
    req.w = s.images.dim(2);
    ASSERT_TRUE(ring.try_push_request(
        req, s.images.data(), static_cast<std::size_t>(s.images.numel())));
    sent.emplace(id, std::move(s));
  }
  ring.set_control(ControlWord::kDrainStop);

  const testutil::WorkerRun run = testutil::run_worker_main(
      {ring.name(), testutil::tiny_spec().serialize(), trained.checkpoint,
       "0"});
  ring.unlink();
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_EQ(ring.state(), WorkerState::kStopped);
  EXPECT_EQ(ring.request_backlog(), 0u);

  std::map<std::uint64_t, int> answers;
  RingResponse resp;
  std::vector<float> payload;
  std::string error;
  while (ring.try_pop_response(&resp, &payload, &error)) {
    ++answers[resp.id];
    ASSERT_EQ(resp.status, 0u) << error;
    const Sent& s = sent.at(resp.id);
    testutil::expect_bit_exact(
        Tensor::from_data(tensor::Shape{resp.s, resp.d}, payload),
        trained.reference(s.images, s.channels));
  }
  EXPECT_EQ(answers,
            (std::map<std::uint64_t, int>{{1, 1}, {2, 1}, {3, 1}, {4, 1}}));
}

}  // namespace
}  // namespace dchag::ingress
