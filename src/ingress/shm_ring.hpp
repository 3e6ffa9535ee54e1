// POSIX shared-memory ring pair connecting the dispatcher to one worker
// process: an SPSC request ring (dispatcher produces, worker consumes) and
// an SPSC response ring (worker produces, dispatcher consumes), plus the
// liveness words health monitoring reads:
//
//   * heartbeat — the worker increments it on every loop tick; a stalled
//     counter with work in flight means a hung (not dead) worker.
//   * state    — kStarting -> kReady -> kDraining -> kStopped.
//   * control  — dispatcher-owned command word; kDrainStop tells the
//     worker to finish its ring and exit cleanly.
//
// One segment per worker: a crashing worker can only corrupt its own
// rings, and respawn is "new segment, new generation". The dispatcher is
// the creator/unlinker; the worker opens by name (passed via argv).
//
// The rings are a transport for opaque messages. A slot holds
//
//   u64 ring id | u8 MsgType | u32 length | payload[length]
//
// where the payload is a wire-codec payload (wire.hpp): kInfer requests,
// kResult/kError answers. The ring never parses a payload; the consumer
// decodes it with the same bounds-checked codec the socket uses. Slots are
// fixed-size (header + max_message_bytes), so pushes never allocate in
// shared memory and a torn writer cannot move another slot's boundaries.
// Head/tail are monotonic counters; `head - tail` is the occupancy and
// slot index is `counter % slots`.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "ingress/wire.hpp"

namespace dchag::ingress {

struct RingConfig {
  std::uint32_t slots = 4;  ///< per-direction slot count (also the max
                            ///< requests in flight inside one worker)
  std::uint32_t max_payload_floats = 1u << 16;  ///< per-slot tensor budget
};

enum class WorkerState : std::uint32_t {
  kStarting = 0,  ///< process spawned, model still loading
  kReady = 1,     ///< serving the request ring
  kDraining = 2,  ///< finishing the ring after kDrainStop
  kStopped = 3,   ///< clean exit imminent
};

enum class ControlWord : std::uint32_t {
  kRun = 0,
  kDrainStop = 1,  ///< finish queued requests, then exit(0)
};

/// One ring message: a wire-codec payload tagged with its type and the
/// dispatcher's ring id (not the client id inside the payload).
struct RingMessage {
  std::uint64_t id = 0;
  MsgType type{};
  std::vector<std::uint8_t> payload;
};

class ShmRing {
 public:
  /// Dispatcher side: creates and maps a fresh segment (O_EXCL — a stale
  /// segment with the same name is an error; scripts/check.sh sweeps
  /// strays from interrupted runs).
  [[nodiscard]] static ShmRing create(const std::string& name,
                                      RingConfig cfg);
  /// Worker side: opens and maps an existing segment, validating magic,
  /// version, and geometry.
  [[nodiscard]] static ShmRing open(const std::string& name);

  ShmRing(ShmRing&& other) noexcept;
  ShmRing& operator=(ShmRing&& other) noexcept;
  ShmRing(const ShmRing&) = delete;
  ShmRing& operator=(const ShmRing&) = delete;
  ~ShmRing();  ///< unmaps; does NOT unlink (creator calls unlink()).

  /// Removes the name from /dev/shm; mappings stay valid until unmapped.
  void unlink();

  // --- dispatcher side -----------------------------------------------------
  /// False when the request ring is full (caller keeps the job queued).
  bool try_push_request(std::uint64_t id, MsgType type,
                        const std::vector<std::uint8_t>& payload) {
    return try_push(kRequests, id, type, payload);
  }
  /// Pops one worker answer; false when none pending.
  bool try_pop_response(RingMessage* out) {
    return try_pop(kResponses, out);
  }

  // --- worker side ---------------------------------------------------------
  bool try_pop_request(RingMessage* out) { return try_pop(kRequests, out); }
  bool try_push_response(std::uint64_t id, MsgType type,
                         const std::vector<std::uint8_t>& payload) {
    return try_push(kResponses, id, type, payload);
  }

  // --- liveness / control --------------------------------------------------
  void beat();
  [[nodiscard]] std::uint64_t heartbeat() const;
  void set_state(WorkerState s);
  [[nodiscard]] WorkerState state() const;
  void set_control(ControlWord c);
  [[nodiscard]] ControlWord control() const;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint32_t slots() const;
  /// Largest payload one slot holds: RingConfig::max_payload_floats of
  /// tensor data plus the wire header allowance (kMaxWireHeaderBytes).
  [[nodiscard]] std::size_t max_message_bytes() const;

 private:
  ShmRing() = default;
  struct Header;
  struct Lane;
  static constexpr int kRequests = 0;   ///< dispatcher -> worker
  static constexpr int kResponses = 1;  ///< worker -> dispatcher
  [[nodiscard]] static std::size_t slot_bytes(const RingConfig& cfg);
  [[nodiscard]] static std::size_t segment_bytes(const RingConfig& cfg);
  [[nodiscard]] Header* hdr() const;
  [[nodiscard]] std::uint8_t* slot(int lane, std::uint64_t seq) const;
  /// The one producer body both directions share. Throws when the
  /// payload exceeds max_message_bytes().
  bool try_push(int lane, std::uint64_t id, MsgType type,
                const std::vector<std::uint8_t>& payload);
  /// The one consumer body both directions share. A slot whose length
  /// exceeds the budget pops as a kInternal kError payload, so even a
  /// corrupt producer leaves one typed answer per id.
  bool try_pop(int lane, RingMessage* out);

  std::string name_;
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  bool creator_ = false;
};

/// Globally-unique segment name: "/dchag_ing_<pid>_<seq>_<rand>". The
/// prefix is load-bearing — scripts/check.sh sweeps /dev/shm/dchag_ing_*
/// left behind by interrupted runs.
[[nodiscard]] std::string make_ring_name();

}  // namespace dchag::ingress
