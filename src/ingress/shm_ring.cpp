#include "ingress/shm_ring.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <random>

#include "tensor/check.hpp"

namespace dchag::ingress {

namespace {
constexpr std::uint64_t kMagic = 0x44434841474E4731ull;  // "DCHAGNG1"
constexpr std::uint32_t kVersion = 2;

/// Fixed header in front of every slot's payload bytes.
struct SlotHeader {
  std::uint64_t id;
  std::uint8_t type;  ///< MsgType
  std::uint32_t length;
};
static_assert(sizeof(SlotHeader) == 16, "slot layout is part of kVersion");
}  // namespace

// One SPSC ring's counters, each on its own cache line: head is
// producer-owned, tail consumer-owned.
struct ShmRing::Lane {
  alignas(64) std::atomic<std::uint64_t> head;
  alignas(64) std::atomic<std::uint64_t> tail;
};

// The control block at the start of the segment. Cache-line alignment
// keeps the producer- and consumer-owned counters off each other's lines.
struct alignas(64) ShmRing::Header {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t slots;
  std::uint32_t max_payload_floats;
  std::uint32_t slot_bytes;
  alignas(64) std::atomic<std::uint64_t> heartbeat;
  alignas(64) std::atomic<std::uint32_t> state;
  std::atomic<std::uint32_t> control;
  Lane lanes[2];  ///< [kRequests], [kResponses]
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shm rings need lock-free 64-bit atomics");

std::size_t ShmRing::slot_bytes(const RingConfig& cfg) {
  return sizeof(SlotHeader) + kMaxWireHeaderBytes +
         std::size_t(cfg.max_payload_floats) * 4;
}

std::size_t ShmRing::segment_bytes(const RingConfig& cfg) {
  return sizeof(Header) + 2 * std::size_t(cfg.slots) * slot_bytes(cfg);
}

ShmRing::Header* ShmRing::hdr() const {
  return static_cast<Header*>(map_);
}

std::uint8_t* ShmRing::slot(int lane, std::uint64_t seq) const {
  const Header* h = hdr();
  return static_cast<std::uint8_t*>(map_) + sizeof(Header) +
         (lane * std::size_t(h->slots) + seq % h->slots) * h->slot_bytes;
}

ShmRing ShmRing::create(const std::string& name, RingConfig cfg) {
  DCHAG_CHECK(cfg.slots >= 1 && cfg.max_payload_floats >= 1 &&
                  slot_bytes(cfg) <= UINT32_MAX,
              "ShmRing needs >= 1 slot and a payload budget in [1, 2^30) "
              "floats");
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  DCHAG_CHECK(fd >= 0, "shm_open(" << name << ") failed: "
                                   << std::strerror(errno));
  const std::size_t bytes = segment_bytes(cfg);
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    const int err = errno;
    ::close(fd);
    ::shm_unlink(name.c_str());
    DCHAG_FAIL("ftruncate(" << name << ", " << bytes
                            << ") failed: " << std::strerror(err));
  }
  void* map =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    ::shm_unlink(name.c_str());
    DCHAG_FAIL("mmap(" << name << ") failed: " << std::strerror(errno));
  }

  ShmRing ring;
  ring.name_ = name;
  ring.map_ = map;
  ring.map_bytes_ = bytes;
  ring.creator_ = true;

  Header* h = new (map) Header();
  h->version = kVersion;
  h->slots = cfg.slots;
  h->max_payload_floats = cfg.max_payload_floats;
  h->slot_bytes = static_cast<std::uint32_t>(slot_bytes(cfg));
  h->heartbeat.store(0, std::memory_order_relaxed);
  h->state.store(static_cast<std::uint32_t>(WorkerState::kStarting),
                 std::memory_order_relaxed);
  h->control.store(static_cast<std::uint32_t>(ControlWord::kRun),
                   std::memory_order_relaxed);
  for (Lane& lane : h->lanes) {
    lane.head.store(0, std::memory_order_relaxed);
    lane.tail.store(0, std::memory_order_relaxed);
  }
  // Publish the magic last: an opener that sees it sees a full header.
  std::atomic_thread_fence(std::memory_order_release);
  h->magic = kMagic;
  return ring;
}

ShmRing ShmRing::open(const std::string& name) {
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  DCHAG_CHECK(fd >= 0, "shm_open(" << name << ") failed: "
                                   << std::strerror(errno));
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < off_t(sizeof(Header))) {
    ::close(fd);
    DCHAG_FAIL("shm segment " << name << " truncated or unreadable");
  }
  const std::size_t bytes = static_cast<std::size_t>(st.st_size);
  void* map =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  DCHAG_CHECK(map != MAP_FAILED,
              "mmap(" << name << ") failed: " << std::strerror(errno));

  ShmRing ring;
  ring.name_ = name;
  ring.map_ = map;
  ring.map_bytes_ = bytes;

  Header* h = ring.hdr();
  DCHAG_CHECK(h->magic == kMagic && h->version == kVersion,
              "shm segment " << name << " has wrong magic/version");
  std::atomic_thread_fence(std::memory_order_acquire);
  const RingConfig geometry{h->slots, h->max_payload_floats};
  DCHAG_CHECK(h->slot_bytes == slot_bytes(geometry) &&
                  segment_bytes(geometry) <= bytes,
              "shm segment " << name << " smaller than its own geometry");
  return ring;
}

ShmRing::ShmRing(ShmRing&& other) noexcept { *this = std::move(other); }

ShmRing& ShmRing::operator=(ShmRing&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(map_, map_bytes_);
    name_ = std::move(other.name_);
    map_ = other.map_;
    map_bytes_ = other.map_bytes_;
    creator_ = other.creator_;
    other.map_ = nullptr;
    other.map_bytes_ = 0;
    other.creator_ = false;
  }
  return *this;
}

ShmRing::~ShmRing() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
}

void ShmRing::unlink() {
  if (!name_.empty()) ::shm_unlink(name_.c_str());
}

bool ShmRing::try_push(int lane, std::uint64_t id, MsgType type,
                       const std::vector<std::uint8_t>& payload) {
  DCHAG_CHECK(payload.size() <= max_message_bytes(),
              "ring message of " << payload.size() << " bytes exceeds the "
                                 << max_message_bytes() << "-byte slot");
  Lane& l = hdr()->lanes[lane];
  const std::uint64_t head = l.head.load(std::memory_order_relaxed);
  const std::uint64_t tail = l.tail.load(std::memory_order_acquire);
  if (head - tail >= hdr()->slots) return false;  // full
  std::uint8_t* s = slot(lane, head);
  const SlotHeader sh{id, static_cast<std::uint8_t>(type),
                      static_cast<std::uint32_t>(payload.size())};
  std::memcpy(s, &sh, sizeof(sh));
  if (!payload.empty())
    std::memcpy(s + sizeof(sh), payload.data(), payload.size());
  l.head.store(head + 1, std::memory_order_release);
  return true;
}

bool ShmRing::try_pop(int lane, RingMessage* out) {
  Lane& l = hdr()->lanes[lane];
  const std::uint64_t tail = l.tail.load(std::memory_order_relaxed);
  const std::uint64_t head = l.head.load(std::memory_order_acquire);
  if (tail == head) return false;  // empty
  const std::uint8_t* s = slot(lane, tail);
  SlotHeader sh;
  std::memcpy(&sh, s, sizeof(sh));
  out->id = sh.id;
  if (sh.length <= max_message_bytes()) {
    out->type = static_cast<MsgType>(sh.type);
    out->payload.assign(s + sizeof(sh), s + sizeof(sh) + sh.length);
  } else {
    out->type = MsgType::kError;
    out->payload = encode_error(
        {sh.id, ErrorCode::kInternal, "ring slot length exceeds its budget"});
  }
  l.tail.store(tail + 1, std::memory_order_release);
  return true;
}

void ShmRing::beat() {
  hdr()->heartbeat.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t ShmRing::heartbeat() const {
  return hdr()->heartbeat.load(std::memory_order_relaxed);
}

void ShmRing::set_state(WorkerState s) {
  hdr()->state.store(static_cast<std::uint32_t>(s),
                     std::memory_order_release);
}

WorkerState ShmRing::state() const {
  return static_cast<WorkerState>(
      hdr()->state.load(std::memory_order_acquire));
}

void ShmRing::set_control(ControlWord c) {
  hdr()->control.store(static_cast<std::uint32_t>(c),
                       std::memory_order_release);
}

ControlWord ShmRing::control() const {
  return static_cast<ControlWord>(
      hdr()->control.load(std::memory_order_acquire));
}

std::uint32_t ShmRing::slots() const { return hdr()->slots; }

std::size_t ShmRing::max_message_bytes() const {
  return hdr()->slot_bytes - sizeof(SlotHeader);
}

std::string make_ring_name() {
  static std::atomic<std::uint64_t> seq{0};
  static const std::uint64_t salt = [] {
    std::random_device rd;
    return (std::uint64_t(rd()) << 32) ^ rd();
  }();
  char buf[96];
  std::snprintf(buf, sizeof(buf), "/dchag_ing_%d_%llu_%llx",
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(
                    seq.fetch_add(1, std::memory_order_relaxed)),
                static_cast<unsigned long long>(salt & 0xffffffffull));
  return buf;
}

}  // namespace dchag::ingress
