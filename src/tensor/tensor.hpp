// Dense float32 tensor with shared-buffer reference semantics.
//
// Copying a Tensor aliases the same storage (like torch tensors); use
// clone() for a deep copy. All tensors are contiguous row-major, which
// keeps every kernel a flat loop and makes reshape() free.
//
// Storage is 32-byte aligned (tensor/align.hpp) and acquired through
// plan::detail::acquire_buffer, so a serving thread running under a
// plan::ArenaScope transparently reuses pooled buffers instead of
// touching the heap — no per-op changes anywhere else in the codebase.
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "tensor/align.hpp"
#include "tensor/plan.hpp"
#include "tensor/shape.hpp"

namespace dchag::tensor {

namespace detail {
/// Process-wide ledger of tensor bytes allocated since the last reset.
/// Lets tests census the activation memory of a forward pass and compare
/// it against hw::estimate_memory's analytic terms.
inline std::atomic<std::uint64_t> g_bytes_allocated{0};
}  // namespace detail

[[nodiscard]] inline std::uint64_t bytes_allocated() {
  return detail::g_bytes_allocated.load(std::memory_order_relaxed);
}
inline void reset_allocation_ledger() {
  detail::g_bytes_allocated.store(0, std::memory_order_relaxed);
}

class Tensor {
 public:
  /// Empty (rank-0 buffer-less) tensor; numel() == 1 shapes still allocate.
  Tensor() = default;

  /// Zero-initialised tensor of the given shape.
  explicit Tensor(Shape shape)
      : buf_(plan::detail::acquire_buffer(shape.numel())),
        shape_(std::move(shape)) {
    record_allocation();
  }

  Tensor(Shape shape, float fill)
      : buf_(plan::detail::acquire_buffer_raw(shape.numel())),
        shape_(std::move(shape)) {
    std::fill(buf_->begin(), buf_->end(), fill);
    record_allocation();
  }

  /// Copies `data` into aligned storage; size must equal shape.numel().
  static Tensor from_data(Shape shape, const std::vector<float>& data) {
    DCHAG_CHECK(static_cast<Index>(data.size()) == shape.numel(),
                "data size " << data.size() << " != numel of "
                             << shape.to_string());
    Tensor t;
    t.buf_ = plan::detail::acquire_buffer_raw(shape.numel());
    std::copy(data.begin(), data.end(), t.buf_->begin());
    t.shape_ = std::move(shape);
    t.record_allocation();
    return t;
  }

  static Tensor scalar(float v) { return from_data(Shape{1}, {v}); }

  [[nodiscard]] bool defined() const { return buf_ != nullptr; }
  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] Index numel() const { return shape_.numel(); }
  [[nodiscard]] Index rank() const { return shape_.rank(); }
  [[nodiscard]] Index dim(Index i) const { return shape_.dim(i); }

  [[nodiscard]] float* data() { return buf_->data() + offset_; }
  [[nodiscard]] const float* data() const { return buf_->data() + offset_; }
  [[nodiscard]] std::span<float> span() {
    return {data(), static_cast<std::size_t>(numel())};
  }
  [[nodiscard]] std::span<const float> span() const {
    return {data(), static_cast<std::size_t>(numel())};
  }

  /// Element accessors for tests / debugging (O(rank) index math).
  [[nodiscard]] float at(std::initializer_list<Index> idx) const {
    return data()[flat_index(idx)];
  }
  void set(std::initializer_list<Index> idx, float v) {
    data()[flat_index(idx)] = v;
  }
  /// Scalar value of a 1-element tensor.
  [[nodiscard]] float item() const {
    DCHAG_CHECK(numel() == 1, "item() on tensor " << shape_.to_string());
    return data()[0];
  }

  [[nodiscard]] Tensor clone() const {
    Tensor t;
    t.buf_ = plan::detail::acquire_buffer_raw(numel());
    std::copy(span().begin(), span().end(), t.buf_->begin());
    t.shape_ = shape_;
    t.record_allocation();
    return t;
  }

  /// Reinterpret with a new shape of equal numel; shares storage.
  [[nodiscard]] Tensor reshape(Shape s) const {
    DCHAG_CHECK(s.numel() == numel(), "reshape " << shape_.to_string()
                                                 << " -> " << s.to_string());
    Tensor t = *this;
    t.shape_ = std::move(s);
    return t;
  }

  /// Zero-copy slice along dimension 0: rows [start, start+len).
  [[nodiscard]] Tensor slice0(Index start, Index len) const {
    DCHAG_CHECK(rank() >= 1 && start >= 0 && len >= 0 &&
                    start + len <= dim(0),
                "slice0(" << start << ", " << len << ") on "
                          << shape_.to_string());
    Tensor t = *this;
    t.offset_ = offset_ + start * shape_.stride(0);
    t.shape_ = shape_.with_dim(0, len);
    return t;
  }

  [[nodiscard]] bool same_storage(const Tensor& o) const {
    return buf_ == o.buf_;
  }

  /// True when no other Tensor shares this one's buffer and this one
  /// views all of it, so handing the buffer over aliases nothing.
  [[nodiscard]] bool sole_owner() const {
    return buf_ != nullptr && buf_.use_count() == 1 && offset_ == 0 &&
           static_cast<Index>(buf_->size()) == numel();
  }

  void fill(float v) {
    for (float& x : span()) x = v;
  }
  void zero() { fill(0.0f); }

 private:
  void record_allocation() const {
    detail::g_bytes_allocated.fetch_add(
        static_cast<std::uint64_t>(numel()) * sizeof(float),
        std::memory_order_relaxed);
  }

  [[nodiscard]] Index flat_index(std::initializer_list<Index> idx) const {
    DCHAG_CHECK(static_cast<Index>(idx.size()) == rank(),
                "index rank mismatch for " << shape_.to_string());
    Index flat = 0;
    Index d = 0;
    for (Index i : idx) {
      DCHAG_CHECK(i >= 0 && i < shape_.dim(d),
                  "index " << i << " out of bounds in dim " << d << " of "
                           << shape_.to_string());
      flat += i * shape_.stride(d);
      ++d;
    }
    return flat;
  }

  std::shared_ptr<AlignedVec> buf_;
  Index offset_ = 0;
  Shape shape_;
};

}  // namespace dchag::tensor
