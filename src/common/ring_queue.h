#ifndef TPART_COMMON_RING_QUEUE_H_
#define TPART_COMMON_RING_QUEUE_H_

#include <cassert>
#include <cstddef>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>

namespace tpart {

/// FIFO over one power-of-two ring buffer that keeps its capacity
/// (DESIGN.md §4h). libstdc++'s std::deque allocates a 512-byte node per
/// 512 / sizeof(T) elements, so one node per element once an element
/// exceeds 256 bytes, and a queue cycling through a steady window of
/// specs, plans or T-graph edges allocated and freed all the time. Here
/// a push allocates only when the ring is full (the buffer doubles), and
/// a pop destroys the element in place, releasing whatever it owns.
///
/// The std::deque subset the hot-path FIFOs use: push at the back, pop
/// (or drop a prefix) at the front, index from the front, iterate front
/// to back. A reference stays valid until its element is popped or a
/// push grows the ring; an iterator is a position counted from the
/// front, so any push or pop invalidates it.
template <typename T>
class RingQueue {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "growing the ring moves elements and must not throw");

  template <bool kConst>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<kConst, const T*, T*>;
    using reference = std::conditional_t<kConst, const T&, T&>;
    using Ring = std::conditional_t<kConst, const RingQueue, RingQueue>;

    Iter() = default;
    Iter(Ring* ring, std::size_t i) : ring_(ring), i_(i) {}
    reference operator*() const { return (*ring_)[i_]; }
    pointer operator->() const { return &(*ring_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    Iter operator++(int) {
      Iter old = *this;
      ++i_;
      return old;
    }
    bool operator==(const Iter& o) const { return i_ == o.i_; }

   private:
    Ring* ring_ = nullptr;
    std::size_t i_ = 0;
  };

 public:
  using value_type = T;
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  RingQueue() = default;
  RingQueue(const RingQueue&) = delete;
  RingQueue& operator=(const RingQueue&) = delete;
  RingQueue(RingQueue&& o) noexcept
      : buf_(std::exchange(o.buf_, nullptr)),
        mask_(std::exchange(o.mask_, 0)),
        head_(std::exchange(o.head_, 0)),
        size_(std::exchange(o.size_, 0)) {}
  RingQueue& operator=(RingQueue&& o) noexcept {
    RingQueue old(std::move(*this));
    buf_ = std::exchange(o.buf_, nullptr);
    mask_ = std::exchange(o.mask_, 0);
    head_ = std::exchange(o.head_, 0);
    size_ = std::exchange(o.size_, 0);
    return *this;
  }
  ~RingQueue() {
    clear();
    Deallocate();
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Slots in the buffer: 0 or a power of two.
  std::size_t capacity() const { return buf_ == nullptr ? 0 : mask_ + 1; }

  /// The element `i` places behind the front.
  T& operator[](std::size_t i) {
    assert(i < size_);
    return buf_[(head_ + i) & mask_];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return buf_[(head_ + i) & mask_];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity()) {
      Reallocate(size_ == 0 ? kMinCapacity : 2 * size_);
    }
    T* slot = buf_ + ((head_ + size_) & mask_);
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_front() { erase_front(1); }
  /// Destroys the first `n` elements (at most size()).
  void erase_front(std::size_t n) {
    assert(n <= size_);
    for (std::size_t i = 0; i < n; ++i) {
      std::destroy_at(buf_ + head_);
      head_ = (head_ + 1) & mask_;
    }
    size_ -= n;
    if (size_ == 0) head_ = 0;
  }
  /// Destroys every element; the buffer stays.
  void clear() { erase_front(size_); }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  // Moves the elements, in order, to the front of a fresh buffer of
  // `slots` (a power of two no smaller than size_).
  void Reallocate(std::size_t slots) {
    if (slots == 0) return;
    T* fresh = std::allocator<T>().allocate(slots);
    for (std::size_t i = 0; i < size_; ++i) {
      T& v = (*this)[i];
      ::new (static_cast<void*>(fresh + i)) T(std::move(v));
      std::destroy_at(&v);
    }
    Deallocate();
    buf_ = fresh;
    mask_ = slots - 1;
    head_ = 0;
  }
  void Deallocate() {
    if (buf_ != nullptr) std::allocator<T>().deallocate(buf_, mask_ + 1);
    buf_ = nullptr;
    mask_ = 0;
  }

  T* buf_ = nullptr;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace tpart

#endif  // TPART_COMMON_RING_QUEUE_H_
