// A vector of trivially copyable values that keeps up to N of them
// inline. The system log holds four short arrays per entry (objects and
// values read and written, usually one or two each); a heap block per
// array would cost more memory than the data it holds.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

namespace selfheal::util {

template <typename T, std::size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(N > 0);

 public:
  using value_type = T;
  using size_type = std::size_t;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() noexcept = default;
  SmallVector(const SmallVector& other) { assign(other); }
  SmallVector(SmallVector&& other) noexcept { take(other); }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) assign(other);
    return *this;
  }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  ~SmallVector() { release(); }

  /// Replaces the contents with a copy of `values`.
  void assign(std::span<const T> values) {
    size_ = 0;
    reserve(values.size());
    if (!values.empty()) std::memmove(data(), values.data(), values.size_bytes());
    size_ = static_cast<std::uint32_t>(values.size());
  }

  void reserve(std::size_t n) {
    if (n <= capacity()) return;
    T* grown = new T[n];
    if (size_ > 0) std::memcpy(grown, data(), size_ * sizeof(T));
    const auto size = size_;
    release();
    heap_ = grown;
    capacity_ = static_cast<std::uint32_t>(n);
    size_ = size;
  }

  void push_back(T value) {
    if (size_ == capacity()) reserve(2 * capacity());
    data()[size_++] = value;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] T* data() noexcept { return on_heap() ? heap_ : inline_; }
  [[nodiscard]] const T* data() const noexcept { return on_heap() ? heap_ : inline_; }
  [[nodiscard]] T* begin() noexcept { return data(); }
  [[nodiscard]] T* end() noexcept { return data() + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data(); }
  [[nodiscard]] const T* end() const noexcept { return data() + size_; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data()[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return data()[i]; }

  operator std::span<const T>() const noexcept { return {data(), size_}; }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  [[nodiscard]] bool on_heap() const noexcept { return capacity_ > N; }

  void release() noexcept {
    if (on_heap()) delete[] heap_;
    capacity_ = N;
    size_ = 0;
  }

  /// Moves `other`'s contents here (this must hold no heap block).
  void take(SmallVector& other) noexcept {
    if (other.on_heap()) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
    } else {
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
    }
    size_ = other.size_;
    other.capacity_ = N;
    other.size_ = 0;
  }

  union {
    T inline_[N]{};
    T* heap_;
  };
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
};

}  // namespace selfheal::util
