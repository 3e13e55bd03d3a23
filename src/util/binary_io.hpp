// Little-endian byte codec and FNV-1a hashing shared by the sweep
// persistence layer (scenario fingerprints, cached ExperimentResult files).
//
// The writer appends fixed-width words into a std::string buffer; the reader
// walks a string_view and never throws — an overrun or short buffer flips a
// sticky ok() flag and every subsequent read returns zero, so callers
// validate once at the end (corrupt cache files must fall back to
// re-simulation, not crash). Doubles travel as their IEEE bit patterns, which
// is what makes cache hits bit-identical to fresh runs.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace ebrc::util {

class ByteWriter {
 public:
  void u64(std::uint64_t v) {
    char raw[8];
    for (int i = 0; i < 8; ++i) raw[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    buf_.append(raw, 8);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s.data(), s.size());
  }

  [[nodiscard]] const std::string& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::string take() noexcept { return std::move(buf_); }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) noexcept : p_(bytes.data()), end_(p_ + bytes.size()) {}

  std::uint64_t u64() noexcept {
    if (end_ - p_ < 8) {
      ok_ = false;
      p_ = end_;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p_[i])) << (8 * i);
    }
    p_ += 8;
    return v;
  }
  std::int64_t i64() noexcept { return static_cast<std::int64_t>(u64()); }
  double f64() noexcept { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint64_t n = u64();
    if (!ok_ || static_cast<std::uint64_t>(end_ - p_) < n) {
      ok_ = false;
      p_ = end_;
      return {};
    }
    std::string s(p_, n);
    p_ += n;
    return s;
  }

  /// False once any read ran past the end of the buffer.
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// True when every byte has been consumed (trailing garbage = corruption).
  [[nodiscard]] bool exhausted() const noexcept { return p_ == end_; }
  /// Bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - p_);
  }

 private:
  const char* p_;
  const char* end_;
  bool ok_ = true;
};

/// Incremental FNV-1a over heterogeneous fields. Scalars are folded as their
/// fixed-width byte patterns, strings length-prefixed (so {"ab","c"} and
/// {"a","bc"} hash differently).
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) noexcept { bytes(&v, 8); }
  void i64(std::int64_t v) noexcept { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) noexcept {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

}  // namespace ebrc::util
