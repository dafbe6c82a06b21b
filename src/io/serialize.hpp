#pragma once
/// \file serialize.hpp
/// \brief Deterministic little-endian byte (de)serialization for the
/// checkpoint subsystem.
///
/// Every value is written field by field — never by memcpy'ing whole structs
/// — because struct padding bytes are indeterminate and would make the
/// checkpoint file (and its CRC) differ between two bitwise-identical
/// simulation states. Doubles travel as their IEEE-754 bit pattern
/// (std::bit_cast), so NaN payloads and signed zeros round-trip exactly.
///
/// A field's C++ type picks its wire primitive, identically in both
/// directions:
///
///     double                     f64 (IEEE bit pattern as u64)
///     bool, uint8_t, any enum    u8
///     int / int32_t              i32      uint32_t            u32
///     long / int64_t             i64      uint64_t / size_t   u64
///     Vec3d                      3 x f64
///     std::string, std::vector   u64 length, then the elements
///
/// A record (a struct that is not a primitive) is written and read through
/// ONE field list: a function template `fields(Io& io, Rec& rec)` that calls
/// `io(rec.a, rec.b, ...)`, where `Io` is ByteWriter or ByteReader and `Rec`
/// is `const T` or `T` (see the `Record` concept). It lives in the record's
/// namespace or in asura::io, where argument-dependent lookup finds it from
/// either codec. A reader therefore cannot disagree with its writer.

#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "util/vec3.hpp"

namespace asura::io {

/// Byte-at-a-time lookup table of the CRC-32 below, built at compile time.
inline constexpr auto kCrc32Table = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int b = 0; b < 8; ++b) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    table[i] = c;
  }
  return table;
}();

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). Table-driven: a
/// restore checks every section of the file on every rank.
inline std::uint32_t crc32(const void* data, std::size_t n,
                           std::uint32_t seed = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < n; ++i) crc = (crc >> 8) ^ kCrc32Table[(crc ^ p[i]) & 0xffu];
  return ~crc;
}

/// `Rec` is `T` (reading) or `const T` (writing): the constraint of a
/// record's field-list template, so one body serves both directions.
template <class Rec, class T>
concept Record = std::same_as<std::remove_const_t<Rec>, T>;

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  /// Append every argument in order, each through the type map above.
  template <class... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }

  void put(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void put(bool v) { put(static_cast<std::uint8_t>(v ? 1 : 0)); }
  void put(std::uint32_t v) { putLe<4>(v); }
  void put(std::int32_t v) { putLe<4>(static_cast<std::uint32_t>(v)); }
  void put(std::uint64_t v) { putLe<8>(v); }
  void put(std::int64_t v) { putLe<8>(static_cast<std::uint64_t>(v)); }
  void put(double v) { putLe<8>(std::bit_cast<std::uint64_t>(v)); }
  template <class E>
    requires std::is_enum_v<E>
  void put(E v) {
    put(static_cast<std::uint8_t>(v));
  }
  void put(const util::Vec3d& v) { (*this)(v.x, v.y, v.z); }
  void put(const std::string& s) {
    put(static_cast<std::uint64_t>(s.size()));
    putBytes(s.data(), s.size());
  }
  template <class T>
  void put(const std::vector<T>& v) {
    put(static_cast<std::uint64_t>(v.size()));
    for (const auto& e : v) put(e);
  }
  template <class T>
    requires requires(ByteWriter& w, const T& rec) { fields(w, rec); }
  void put(const T& rec) {
    fields(*this, rec);
  }

  void putBytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const char*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  [[nodiscard]] const std::vector<char>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<char> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <int N>
  void putLe(std::uint64_t v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + N);
    for (int i = 0; i < N; ++i) buf_[at + i] = static_cast<char>((v >> (8 * i)) & 0xffu);
  }

  std::vector<char> buf_;
};

/// Bounds-checked little-endian byte source; any underrun throws instead of
/// reading garbage (a truncated checkpoint must fail loudly).
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t n) : data_(data), n_(n) {}

  /// Overwrite every argument in order, each through the type map above.
  template <class... T>
  void operator()(T&... v) {
    (get(v), ...);
  }

  /// Read one value of type T.
  template <class T>
  [[nodiscard]] T read() {
    T v{};
    get(v);
    return v;
  }

  void get(std::uint8_t& v) {
    need(1);
    v = static_cast<std::uint8_t>(data_[pos_++]);
  }
  void get(bool& v) { v = read<std::uint8_t>() != 0; }
  void get(std::uint32_t& v) { v = static_cast<std::uint32_t>(getLe<4>()); }
  void get(std::int32_t& v) { v = static_cast<std::int32_t>(getLe<4>()); }
  void get(std::uint64_t& v) { v = getLe<8>(); }
  void get(std::int64_t& v) { v = static_cast<std::int64_t>(getLe<8>()); }
  void get(double& v) { v = std::bit_cast<double>(getLe<8>()); }
  template <class E>
    requires std::is_enum_v<E>
  void get(E& v) {
    v = static_cast<E>(read<std::uint8_t>());
  }
  void get(util::Vec3d& v) { (*this)(v.x, v.y, v.z); }
  void get(std::string& s) {
    const auto n = length();
    s.assign(data_ + pos_, n);
    pos_ += n;
  }
  template <class T>
  void get(std::vector<T>& v) {
    v.resize(length());
    for (auto& e : v) get(e);
  }
  template <class T>
    requires requires(ByteReader& r, T& rec) { fields(r, rec); }
  void get(T& rec) {
    fields(*this, rec);
  }

  /// Step over `n` bytes (framing walkers that do not parse the payload).
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

  [[nodiscard]] std::size_t remaining() const { return n_ - pos_; }

 private:
  void need(std::size_t n) const {
    if (n_ - pos_ < n) throw std::runtime_error("checkpoint: truncated payload");
  }

  template <int N>
  std::uint64_t getLe() {
    need(N);
    std::uint64_t v = 0;
    for (int i = 0; i < N; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_++])) << (8 * i);
    }
    return v;
  }

  /// A string or vector length. Sanity bound: every element takes at least
  /// one byte, so a corrupt length must not drive a multi-GB allocation
  /// before the element reads run into the underrun check.
  std::size_t length() {
    const auto n = read<std::uint64_t>();
    if (n > remaining()) {
      throw std::runtime_error("checkpoint: length field exceeds payload");
    }
    return static_cast<std::size_t>(n);
  }

  const char* data_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

}  // namespace asura::io
