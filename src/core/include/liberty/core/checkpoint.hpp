// Durable checkpoint serialization: the byte-level substrate under the
// resil DurableSupervisor (docs/resilience.md, "Durable checkpoints").
//
// A KernelSnapshot is an in-process object graph: per-module Value slots
// that may share immutable Payload objects by pointer.  To survive process
// death those slots must become bytes and come back — across builds,
// compilers, and optimization levels.  Three pieces make that work:
//
//   ByteWriter / ByteReader   little-endian fixed-width primitives with
//                             length-prefixed strings; the reader throws
//                             SimulationError on underflow so torn input
//                             can never be silently misparsed.
//   payload codec registry    component libraries register an
//                             encoder/decoder pair per Payload subclass
//                             under a stable wire name ("ccl.flit", ...).
//                             Registration rides the existing register_*()
//                             entry points, so linking a library makes its
//                             payloads durable.  Encoding a payload with no
//                             codec throws — the durable layer degrades to
//                             "no checkpoint this run" with a diagnostic
//                             rather than writing an unreadable file.
//   checkpoint format v1      a versioned container: magic, version, body
//                             length, netlist topology hash, cycle, stop
//                             flag, aux seed, per-module slot vectors
//                             (module Rng state rides in the slots via
//                             save_rng), the per-cycle trace-hash prefix
//                             (so a resumed run can reproduce the full-run
//                             trace digest), and a trailing CRC32 over
//                             everything before it.  parse_checkpoint
//                             rejects — with a reason, never an exception —
//                             anything truncated, bit-flipped, version-
//                             skewed, or undecodable, any count the
//                             remaining bytes cannot hold, and payloads
//                             nested deeper than ByteReader::kMaxNesting.
//
// The topology hash (Netlist::topology_hash) is structural — instance
// names, endpoint refs, ack modes, quarantine state — deliberately not
// typeid names, so the same model hashes identically under different
// compilers and a golden checkpoint stays loadable forever.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <typeindex>
#include <vector>

#include "liberty/core/simulator.hpp"
#include "liberty/core/types.hpp"
#include "liberty/support/value.hpp"

namespace liberty::core {

// --- byte-level primitives -------------------------------------------------

class ByteWriter {
 public:
  void put_u8(std::uint8_t x) { buf_.push_back(static_cast<char>(x)); }
  void put_u16(std::uint16_t x) { put_le(x, 2); }
  void put_u32(std::uint32_t x) { put_le(x, 4); }
  void put_u64(std::uint64_t x) { put_le(x, 8); }
  void put_i64(std::int64_t x) { put_u64(static_cast<std::uint64_t>(x)); }
  void put_real(double x);
  void put_bytes(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }
  /// u32 length prefix + raw bytes.
  void put_string(std::string_view s);

  [[nodiscard]] const std::string& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::string take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

  /// Overwrite 8 bytes at `at` (body-length backpatching).
  void patch_u64(std::size_t at, std::uint64_t x);

 private:
  void put_le(std::uint64_t x, int n) {
    for (int i = 0; i < n; ++i) {
      buf_.push_back(static_cast<char>((x >> (8 * i)) & 0xffU));
    }
  }
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint16_t get_u16() {
    return static_cast<std::uint16_t>(get_le(2));
  }
  [[nodiscard]] std::uint32_t get_u32() {
    return static_cast<std::uint32_t>(get_le(4));
  }
  [[nodiscard]] std::uint64_t get_u64() { return get_le(8); }
  [[nodiscard]] std::int64_t get_i64() {
    return static_cast<std::int64_t>(get_u64());
  }
  [[nodiscard]] double get_real();
  [[nodiscard]] std::string get_string();
  /// u32 element count ahead of `min_bytes`-or-larger elements.  Counts
  /// come from the file, and a CRC is no defence against a crafted one, so
  /// a count the remaining bytes cannot hold throws SimulationError
  /// ("implausible <what> count N") before anything is allocated for it.
  [[nodiscard]] std::uint32_t get_count(std::size_t min_bytes,
                                        std::string_view what);

  /// Payloads may carry values (decode_value recurses through their
  /// codecs), so a crafted file could nest them deeper than the stack
  /// holds.  decode_value brackets each payload with these; entering past
  /// kMaxNesting throws SimulationError.
  static constexpr std::size_t kMaxNesting = 256;
  void enter_payload();
  void leave_payload() noexcept { --nesting_; }

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept {
    return pos_ == bytes_.size();
  }

 private:
  [[nodiscard]] std::uint64_t get_le(int n);
  std::string_view bytes_;
  std::size_t pos_ = 0;
  std::size_t nesting_ = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `n` bytes; chain calls by
/// passing the previous return as `seed`.
[[nodiscard]] std::uint32_t crc32_bytes(const void* data, std::size_t n,
                                        std::uint32_t seed = 0);

// --- payload codecs --------------------------------------------------------

using PayloadEncoder =
    std::function<void(const liberty::Payload&, ByteWriter&)>;
using PayloadDecoder = std::function<liberty::Value(ByteReader&)>;

/// Register a codec for one Payload subclass under a stable wire `name`.
/// Idempotent by name: re-registering the same name is a no-op, so the
/// component libraries' register_*() entry points may run repeatedly.
void register_payload_codec(std::string name, std::type_index type,
                            PayloadEncoder encode, PayloadDecoder decode);
[[nodiscard]] bool payload_codec_registered(std::string_view name);

/// Serialize one Value (recursively: payloads may embed Values).  Throws
/// SimulationError when a payload type has no registered codec.
void encode_value(ByteWriter& w, const liberty::Value& v);
/// Inverse of encode_value.  Throws SimulationError on an unknown codec
/// name or malformed bytes.
[[nodiscard]] liberty::Value decode_value(ByteReader& r);

// --- checkpoint container --------------------------------------------------

inline constexpr std::uint32_t kCheckpointMagic = 0x504b434cU;  // "LCKP"
inline constexpr std::uint32_t kCheckpointVersion = 1;

struct CheckpointImage {
  std::uint64_t topology_hash = 0;  // Netlist::topology_hash() at save
  std::uint64_t aux_seed = 0;       // workload/plan seed echo (diagnostics)
  KernelSnapshot snapshot;          // cycle, stop flag, module slots
  std::vector<std::uint64_t> trace_hashes;  // per-cycle prefix [0, cycle)
};

/// Serialize to the on-disk v1 format.  Throws SimulationError when a slot
/// holds a payload with no registered codec.
[[nodiscard]] std::string serialize_checkpoint(const CheckpointImage& img);

/// Parse bytes back into `out`.  Returns false with a human-readable
/// `why` on any defect (truncation, CRC mismatch, bad magic/version,
/// unknown payload codec) — never throws for malformed input.  Topology
/// compatibility is the caller's check: compare out.topology_hash.
[[nodiscard]] bool parse_checkpoint(std::string_view bytes,
                                    CheckpointImage& out, std::string& why);

}  // namespace liberty::core
