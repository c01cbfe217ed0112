#include "liberty/core/checkpoint.hpp"

#include <array>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "liberty/support/error.hpp"

namespace liberty::core {

// --- byte-level primitives -------------------------------------------------

void ByteWriter::put_real(double x) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(x));
  std::memcpy(&bits, &x, sizeof(bits));
  put_u64(bits);
}

void ByteWriter::put_string(std::string_view s) {
  if (s.size() > 0xffffffffULL) {
    throw liberty::SimulationError("checkpoint string too long");
  }
  put_u32(static_cast<std::uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

void ByteWriter::patch_u64(std::size_t at, std::uint64_t x) {
  if (at + 8 > buf_.size()) {
    throw liberty::SimulationError("checkpoint patch out of range");
  }
  for (int i = 0; i < 8; ++i) {
    buf_[at + static_cast<std::size_t>(i)] =
        static_cast<char>((x >> (8 * i)) & 0xffU);
  }
}

std::uint8_t ByteReader::get_u8() {
  if (pos_ >= bytes_.size()) {
    throw liberty::SimulationError("checkpoint underflow at byte " +
                                   std::to_string(pos_));
  }
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint64_t ByteReader::get_le(int n) {
  if (remaining() < static_cast<std::size_t>(n)) {
    throw liberty::SimulationError("checkpoint underflow at byte " +
                                   std::to_string(pos_));
  }
  std::uint64_t x = 0;
  for (int i = 0; i < n; ++i) {
    x |= static_cast<std::uint64_t>(
             static_cast<std::uint8_t>(bytes_[pos_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  pos_ += static_cast<std::size_t>(n);
  return x;
}

double ByteReader::get_real() {
  const std::uint64_t bits = get_u64();
  double x = 0.0;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

std::string ByteReader::get_string() {
  const std::uint32_t n = get_u32();
  if (remaining() < n) {
    throw liberty::SimulationError("checkpoint string underflow at byte " +
                                   std::to_string(pos_));
  }
  std::string s(bytes_.substr(pos_, n));
  pos_ += n;
  return s;
}

std::uint32_t ByteReader::get_count(std::size_t min_bytes,
                                    std::string_view what) {
  const std::uint32_t n = get_u32();
  if (n > remaining() / min_bytes) {
    throw liberty::SimulationError("implausible " + std::string(what) +
                                   " count " + std::to_string(n));
  }
  return n;
}

void ByteReader::enter_payload() {
  if (++nesting_ > kMaxNesting) {
    throw liberty::SimulationError("checkpoint payloads nest deeper than " +
                                   std::to_string(kMaxNesting) +
                                   " at byte " + std::to_string(pos_));
  }
}

std::uint32_t crc32_bytes(const void* data, std::size_t n,
                          std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) != 0 ? 0xedb88320U ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = seed ^ 0xffffffffU;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xffU] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffU;
}

// --- payload codecs --------------------------------------------------------

namespace {

struct Codec {
  PayloadEncoder encode;
  PayloadDecoder decode;
};

struct CodecRegistry {
  std::mutex mu;
  std::unordered_map<std::string, Codec> by_name;
  std::unordered_map<std::type_index, std::string> name_by_type;
};

CodecRegistry& codecs() {
  static CodecRegistry r;
  return r;
}

// Value wire tags (format v1 — append-only).
enum : std::uint8_t {
  kTagToken = 0,
  kTagBool = 1,
  kTagInt = 2,
  kTagReal = 3,
  kTagString = 4,
  kTagPayload = 5,
};

}  // namespace

void register_payload_codec(std::string name, std::type_index type,
                            PayloadEncoder encode, PayloadDecoder decode) {
  CodecRegistry& r = codecs();
  const std::lock_guard<std::mutex> lock(r.mu);
  if (r.by_name.count(name) != 0) return;  // idempotent re-registration
  r.name_by_type.emplace(type, name);
  r.by_name.emplace(std::move(name), Codec{std::move(encode),
                                           std::move(decode)});
}

bool payload_codec_registered(std::string_view name) {
  CodecRegistry& r = codecs();
  const std::lock_guard<std::mutex> lock(r.mu);
  return r.by_name.count(std::string(name)) != 0;
}

void encode_value(ByteWriter& w, const liberty::Value& v) {
  if (v.is_token()) {
    w.put_u8(kTagToken);
  } else if (v.is_bool()) {
    w.put_u8(kTagBool);
    w.put_u8(v.as_bool() ? 1 : 0);
  } else if (v.is_int()) {
    w.put_u8(kTagInt);
    w.put_i64(v.as_int());
  } else if (v.is_real()) {
    w.put_u8(kTagReal);
    w.put_real(v.as_real());
  } else if (v.is_string()) {
    w.put_u8(kTagString);
    w.put_string(v.as_string());
  } else {
    const auto& p =
        std::get<std::shared_ptr<const liberty::Payload>>(v.raw());
    if (p == nullptr) {
      w.put_u8(kTagToken);  // a null payload carries no information
      return;
    }
    std::string name;
    PayloadEncoder encode;
    {
      CodecRegistry& r = codecs();
      const std::lock_guard<std::mutex> lock(r.mu);
      const auto it = r.name_by_type.find(std::type_index(typeid(*p)));
      if (it != r.name_by_type.end()) {
        name = it->second;
        encode = r.by_name.at(name).encode;
      }
    }
    if (name.empty()) {
      throw liberty::SimulationError(
          "no payload codec registered for '" + p->describe() +
          "' — this state cannot be made durable");
    }
    w.put_u8(kTagPayload);
    w.put_string(name);
    encode(*p, w);
  }
}

liberty::Value decode_value(ByteReader& r) {
  switch (r.get_u8()) {
    case kTagToken: return liberty::Value();
    case kTagBool: return liberty::Value(r.get_u8() != 0);
    case kTagInt: return liberty::Value(r.get_i64());
    case kTagReal: return liberty::Value(r.get_real());
    case kTagString: return liberty::Value(r.get_string());
    case kTagPayload: {
      const std::string name = r.get_string();
      PayloadDecoder decode;
      {
        CodecRegistry& reg = codecs();
        const std::lock_guard<std::mutex> lock(reg.mu);
        const auto it = reg.by_name.find(name);
        if (it != reg.by_name.end()) decode = it->second.decode;
      }
      if (!decode) {
        throw liberty::SimulationError("unknown payload codec '" + name +
                                       "' (library not linked?)");
      }
      r.enter_payload();
      liberty::Value v = decode(r);
      r.leave_payload();
      return v;
    }
    default:
      throw liberty::SimulationError("unknown value tag in checkpoint");
  }
}

// --- checkpoint container --------------------------------------------------
//
// Layout (all little-endian):
//   u32 magic  u32 version  u64 body_len          -- 16-byte prelude
//   body: u64 topology_hash  u64 cycle  u8 stop  u64 aux_seed
//         u64 module_count  { u32 slot_count  slots... }*
//         u64 trace_count   { u64 hash }*
//   u32 crc32 over prelude+body                    -- trailer

std::string serialize_checkpoint(const CheckpointImage& img) {
  if (img.version != kCheckpointVersion) {
    throw liberty::SimulationError(
        "cannot re-serialize a v" + std::to_string(img.version) +
        " checkpoint image: its trace hashes use an older payload fold");
  }
  ByteWriter w;
  w.put_u32(kCheckpointMagic);
  w.put_u32(kCheckpointVersion);
  w.put_u64(0);  // body_len, backpatched below
  const std::size_t body_start = w.size();
  w.put_u64(img.topology_hash);
  w.put_u64(img.snapshot.cycle);
  w.put_u8(img.snapshot.stop_requested ? 1 : 0);
  w.put_u64(img.aux_seed);
  w.put_u64(img.snapshot.module_state.size());
  for (const auto& slots : img.snapshot.module_state) {
    if (slots.size() > 0xffffffffULL) {
      throw liberty::SimulationError("checkpoint module state too large");
    }
    w.put_u32(static_cast<std::uint32_t>(slots.size()));
    for (const liberty::Value& v : slots) encode_value(w, v);
  }
  w.put_u64(img.trace_hashes.size());
  for (const std::uint64_t h : img.trace_hashes) w.put_u64(h);
  w.patch_u64(8, w.size() - body_start);
  const std::uint32_t crc = crc32_bytes(w.bytes().data(), w.size());
  w.put_u32(crc);
  return std::move(w).take();
}

bool parse_checkpoint(std::string_view bytes, CheckpointImage& out,
                      std::string& why) {
  constexpr std::size_t kPrelude = 16;
  constexpr std::size_t kTrailer = 4;
  if (bytes.size() < kPrelude + kTrailer) {
    why = "truncated: " + std::to_string(bytes.size()) +
          " bytes, header needs " + std::to_string(kPrelude + kTrailer);
    return false;
  }
  try {
    ByteReader r(bytes);
    const std::uint32_t magic = r.get_u32();
    if (magic != kCheckpointMagic) {
      why = "bad magic (not a liberty checkpoint)";
      return false;
    }
    const std::uint32_t version = r.get_u32();
    if (version < kOldestCheckpointVersion || version > kCheckpointVersion) {
      why = "unsupported format version " + std::to_string(version) +
            " (this build reads v" + std::to_string(kOldestCheckpointVersion) +
            "-v" + std::to_string(kCheckpointVersion) + ")";
      return false;
    }
    out.version = version;
    const std::uint64_t body_len = r.get_u64();
    if (bytes.size() != kPrelude + body_len + kTrailer) {
      why = "torn write: file is " + std::to_string(bytes.size()) +
            " bytes, header declares " +
            std::to_string(kPrelude + body_len + kTrailer);
      return false;
    }
    const std::uint32_t want =
        crc32_bytes(bytes.data(), kPrelude + body_len);
    const std::uint32_t got =
        static_cast<std::uint32_t>(
            static_cast<std::uint8_t>(bytes[kPrelude + body_len])) |
        (static_cast<std::uint32_t>(
             static_cast<std::uint8_t>(bytes[kPrelude + body_len + 1]))
         << 8) |
        (static_cast<std::uint32_t>(
             static_cast<std::uint8_t>(bytes[kPrelude + body_len + 2]))
         << 16) |
        (static_cast<std::uint32_t>(
             static_cast<std::uint8_t>(bytes[kPrelude + body_len + 3]))
         << 24);
    if (want != got) {
      why = "crc mismatch (corrupt or torn write)";
      return false;
    }
    // Counts come from the file, and the CRC is no defence against a
    // crafted one: bound each by the bytes left before allocating (a
    // module needs at least its 4-byte slot count, a slot its 1-byte tag,
    // a trace hash 8 bytes).
    out.topology_hash = r.get_u64();
    out.snapshot.cycle = r.get_u64();
    out.snapshot.stop_requested = r.get_u8() != 0;
    out.aux_seed = r.get_u64();
    const std::uint64_t modules = r.get_u64();
    if (modules > r.remaining() / 4) {
      why = "implausible module count " + std::to_string(modules);
      return false;
    }
    out.snapshot.module_state.clear();
    out.snapshot.module_state.reserve(modules);
    for (std::uint64_t m = 0; m < modules; ++m) {
      const std::uint32_t slot_count = r.get_count(1, "slot");
      std::vector<liberty::Value> slots;
      slots.reserve(slot_count);
      for (std::uint32_t s = 0; s < slot_count; ++s) {
        slots.push_back(decode_value(r));
      }
      out.snapshot.module_state.push_back(std::move(slots));
    }
    const std::uint64_t traces = r.get_u64();
    if (traces > r.remaining() / 8) {
      why = "implausible trace-hash count " + std::to_string(traces);
      return false;
    }
    out.trace_hashes.clear();
    out.trace_hashes.reserve(traces);
    for (std::uint64_t t = 0; t < traces; ++t) {
      out.trace_hashes.push_back(r.get_u64());
    }
    if (r.pos() != kPrelude + body_len) {
      why = "trailing garbage inside checkpoint body";
      return false;
    }
  } catch (const liberty::Error& e) {
    why = e.what();
    return false;
  }
  why.clear();
  return true;
}

}  // namespace liberty::core
