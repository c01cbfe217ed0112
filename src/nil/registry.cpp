#include <typeindex>

#include "liberty/core/checkpoint.hpp"
#include "liberty/nil/nil.hpp"

namespace liberty::nil {

using liberty::core::ByteReader;
using liberty::core::ByteWriter;
using liberty::core::ModuleRegistry;
using liberty::core::simple_factory;

namespace {

void register_payload_codecs() {
  core::register_payload_codec(
      "nil.ethframe", std::type_index(typeid(EthFrame)),
      [](const Payload& p, ByteWriter& w) {
        const auto& f = static_cast<const EthFrame&>(p);
        w.put_u64(f.src_mac);
        w.put_u64(f.dst_mac);
        w.put_u32(static_cast<std::uint32_t>(f.payload.size()));
        for (const std::int64_t x : f.payload) w.put_i64(x);
        w.put_u32(f.fcs);
      },
      [](ByteReader& r) {
        const std::uint64_t src_mac = r.get_u64();
        const std::uint64_t dst_mac = r.get_u64();
        const std::uint32_t n = r.get_count(8, "frame word");
        std::vector<std::int64_t> payload;
        payload.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) payload.push_back(r.get_i64());
        // The FCS rides verbatim: a frame checkpointed mid-flight with a
        // corrupted FCS must come back still failing fcs_ok().
        const std::uint32_t fcs = r.get_u32();
        return Value::make<EthFrame>(src_mac, dst_mac, std::move(payload),
                                     fcs);
      });
}

}  // namespace

void register_nil(ModuleRegistry& r) {
  register_payload_codecs();
  r.register_template("nil.fabric_adapter",
                      "message <-> flit format converter",
                      simple_factory<FabricAdapter>());
  r.register_template("nil.nic_assist",
                      "programmable NIC hardware assists (DMA + MAC)",
                      simple_factory<NicAssist>());
}

}  // namespace liberty::nil
