#include <typeindex>

#include "liberty/core/checkpoint.hpp"
#include "liberty/mpl/mpl.hpp"

namespace liberty::mpl {

using liberty::core::ByteReader;
using liberty::core::ByteWriter;
using liberty::core::ModuleRegistry;
using liberty::core::simple_factory;

namespace {

void put_words(ByteWriter& w, const std::vector<std::int64_t>& words) {
  w.put_u32(static_cast<std::uint32_t>(words.size()));
  for (const std::int64_t x : words) w.put_i64(x);
}

std::vector<std::int64_t> get_words(ByteReader& r) {
  const std::uint32_t n = r.get_count(8, "word");
  std::vector<std::int64_t> words;
  words.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) words.push_back(r.get_i64());
  return words;
}

void register_payload_codecs() {
  core::register_payload_codec(
      "mpl.cohmsg", std::type_index(typeid(CohMsg)),
      [](const Payload& p, ByteWriter& w) {
        const auto& m = static_cast<const CohMsg&>(p);
        w.put_u8(static_cast<std::uint8_t>(m.type));
        w.put_u64(m.line);
        w.put_u64(m.src);
        w.put_u64(m.dst);
        w.put_u64(m.tag);
        put_words(w, m.words);
        w.put_u8(m.exclusive ? 1 : 0);
      },
      [](ByteReader& r) {
        const auto type = static_cast<CohMsg::Type>(r.get_u8());
        const std::uint64_t line = r.get_u64();
        const auto src = static_cast<std::size_t>(r.get_u64());
        const auto dst = static_cast<std::size_t>(r.get_u64());
        const std::uint64_t tag = r.get_u64();
        std::vector<std::int64_t> words = get_words(r);
        const bool exclusive = r.get_u8() != 0;
        return Value::make<CohMsg>(type, line, src, dst, tag,
                                   std::move(words), exclusive);
      });
  core::register_payload_codec(
      "mpl.dmachunk", std::type_index(typeid(DmaChunk)),
      [](const Payload& p, ByteWriter& w) {
        const auto& d = static_cast<const DmaChunk&>(p);
        w.put_u64(d.dst_node);
        w.put_u64(d.dst_addr);
        put_words(w, d.words);
        w.put_u64(d.xfer_id);
        w.put_u8(d.last ? 1 : 0);
      },
      [](ByteReader& r) {
        const auto dst_node = static_cast<std::size_t>(r.get_u64());
        const std::uint64_t dst_addr = r.get_u64();
        std::vector<std::int64_t> words = get_words(r);
        const std::uint64_t xfer_id = r.get_u64();
        const bool last = r.get_u8() != 0;
        return Value::make<DmaChunk>(dst_node, dst_addr, std::move(words),
                                     xfer_id, last);
      });
}

}  // namespace

void register_mpl(ModuleRegistry& r) {
  register_payload_codecs();
  r.register_template("mpl.snoop_cache", "MSI snooping coherent cache",
                      simple_factory<SnoopCache>());
  r.register_template("mpl.snoop_memory", "memory controller on a snoop bus",
                      simple_factory<SnoopMemory>());
  r.register_template("mpl.dir_cache", "directory-protocol coherent cache",
                      simple_factory<DirCache>());
  r.register_template("mpl.directory", "full-map MSI directory + memory",
                      simple_factory<DirectoryCtl>());
  r.register_template("mpl.ordering", "SC/TSO memory ordering controller",
                      simple_factory<OrderingCtl>());
  r.register_template("mpl.dma", "DMA controller for message passing",
                      simple_factory<DmaCtl>());
}

}  // namespace liberty::mpl
