#include "liberty/core/netlist.hpp"

#include <unordered_map>
#include <unordered_set>

#include "liberty/core/state.hpp"
#include "liberty/support/error.hpp"

namespace liberty::core {

namespace {
std::string endpoint_ref(const Port& p, std::size_t i) {
  return p.owner()->name() + "." + p.name() + "[" + std::to_string(i) + "]";
}
}  // namespace

std::string Port::ref(std::size_t i) const { return endpoint_ref(*this, i); }

std::string Connection::describe() const {
  return producer_ref_ + " -> " + consumer_ref_;
}

Module& Netlist::add(std::unique_ptr<Module> m) {
  if (finalized_) {
    throw liberty::ElaborationError(
        "cannot add module after netlist is finalized");
  }
  if (find(m->name()) != nullptr) {
    throw liberty::ElaborationError("duplicate module instance name '" +
                                    m->name() + "'");
  }
  m->id_ = modules_.size();
  m->netlist_ = this;
  m->now_ = &cycle_;
  by_name_.emplace(m->name(), m.get());
  modules_.push_back(std::move(m));
  return *modules_.back();
}

Module* Netlist::find(const std::string& name) const noexcept {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

Module& Netlist::get(const std::string& name) const {
  Module* m = find(name);
  if (m == nullptr) {
    throw liberty::ElaborationError("no module instance named '" + name + "'");
  }
  return *m;
}

Connection& Netlist::connect(Port& from, Port& to) {
  return connect_at(from, from.next_free(), to, to.next_free());
}

Connection& Netlist::connect_at(Port& from, std::size_t from_idx, Port& to,
                                std::size_t to_idx) {
  if (finalized_) {
    throw liberty::ElaborationError(
        "cannot connect after netlist is finalized");
  }
  if (from.dir() != PortDir::Out) {
    throw liberty::ElaborationError("connection source " +
                                    endpoint_ref(from, from_idx) +
                                    " is not an output port");
  }
  if (to.dir() != PortDir::In) {
    throw liberty::ElaborationError("connection destination " +
                                    endpoint_ref(to, to_idx) +
                                    " is not an input port");
  }
  auto conn = std::make_unique<Connection>(
      conns_.size(), from.owner(), endpoint_ref(from, from_idx), to.owner(),
      endpoint_ref(to, to_idx));
  conn->set_ack_mode(to.default_ack_mode());
  Connection& ref = *conn;
  from.bind(from_idx, &ref);
  to.bind(to_idx, &ref);
  conns_.push_back(std::move(conn));
  return ref;
}

void Netlist::finalize() {
  if (finalized_) {
    throw liberty::ElaborationError("netlist already finalized");
  }
  // Arity checks: every port must satisfy its declared connection bounds,
  // counting only bound endpoints (gaps from connect_at count as unbound and
  // receive unconnected-default behaviour).
  for (const auto& m : modules_) {
    for (const auto& p : m->ports()) {
      std::size_t bound = 0;
      for (std::size_t i = 0; i < p->width(); ++i) {
        if (p->connected(i)) ++bound;
      }
      if (bound < p->min_connections()) {
        throw liberty::ElaborationError(
            "port " + m->name() + "." + p->name() + " requires at least " +
            std::to_string(p->min_connections()) + " connection(s), has " +
            std::to_string(bound));
      }
      if (bound > p->max_connections()) {
        throw liberty::ElaborationError(
            "port " + m->name() + "." + p->name() + " allows at most " +
            std::to_string(p->max_connections()) + " connection(s), has " +
            std::to_string(bound));
      }
    }
  }
  finalized_ = true;
  for (const auto& m : modules_) m->init();
}

void Netlist::quarantine(Module& m) {
  if (!finalized_) {
    throw liberty::ElaborationError(
        "quarantine requires a finalized netlist");
  }
  if (quarantined_.size() < modules_.size()) {
    quarantined_.resize(modules_.size(), 0);
  }
  quarantined_[m.id()] = 1;
  // With the module's own control logic out of the picture, its inputs run
  // under the paper's default control semantics: the kernel accepts every
  // offer.  (Output forwards need no mode change — undriven forwards
  // default to "offers nothing".)
  for (const auto& c : conns_) {
    if (c->consumer() == &m) c->set_ack_mode(AckMode::AutoAccept);
  }
}

std::size_t Netlist::quarantined_count() const noexcept {
  std::size_t n = 0;
  for (const char q : quarantined_) n += (q != 0) ? 1 : 0;
  return n;
}

std::uint64_t Netlist::topology_hash() const {
  // FNV-1a over the structural description (see header: stable across
  // compilers, so deliberately no typeid names).
  std::uint64_t h = kFnv1aInit;
  const auto mix_str = [&h](const std::string& s) {
    h = fnv1a_mix(h, s.size());
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
  };
  h = fnv1a_mix(h, modules_.size());
  for (const auto& m : modules_) {
    mix_str(m->name());
    h = fnv1a_mix(h, is_quarantined(m->id()) ? 1 : 0);
  }
  h = fnv1a_mix(h, conns_.size());
  for (const auto& c : conns_) {
    mix_str(c->producer() != nullptr ? c->producer()->name() : std::string());
    mix_str(c->producer_ref());
    mix_str(c->consumer() != nullptr ? c->consumer()->name() : std::string());
    mix_str(c->consumer_ref());
    h = fnv1a_mix(h, static_cast<std::uint64_t>(c->ack_mode()));
  }
  return h;
}

void Netlist::dump_stats(std::ostream& os) const {
  for (const auto& m : modules_) {
    m->stats().dump(os, m->name());
  }
}

void Netlist::write_dot(std::ostream& os) const {
  os << "digraph netlist {\n  rankdir=LR;\n  node [shape=box];\n";
  std::unordered_map<const Module*, std::string> ids;
  for (const auto& m : modules_) {
    std::string id = "m" + std::to_string(m->id());
    ids[m.get()] = id;
    os << "  " << id << " [label=\"" << m->name() << "\"];\n";
  }
  for (const auto& c : conns_) {
    os << "  " << ids[c->producer()] << " -> " << ids[c->consumer()]
       << " [label=\"" << c->producer_ref() << "\\n" << c->consumer_ref()
       << "\"];\n";
  }
  os << "}\n";
}

}  // namespace liberty::core
