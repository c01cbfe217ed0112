#include "liberty/core/module.hpp"

#include "liberty/core/netlist.hpp"
#include "liberty/support/error.hpp"

namespace liberty::core {

Port& Module::port(const std::string& name) const {
  for (const auto& p : ports_) {
    if (p->name() == name) return *p;
  }
  throw liberty::ElaborationError("module '" + name_ + "' has no port '" +
                                  name + "'");
}

bool Module::has_port(const std::string& name) const noexcept {
  for (const auto& p : ports_) {
    if (p->name() == name) return true;
  }
  return false;
}

Port& Module::in(const std::string& name) const {
  Port& p = port(name);
  if (p.dir() != PortDir::In) {
    throw liberty::ElaborationError("port '" + name + "' of module '" + name_ +
                                    "' is not an input");
  }
  return p;
}

Port& Module::out(const std::string& name) const {
  Port& p = port(name);
  if (p.dir() != PortDir::Out) {
    throw liberty::ElaborationError("port '" + name + "' of module '" + name_ +
                                    "' is not an output");
  }
  return p;
}

Port& Module::add_in(std::string name, AckMode default_ack,
                     std::size_t min_conns, std::size_t max_conns) {
  ports_.push_back(std::make_unique<Port>(this, std::move(name), PortDir::In,
                                          min_conns, max_conns, default_ack));
  return *ports_.back();
}

Port& Module::add_out(std::string name, std::size_t min_conns,
                      std::size_t max_conns) {
  ports_.push_back(std::make_unique<Port>(this, std::move(name), PortDir::Out,
                                          min_conns, max_conns,
                                          AckMode::Managed));
  return *ports_.back();
}

void Module::request_stop() noexcept {
  if (netlist_ != nullptr) netlist_->set_stop(true);
}

}  // namespace liberty::core
