// SimpleCPU: a behavioral in-order processor with a structural memory port.
//
// One instruction per cycle except loads/stores, which travel through the
// `mem_req`/`mem_resp` ports (pcl::MemReq protocol) and stall the core until
// their response returns — so cache, interconnect, and coherence timing all
// show up in the core's CPI, while the core itself stays at a high level of
// abstraction.  This is the "GP" block of the paper's Figure 2 systems, and
// the abstraction-level counterpart of the detailed structural pipeline in
// pipeline.hpp (§2.2: modules at different levels of detail interoperate
// behind identical port contracts).
//
// Memory-mapped I/O: address ranges registered with map_mmio() bypass the
// memory port and invoke device callbacks instead (1-cycle access).  The
// NIL's programmable network interface runs its firmware on exactly this
// mechanism.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "liberty/core/mmio.hpp"
#include "liberty/core/module.hpp"
#include "liberty/core/params.hpp"
#include "liberty/upl/isa.hpp"

namespace liberty::upl {

/// Parameters:
///   stop_on_halt   request simulation stop when HALT retires    [false]
///   program        LRISC assembly text, assembled at construction [""]
///
/// A program may also be attached with set_program(); the `program` string
/// parameter exists so rebuildable NetSpecs (oracle, fuzzer, scenarios) can
/// express complete systems.  As an MmioHost the cpu accepts declarative
/// device bindings (attach_mmio) in addition to raw map_mmio callbacks.
/// Stats: instructions, mem_stall_cycles, cycles.
class SimpleCpu : public liberty::core::Module, public liberty::core::MmioHost {
 public:
  using MmioRead = std::function<std::int64_t(std::uint64_t addr)>;
  using MmioWrite = std::function<void(std::uint64_t addr, std::int64_t v)>;

  SimpleCpu(const std::string& name, const liberty::core::Params& params);

  /// The program is copied; the cpu owns everything it executes.
  void set_program(Program prog) {
    prog_ = std::move(prog);
    have_program_ = true;
  }
  /// Route [base, base+size) to device callbacks instead of memory.
  void map_mmio(std::uint64_t base, std::uint64_t size, MmioRead rd,
                MmioWrite wr);
  /// MmioHost: route [base, base+size) to a device register file.
  void attach_mmio(std::uint64_t base, std::uint64_t size,
                   liberty::core::MmioDevice& device) override;

  void cycle_start(liberty::core::Cycle c) override;
  void end_of_cycle() override;
  void declare_deps(liberty::core::Deps& deps) const override;
  void save_state(liberty::core::StateWriter& w) const override;
  void load_state(liberty::core::StateReader& r) override;

  [[nodiscard]] bool halted() const noexcept { return halted_; }
  [[nodiscard]] std::uint64_t retired() const noexcept { return retired_; }
  [[nodiscard]] const std::vector<std::int64_t>& output() const noexcept {
    return output_;
  }
  [[nodiscard]] std::int64_t reg(std::size_t i) const { return regs_[i]; }
  void set_reg(std::size_t i, std::int64_t v) {
    if (i != 0) regs_[i] = v;
  }
  [[nodiscard]] std::uint64_t pc() const noexcept { return pc_; }

 private:
  struct MmioRange {
    std::uint64_t base;
    std::uint64_t size;
    MmioRead read;
    MmioWrite write;
  };

  [[nodiscard]] const MmioRange* mmio_for(std::uint64_t addr) const;
  void execute_one();

  liberty::core::Port& mem_req_;
  liberty::core::Port& mem_resp_;
  bool stop_on_halt_;

  Program prog_;
  bool have_program_ = false;
  std::vector<std::int64_t> regs_ = std::vector<std::int64_t>(32, 0);
  std::uint64_t pc_ = 0;
  bool halted_ = false;
  std::uint64_t retired_ = 0;
  std::vector<std::int64_t> output_;
  std::vector<MmioRange> mmio_;

  // In-flight memory operation.
  struct PendingMem {
    liberty::Value req;
    Instr instr;
    bool sent = false;
  };
  std::optional<PendingMem> pending_;
  std::uint64_t next_tag_ = 1;

  // Resolved-once stat handles (see StatSet::bind).
  liberty::Counter* cycles_stat_ = nullptr;
  liberty::Counter* instructions_stat_ = nullptr;
  liberty::Counter* mem_stall_cycles_stat_ = nullptr;
  liberty::Counter* mem_ops_stat_ = nullptr;
};

}  // namespace liberty::upl
