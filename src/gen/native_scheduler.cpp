// Native codegen, part 3: the scheduler (only compiled when
// LIBERTY_NATIVE_CODEGEN is ON).
//
// NativeScheduler layers a dlopened image over the bytecode backend: the
// image owns every module and channel the eligibility analysis accepted,
// the inherited tapes execute the residue, and the two halves meet only
// through the kernel's per-cycle bookkeeping.  Channel states stay inside
// the image on the fast path; they are mirrored onto the real Connection
// objects exactly when someone can observe them (checked kernel, probe,
// transfer observers) or when the residue still runs reactive SCCs whose
// cleanup sweep must see every channel resolved.
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "liberty/core/simulator.hpp"
#include "liberty/gen/native.hpp"
#include "native_impl.hpp"

namespace liberty::gen {

namespace core = liberty::core;

struct NativeScheduler::Impl {
  NativePlan plan;
  std::string source;
  LoadedImage img;
  void* image = nullptr;  // ln_create handle
  LnHost host{};
  bool active = false;
  std::uint64_t retirements = 0;

  // State-streaming bridge: exactly one of these is non-null while an
  // ln_export / ln_import call is on the stack.
  core::StateWriter* writer = nullptr;
  core::StateReader* reader = nullptr;

  // --- LnHost callbacks ---------------------------------------------------
  static Impl& self(void* ctx) { return *static_cast<Impl*>(ctx); }
  static core::Module& mod(void* ctx, unsigned slot) {
    return *self(ctx).plan.slots[slot].module;
  }
  static void cb_stop(void* ctx, unsigned slot) {
    mod(ctx, slot).request_stop();
  }
  static void cb_put_u64(void* ctx, unsigned long long v) {
    self(ctx).writer->put_u64(v);
  }
  static void cb_put_i64(void* ctx, long long v) {
    self(ctx).writer->put_i64(v);
  }
  static void cb_put_tok(void* ctx) {
    self(ctx).writer->put(liberty::Value());
  }
  static unsigned long long cb_get_u64(void* ctx) {
    return self(ctx).reader->get_u64();
  }
  static long long cb_get_i64(void* ctx) {
    return self(ctx).reader->get_i64();
  }
  static void cb_get_tok(void* ctx) { (void)self(ctx).reader->get(); }
  static void cb_stat_counter(void* ctx, unsigned slot, const char* name,
                              unsigned long long delta) {
    mod(ctx, slot).stats().counter(name).inc(delta);
  }
  static void cb_stat_acc(void* ctx, unsigned slot, const char* name,
                          unsigned long long count, double sum, double mn,
                          double mx) {
    mod(ctx, slot).stats().accumulator(name).merge(count, sum, mn, mx);
  }
};

NativeScheduler::NativeScheduler(core::Netlist& netlist)
    : CompiledScheduler(netlist), impl_(std::make_unique<Impl>()) {
  // The base constructor already lowered the full netlist to bytecode, so
  // every exit below leaves a correct (if native-less) scheduler behind.
  impl_->plan = analyze_native(netlist, graph_, plan_);
  if (impl_->plan.empty()) return;

  impl_->source = emit_native_source(impl_->plan);
  if (const std::string& dump = native_options().dump_source_path;
      !dump.empty()) {
    std::ofstream(dump) << impl_->source;
  }

  std::string err;
  if (!load_native_image(impl_->source, impl_->img, err)) {
    std::fprintf(stderr,
                 "liberty: native codegen unavailable (%s); "
                 "falling back to compiled bytecode\n",
                 err.c_str());
    return;
  }

  impl_->host = LnHost{impl_.get(),          &Impl::cb_stop,
                       &Impl::cb_put_u64,    &Impl::cb_put_i64,
                       &Impl::cb_put_tok,    &Impl::cb_get_u64,
                       &Impl::cb_get_i64,    &Impl::cb_get_tok,
                       &Impl::cb_stat_counter, &Impl::cb_stat_acc};
  impl_->image = impl_->img.create(&impl_->host);
  impl_->active = true;

  // Seed the image from the modules' current state (they are the authority
  // until the first native cycle runs).
  reimport_module_state();

  // Re-lower with the image-owned modules and SCCs masked out of the
  // tapes, and re-evaluate the hook decision for the residue.
  native_module_ = impl_->plan.module_mask;
  native_scc_ = impl_->plan.scc_mask;
  lower();
  install_hooks(fast_resolve_ ? nullptr : this);
}

NativeScheduler::~NativeScheduler() {
  if (impl_->image != nullptr) impl_->img.destroy(impl_->image);
  unload_native_image(impl_->img);
}

bool NativeScheduler::native_active() const noexcept {
  return impl_->active;
}

std::size_t NativeScheduler::native_module_count() const noexcept {
  return impl_->active ? impl_->plan.slots.size() : 0;
}

std::size_t NativeScheduler::native_channel_count() const noexcept {
  return impl_->active ? impl_->plan.channels.size() : 0;
}

const std::string& NativeScheduler::native_source() const noexcept {
  return impl_->source;
}

void NativeScheduler::visit_counters(const CounterVisitor& visit) const {
  CompiledScheduler::visit_counters(visit);
  visit("gen.native_active", impl_->active ? 1 : 0);
  visit("gen.native_modules", native_module_count());
  visit("gen.native_channels", native_channel_count());
  visit("gen.native_retirements", impl_->retirements);
}

void NativeScheduler::sync_module_state() {
  if (!impl_->active) return;
  for (std::size_t s = 0; s < impl_->plan.slots.size(); ++s) {
    core::Module& m = *impl_->plan.slots[s].module;
    core::StateWriter w;
    impl_->writer = &w;
    impl_->img.export_state(impl_->image, static_cast<unsigned>(s));
    impl_->writer = nullptr;
    core::StateReader r(w.slots(), m.name());
    m.load_state(r);
  }
  impl_->img.flush_stats(impl_->image);
}

void NativeScheduler::reimport_module_state() {
  if (!impl_->active) return;
  for (std::size_t s = 0; s < impl_->plan.slots.size(); ++s) {
    core::Module& m = *impl_->plan.slots[s].module;
    core::StateWriter w;
    m.save_state(w);
    core::StateReader r(w.slots(), m.name());
    impl_->reader = &r;
    impl_->img.import_state(impl_->image, static_cast<unsigned>(s));
    impl_->reader = nullptr;
  }
}

void NativeScheduler::retire_to_bytecode() {
  // Hand state and stat authority back to the module objects, then fall
  // off the image for good: fault hooks may perturb any module or channel,
  // which voids every specialization the emitter baked in.
  sync_module_state();
  impl_->active = false;
  ++impl_->retirements;
  native_module_.clear();
  native_scc_.clear();
  lower();
  install_hooks(fast_resolve_ ? nullptr : this);
}

void NativeScheduler::start_phase() {
  if (impl_->active && fault_ != nullptr) retire_to_bytecode();
  CompiledScheduler::start_phase();
  if (impl_->active) impl_->img.start(impl_->image, cycle_);
}

void NativeScheduler::resolve_cycle() {
  if (!impl_->active) {
    CompiledScheduler::resolve_cycle();
    return;
  }
  impl_->img.resolve(impl_->image);

  // Mirror native channel states onto the real Connections whenever
  // anything outside the image can observe them.  The residue's non-fast
  // path also requires it: its cleanup sweep walks every connection and
  // must find these already resolved.
  const bool mirror = core::checked_kernel_enabled() || probe_ != nullptr ||
                      !observers_.empty() || !fast_resolve_;
  const LnChan* ch = impl_->img.chans(impl_->image);
  if (mirror) {
    for (std::size_t i = 0; i < impl_->plan.channels.size(); ++i) {
      core::Connection& c = *impl_->plan.channels[i];
      const LnChan& l = ch[i];
      if (!c.forward_known()) {
        if (l.en != 0) {
          c.send(impl_->plan.channel_token[i] != 0
                     ? liberty::Value()
                     : liberty::Value(static_cast<std::int64_t>(l.val)));
        } else {
          c.idle();
        }
      }
      if (!c.ack_known()) {
        if (l.ack != 0) {
          c.ack();
        } else {
          c.nack();
        }
      }
    }
  }
  CompiledScheduler::resolve_cycle();
  if (!mirror) {
    // The fast sweep above accounted 2 resolutions for every connection
    // but saw no state for the native ones; feed their completed
    // transfers into the dirty list by hand (quiescence-gate food).
    for (std::size_t i = 0; i < impl_->plan.channels.size(); ++i) {
      if (ch[i].en != 0 && ch[i].ack != 0) {
        ctx_.transferred.push_back(impl_->plan.channels[i]);
      }
    }
  }
}

void NativeScheduler::update_phase(std::uint64_t eoc_token) {
  CompiledScheduler::update_phase(eoc_token);
  if (impl_->active) impl_->img.commit(impl_->image, cycle_);
}

void register_native_scheduler() {
  core::set_native_scheduler_factory(
      [](core::Netlist& netlist) -> std::unique_ptr<core::SchedulerBase> {
        return std::make_unique<NativeScheduler>(netlist);
      });
}

}  // namespace liberty::gen
