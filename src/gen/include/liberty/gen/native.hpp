// liberty::gen — what is left of the deleted native codegen backend.
//
// The compiled bytecode backend (compiled_scheduler.hpp) is the one
// construction-time code generator.  This header stays only because the
// benchmark binary (perfbench/main.cpp) records native_available() in its
// build fingerprint; it goes with the next change to the benchmark.
#pragma once

namespace liberty::gen {

/// Always false: no build carries a native backend any more.
[[nodiscard]] inline bool native_available() noexcept { return false; }

}  // namespace liberty::gen
