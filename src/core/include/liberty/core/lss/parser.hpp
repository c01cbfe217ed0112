// Recursive-descent parser for the LSS reproduction dialect.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "liberty/core/lss/ast.hpp"

namespace liberty::core::lss {

// Front-end budgets: fixed limits, not options.  A hostile spec that
// exceeds one ends in a located diagnostic instead of overflowing the
// process stack or elaborating without bound.

/// Deepest nesting of recursive productions (parentheses, blocks, unary
/// signs) the parser accepts.
inline constexpr std::size_t kMaxNesting = 256;
/// Most elaboration steps — `for` iterations plus instances created,
/// summed over the whole spec — the elaborator performs.  Far above any
/// real spec (1024 generated hierarchical lanes take under 10k).
inline constexpr std::uint64_t kMaxElaborationSteps = 1'000'000;

/// Parse `source` into a Spec.  Throws SpecError with file/line/column on
/// syntax errors.
[[nodiscard]] Spec parse(std::string_view source, const std::string& filename);

/// Convenience: read a file and parse it.
[[nodiscard]] Spec parse_file(const std::string& path);

}  // namespace liberty::core::lss
