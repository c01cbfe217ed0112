// Small string helpers used by the LSS front end, the command-line tools
// and reporting code.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace liberty {

[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Trim ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s);

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Join items with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& items,
                               std::string_view sep);

/// True when `s` is a valid identifier: [A-Za-z_][A-Za-z0-9_]*.
[[nodiscard]] bool is_identifier(std::string_view s);

/// Strict unsigned decimal, the one parser for numeric command-line flags:
/// all of `s` must be digits (no sign, whitespace or suffix) and the value
/// must fit in 64 bits.  On failure returns false and leaves `out` as is.
[[nodiscard]] bool parse_u64(std::string_view s, std::uint64_t& out);

}  // namespace liberty
