#include "liberty/support/strings.hpp"

#include <cctype>
#include <charconv>

namespace liberty {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += sep;
    out += items[i];
  }
  return out;
}

bool is_identifier(std::string_view s) {
  if (s.empty()) return false;
  const auto head = static_cast<unsigned char>(s.front());
  if (!(std::isalpha(head) || head == '_')) return false;
  for (char c : s.substr(1)) {
    const auto u = static_cast<unsigned char>(c);
    if (!(std::isalnum(u) || u == '_')) return false;
  }
  return true;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  // from_chars on an unsigned type accepts neither sign nor whitespace.
  std::uint64_t v = 0;
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  out = v;
  return true;
}

}  // namespace liberty
