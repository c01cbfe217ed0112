#include "liberty/scenario/trace.hpp"

#include <algorithm>
#include <sstream>

#include "liberty/support/error.hpp"
#include "liberty/support/rng.hpp"
#include "liberty/support/strings.hpp"

namespace liberty::scenario {

std::vector<TraceRequest> synthetic_trace(const TraceConfig& cfg) {
  if (cfg.nodes < 2) {
    throw liberty::ElaborationError(
        "scenario.trace: synthetic traces need >= 2 nodes");
  }
  if (cfg.min_words < 2 || cfg.max_words < cfg.min_words) {
    throw liberty::ElaborationError(
        "scenario.trace: need 2 <= min_words <= max_words");
  }
  liberty::Rng rng(cfg.seed);
  std::vector<TraceRequest> reqs;
  reqs.reserve(cfg.nodes * cfg.per_node);
  for (std::size_t src = 0; src < cfg.nodes; ++src) {
    std::uint64_t at = cfg.start;
    for (std::size_t k = 0; k < cfg.per_node; ++k) {
      TraceRequest r;
      r.cycle = at;
      r.src = src;
      // Uniform destination among the *other* nodes.
      r.dst = static_cast<std::size_t>(rng.below(cfg.nodes - 1));
      if (r.dst >= src) ++r.dst;
      r.words = cfg.min_words + static_cast<std::size_t>(rng.below(
                                    cfg.max_words - cfg.min_words + 1));
      reqs.push_back(r);
      at += 1 + rng.below(2 * cfg.mean_gap);
    }
  }
  std::stable_sort(reqs.begin(), reqs.end(),
                   [](const TraceRequest& a, const TraceRequest& b) {
                     if (a.cycle != b.cycle) return a.cycle < b.cycle;
                     return a.src < b.src;
                   });
  for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i].id = i;
  return reqs;
}

std::string render_trace(const std::vector<TraceRequest>& reqs) {
  std::ostringstream os;
  os << "# liberty.trace v1\n";
  for (const TraceRequest& r : reqs) {
    os << "req " << r.cycle << ' ' << r.src << ' ' << r.dst << ' ' << r.words
       << '\n';
  }
  return os.str();
}

std::vector<TraceRequest> parse_trace(const std::string& text) {
  std::vector<TraceRequest> reqs;
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue;  // blank / comment-only line
    const auto fail = [&](const std::string& what) {
      return liberty::ElaborationError("scenario.trace: line " +
                                       std::to_string(lineno) + ": " + what);
    };
    if (word != "req") throw fail("expected 'req', got '" + word + "'");
    // Each field is a strict unsigned decimal: istream >> into an unsigned
    // type would wrap "-1" and stop silently at "4.9" or "4junk".
    std::uint64_t field[4] = {};
    static constexpr const char* kFieldNames[4] = {"cycle", "src", "dst",
                                                   "words"};
    for (int f = 0; f < 4; ++f) {
      if (!(ls >> word)) {
        throw fail("expected 'req <cycle> <src> <dst> <words>'");
      }
      if (!liberty::parse_u64(word, field[f])) {
        throw fail(std::string("<") + kFieldNames[f] + "> '" + word +
                   "' is not an unsigned 64-bit decimal");
      }
    }
    if (ls >> word) {
      throw fail("unexpected '" + word + "' after <words>");
    }
    TraceRequest r;
    r.cycle = field[0];
    r.src = static_cast<std::size_t>(field[1]);
    r.dst = static_cast<std::size_t>(field[2]);
    r.words = static_cast<std::size_t>(field[3]);
    if (r.words < 2) {
      throw fail("payloads carry an id and a birth cycle, so words >= 2");
    }
    r.id = reqs.size();
    reqs.push_back(r);
  }
  return reqs;
}

}  // namespace liberty::scenario
