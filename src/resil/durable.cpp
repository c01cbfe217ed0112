#include "liberty/resil/durable.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "liberty/obs/metrics.hpp"
#include "liberty/resil/injector.hpp"
#include "liberty/support/error.hpp"

namespace liberty::resil {

namespace fs = std::filesystem;

namespace {

constexpr const char* kPrefix = "ckpt-";
constexpr const char* kSuffix = ".lck";

[[nodiscard]] std::string checkpoint_filename(core::Cycle cycle) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%s%012llu%s", kPrefix,
                static_cast<unsigned long long>(cycle), kSuffix);
  return buf;
}

/// Cycle number encoded in a checkpoint filename; false when the name
/// doesn't match the ckpt-NNNN.lck pattern.
[[nodiscard]] bool filename_cycle(const std::string& name, core::Cycle& out) {
  const std::size_t plen = std::strlen(kPrefix);
  const std::size_t slen = std::strlen(kSuffix);
  if (name.size() <= plen + slen || name.rfind(kPrefix, 0) != 0 ||
      name.compare(name.size() - slen, slen, kSuffix) != 0) {
    return false;
  }
  const std::string digits = name.substr(plen, name.size() - plen - slen);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = static_cast<core::Cycle>(std::strtoull(digits.c_str(), nullptr, 10));
  return true;
}

[[nodiscard]] bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

/// Write bytes durably: tmp file, fsync, atomic rename, directory fsync.
/// Returns false with `err` set on any syscall failure.
[[nodiscard]] bool write_atomic(const std::string& dir,
                                const std::string& final_name,
                                const std::string& bytes, std::string& err) {
  const std::string tmp = dir + "/." + final_name + ".tmp";
  const std::string final_path = dir + "/" + final_name;
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    err = "open " + tmp + ": " + std::strerror(errno);
    return false;
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      err = "write " + tmp + ": " + std::strerror(errno);
      ::close(fd);
      ::unlink(tmp.c_str());
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    err = "fsync " + tmp + ": " + std::strerror(errno);
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    err = "rename to " + final_path + ": " + std::strerror(errno);
    ::unlink(tmp.c_str());
    return false;
  }
  // Persist the rename itself; without this a crash can forget the file.
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

/// Seeded truncation point for an injected torn write: always a strict
/// prefix, deterministic in (seed, cycle).
[[nodiscard]] std::size_t torn_length(std::uint64_t seed, core::Cycle cycle,
                                      std::size_t full) {
  std::uint64_t h = core::kFnv1aInit;
  h = core::fnv1a_mix(h, seed);
  h = core::fnv1a_mix(h, static_cast<std::uint64_t>(cycle) + 1);
  return full == 0 ? 0 : static_cast<std::size_t>(h % full);
}

}  // namespace

std::vector<CheckpointCandidate> scan_checkpoints(
    const std::string& dir, std::uint64_t topology_hash) {
  std::vector<CheckpointCandidate> list;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file(ec)) continue;
    CheckpointCandidate cand;
    cand.path = entry.path().string();
    if (!filename_cycle(entry.path().filename().string(), cand.cycle)) {
      continue;  // .tmp leftovers, foreign files
    }
    std::string bytes;
    if (!read_file(cand.path, bytes)) {
      cand.reason = "unreadable";
      list.push_back(std::move(cand));
      continue;
    }
    cand.bytes = bytes.size();
    core::CheckpointImage img;
    std::string why;
    if (!core::parse_checkpoint(bytes, img, why)) {
      cand.reason = why;
    } else if (topology_hash != 0 && img.topology_hash != topology_hash) {
      cand.reason = "topology mismatch (checkpoint belongs to a different "
                    "netlist shape)";
    } else if (img.version != core::kCheckpointVersion) {
      // Its state would restore, but the resumed run's trace digest would
      // mix two payload folds: refuse rather than report a wrong digest.
      cand.reason = "format v" + std::to_string(img.version) +
                    " trace hashes fold payloads by describe(); this build "
                    "(v" + std::to_string(core::kCheckpointVersion) +
                    ") folds payload fields and cannot continue them";
    } else {
      cand.valid = true;
      cand.cycle = img.snapshot.cycle;  // trust the file over the name
    }
    list.push_back(std::move(cand));
  }
  std::sort(list.begin(), list.end(),
            [](const CheckpointCandidate& a, const CheckpointCandidate& b) {
              if (a.cycle != b.cycle) return a.cycle > b.cycle;
              return a.path > b.path;
            });
  return list;
}

std::string describe_candidates(const std::string& dir,
                                const std::vector<CheckpointCandidate>& list) {
  std::string s = "checkpoint dir '" + dir + "': ";
  if (list.empty()) {
    std::error_code ec;
    s += fs::exists(dir, ec) ? "no checkpoint files found"
                             : "directory does not exist";
    return s;
  }
  s += std::to_string(list.size()) + " candidate(s):";
  for (const CheckpointCandidate& c : list) {
    s += "\n  " + fs::path(c.path).filename().string() + " (cycle " +
         std::to_string(c.cycle) + ", " + std::to_string(c.bytes) + " bytes): ";
    s += c.valid ? "ok" : "REJECTED: " + c.reason;
  }
  return s;
}

DurableSupervisor::DurableSupervisor(core::Netlist& netlist,
                                     SupervisorConfig cfg,
                                     DurableConfig durable,
                                     FaultInjector* injector,
                                     Watchdog* watchdog)
    : Supervisor(netlist, cfg, injector, watchdog),
      durable_(std::move(durable)) {
  if (durable_.dir.empty()) {
    throw liberty::Error("DurableConfig.dir must name a run directory");
  }
  std::error_code ec;
  fs::create_directories(durable_.dir, ec);
  if (ec) {
    diagnostics_.push_back("checkpoint dir '" + durable_.dir +
                           "' cannot be created: " + ec.message() +
                           " — running without durability");
  }
}

void DurableSupervisor::note(RecoveryReport* rep, std::string msg) {
  diagnostics_.push_back(msg);
  if (rep != nullptr) rep->events.push_back(std::move(msg));
}

void DurableSupervisor::on_run_start(RecoveryReport& rep) {
  if (!durable_.resume) return;
  const std::uint64_t topo = netlist_.topology_hash();
  const std::vector<CheckpointCandidate> candidates =
      scan_checkpoints(durable_.dir, topo);
  // A restore that throws part way has already loaded the modules before
  // the one that refused its slots; put the fresh state back before the
  // next candidate, or before starting fresh.
  const core::KernelSnapshot fresh = sim_->snapshot();
  for (const CheckpointCandidate& cand : candidates) {
    if (!cand.valid) {
      ++stats_.corrupt_skipped;
      note(&rep, "resume: skipped " + fs::path(cand.path).filename().string() +
                     ": " + cand.reason);
      continue;
    }
    std::string bytes;
    core::CheckpointImage img;
    std::string why;
    if (!read_file(cand.path, bytes) ||
        !core::parse_checkpoint(bytes, img, why)) {
      ++stats_.corrupt_skipped;
      note(&rep, "resume: skipped " + fs::path(cand.path).filename().string() +
                     ": " + (why.empty() ? "unreadable" : why));
      continue;
    }
    try {
      sim_->restore(img.snapshot);
    } catch (const liberty::Error& e) {
      sim_->restore(fresh);
      ++stats_.corrupt_skipped;
      note(&rep, "resume: skipped " + fs::path(cand.path).filename().string() +
                     ": restore failed: " + e.what());
      continue;
    }
    recorder_.preload(std::move(img.trace_hashes));
    resumed_cycle_ = img.snapshot.cycle;
    last_spilled_cycle_ = static_cast<std::int64_t>(img.snapshot.cycle);
    ++stats_.resumes;
    note(&rep, "resumed from " + fs::path(cand.path).filename().string() +
                   " at cycle " + std::to_string(resumed_cycle_));
    return;
  }
  // Nothing usable — start fresh, and show exactly what was found and why
  // it was rejected (the shared lss_run/rack_sim message path).
  note(&rep, describe_candidates(durable_.dir, candidates));
  note(&rep, "resume: no valid checkpoint; starting fresh from cycle 0");
}

void DurableSupervisor::on_checkpoint(RecoveryReport& rep) {
  if (static_cast<std::int64_t>(checkpoint_.cycle) == last_spilled_cycle_) {
    return;  // the resume point (or a rollback target) is already on disk
  }
  spill(&rep);
}

void DurableSupervisor::spill(RecoveryReport* rep) {
  const core::Cycle cycle = checkpoint_.cycle;
  if (injector_ != nullptr &&
      injector_->env_fault_fires(FaultClass::CheckpointEnospc, cycle)) {
    ++stats_.write_failures;
    if (stats_.write_failures == 1) {
      note(rep, "checkpoint at cycle " + std::to_string(cycle) +
                    " suppressed: injected ENOSPC (run continues undurable)");
    }
    return;
  }
  core::CheckpointImage img;
  img.topology_hash = netlist_.topology_hash();
  img.aux_seed = durable_.aux_seed;
  img.snapshot = checkpoint_;
  img.trace_hashes = recorder_.hashes();
  img.trace_hashes.resize(cycle, core::kFnv1aInit);
  std::string bytes;
  try {
    bytes = core::serialize_checkpoint(img);
  } catch (const liberty::Error& e) {
    ++stats_.write_failures;
    if (!encode_failed_) {
      encode_failed_ = true;
      note(rep, std::string("checkpoint serialization failed: ") + e.what() +
                    " (run continues undurable)");
    }
    return;
  }
  if (injector_ != nullptr &&
      injector_->env_fault_fires(FaultClass::TornCheckpoint, cycle)) {
    bytes.resize(torn_length(injector_->plan().seed, cycle, bytes.size()));
    note(rep, "checkpoint at cycle " + std::to_string(cycle) +
                  ": injected torn write (" + std::to_string(bytes.size()) +
                  " bytes)");
  }
  std::string err;
  if (!write_atomic(durable_.dir, checkpoint_filename(cycle), bytes, err)) {
    ++stats_.write_failures;
    if (stats_.write_failures == 1) {
      note(rep, "checkpoint write failed: " + err +
                    " (run continues undurable)");
    }
    return;
  }
  ++stats_.checkpoints_written;
  stats_.bytes_written += bytes.size();
  last_spilled_cycle_ = static_cast<std::int64_t>(cycle);
  prune();
}

void DurableSupervisor::prune() {
  if (durable_.keep_last == 0) return;
  // Retention is by filename cycle, validity-agnostic: a torn newest file
  // must not evict the older good one past the window, so keep_last counts
  // files, and the scanner still sees every survivor.
  std::vector<std::pair<core::Cycle, std::string>> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(durable_.dir, ec)) {
    if (ec) return;
    core::Cycle cycle = 0;
    if (!entry.is_regular_file(ec) ||
        !filename_cycle(entry.path().filename().string(), cycle)) {
      continue;
    }
    files.emplace_back(cycle, entry.path().string());
  }
  if (files.size() <= durable_.keep_last) return;
  std::sort(files.begin(), files.end());
  const std::size_t drop = files.size() - durable_.keep_last;
  for (std::size_t i = 0; i < drop; ++i) {
    fs::remove(files[i].second, ec);
  }
}

void DurableSupervisor::on_cycle_committed(core::Cycle now) {
  if (durable_.kill_at != 0 && now >= durable_.kill_at) {
    // The crash harness's guillotine: die exactly as SIGKILL from outside
    // would — no destructors, no flushes, mid-run.
    ::raise(SIGKILL);
  }
}

void DurableSupervisor::export_metrics(obs::MetricsRegistry& reg) const {
  reg.add_counter("resil.supervisor.checkpoints_written",
                  stats_.checkpoints_written);
  reg.add_counter("resil.supervisor.checkpoint_bytes", stats_.bytes_written);
  reg.add_counter("resil.supervisor.resumes", stats_.resumes);
  reg.add_counter("resil.supervisor.corrupt_skipped", stats_.corrupt_skipped);
  reg.add_counter("resil.supervisor.write_failures", stats_.write_failures);
}

}  // namespace liberty::resil
