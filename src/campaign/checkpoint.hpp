// Atomic campaign checkpoints.
//
// A campaign directory holds four artifacts:
//   manifest.json — the job description, written once by `run`/`init`;
//   shards.jsonl  — the shard ledger, one flat-JSON line appended per
//                   completed shard (the source of truth on resume);
//   status.json   — the folded summary plus svc_* keys, written by every
//                   coordinator tick (service/coordinator.hpp);
//   leases/       — one lease file per shard in flight (service/lease.hpp).
//
// Whole-file artifacts are replaced via unique-temp + fsync + rename, so
// a kill at any instant leaves either the previous consistent version or
// the new one — never a torn file — even with many processes writing the
// same path. The ledger is append-only: each completed shard is one
// O_APPEND write of one newline-terminated line, which multiple worker
// processes can interleave safely (whole lines, never bytes). Loading
// sorts lines by shard index and drops duplicates, so the fold — always
// in shard-index order from shard 0 — is bit-identical to the
// uninterrupted single-process run no matter which workers wrote which
// lines in which order. A long-lived reader keeps its byte offset and
// reads only what was appended since (`read_ledger`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/shard.hpp"

namespace samurai::campaign {

/// Atomically replace `path` with `content` (unique temp file + fsync +
/// rename; safe under concurrent writers of the same path).
/// Throws std::runtime_error on I/O failure.
void write_file_atomic(const std::string& path, const std::string& content);

/// Read a whole file. Throws std::runtime_error if unreadable.
std::string read_file(const std::string& path);

class Checkpoint {
 public:
  explicit Checkpoint(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const noexcept { return dir_; }
  std::string manifest_path() const { return dir_ + "/manifest.json"; }
  std::string ledger_path() const { return dir_ + "/shards.jsonl"; }
  std::string state_path() const { return dir_ + "/state.json"; }
  /// The coordinator's machine-readable endpoint (svc_* keys + results).
  std::string status_path() const { return dir_ + "/status.json"; }

  /// Create the directory (parents included) and write the manifest.
  /// Throws std::runtime_error if a ledger already exists (an interrupted
  /// campaign must be resumed, not silently restarted).
  void init(const Manifest& manifest) const;

  bool has_ledger() const;
  Manifest load_manifest() const;  ///< throws if missing/invalid

  /// Completed shards sorted by index, duplicates dropped (first line
  /// wins; re-runs of a reclaimed shard are bit-identical anyway, so a
  /// duplicate can never change the fold). Lines that are not complete,
  /// parseable shard records — a torn tail from a writer killed
  /// mid-append, or a fenced-off fragment from a later append's repair —
  /// are skipped with a warning on stderr, never silently folded; the
  /// affected shard simply counts as not-yet-run and is executed again.
  /// Equivalent to `read_ledger(0, shards)` into an empty vector.
  std::vector<ShardResult> load_ledger() const;

  /// Incremental load: parse the ledger's whole lines from byte `offset`
  /// on and merge them into `shards` (a previous result of this call or of
  /// `load_ledger`), keeping it sorted by index with the first line of
  /// each index winning. Returns the offset to pass next time: the end of
  /// the last whole line, so an unterminated tail is read again once its
  /// append completes (or a later append fences it off).
  std::uint64_t read_ledger(std::uint64_t offset,
                            std::vector<ShardResult>& shards) const;

  /// Append one completed shard to the ledger: a single durable O_APPEND
  /// write, safe under concurrent appenders (other worker processes).
  void append_ledger(const ShardResult& shard) const;

  /// Replace state.json. Unused by the library (status.json carries the
  /// same fields); kept while the benchmark still calls it.
  void store_state(const std::string& state_json) const;

 private:
  std::string dir_;
};

}  // namespace samurai::campaign
