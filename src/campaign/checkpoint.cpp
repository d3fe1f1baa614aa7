#include "campaign/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/fs.hpp"

namespace samurai::campaign {

void write_file_atomic(const std::string& path, const std::string& content) {
  util::replace_file_durable(path, content);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("campaign: cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void Checkpoint::init(const Manifest& manifest) const {
  std::filesystem::create_directories(dir_);
  if (has_ledger()) {
    throw std::runtime_error(
        "campaign: " + dir_ +
        " already holds a shard ledger; use resume (or a fresh directory)");
  }
  write_file_atomic(manifest_path(), manifest.to_json() + "\n");
}

bool Checkpoint::has_ledger() const {
  return std::filesystem::exists(ledger_path());
}

Manifest Checkpoint::load_manifest() const {
  return Manifest::from_json(read_file(manifest_path()));
}

std::vector<ShardResult> Checkpoint::load_ledger() const {
  std::vector<ShardResult> shards;
  read_ledger(0, shards);
  return shards;
}

std::uint64_t Checkpoint::read_ledger(std::uint64_t offset,
                                      std::vector<ShardResult>& shards) const {
  if (!has_ledger()) return offset;
  std::ifstream in(ledger_path(), std::ios::binary);
  if (!in) throw std::runtime_error("campaign: cannot read " + ledger_path());
  in.seekg(static_cast<std::streamoff>(offset));
  std::ostringstream appended;
  appended << in.rdbuf();
  const std::string text = appended.str();

  const std::size_t old_size = shards.size();
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      // Unterminated tail: a writer died mid-append. The shard it was
      // recording counts as not-run and will be executed again; the next
      // append fences the fragment off with a newline.
      std::fprintf(stderr,
                   "campaign: ignoring torn trailing line in %s "
                   "(writer died mid-append; shard will be re-run)\n",
                   ledger_path().c_str());
      break;
    }
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;  // fence newline from a torn-tail repair
    try {
      // A torn line that a later append fenced off is a byte-wise *prefix*
      // of a record, so it can never end in the closing brace — the lenient
      // parser would otherwise accept the fragment's leading fields as a
      // (wrong) record. Demand the whole object.
      if (line.front() != '{' || line.back() != '}') {
        throw std::runtime_error("truncated shard record");
      }
      ShardResult shard = ShardResult::from_json(line);
      // A parseable object that lacks the shard fields is a fenced-off
      // fragment that happened to close as valid JSON — not a record.
      if (shard.samples == 0 && shard.fails.count == 0 &&
          shard.value.count == 0) {
        throw std::runtime_error("not a shard record");
      }
      shards.push_back(std::move(shard));
    } catch (const std::exception&) {
      std::fprintf(stderr,
                   "campaign: ignoring malformed line in %s "
                   "(torn write; shard will be re-run)\n",
                   ledger_path().c_str());
    }
  }

  // Worker processes append in completion order, not index order; the
  // fold contract is index order from shard 0, so sort here. Duplicate
  // indices (a reclaimed lease whose original owner also finished) keep
  // the first-appended line; both are bit-identical by the determinism
  // contract, so this is a tie-break, not a choice. Both sort and merge
  // are stable, so earlier lines stay ahead of later ones of equal index.
  const auto fresh = shards.begin() + static_cast<std::ptrdiff_t>(old_size);
  std::ranges::stable_sort(fresh, shards.end(), {}, &ShardResult::index);
  std::ranges::inplace_merge(shards, fresh, {}, &ShardResult::index);
  const auto duplicates = std::ranges::unique(shards, {}, &ShardResult::index);
  shards.erase(duplicates.begin(), duplicates.end());
  return offset + pos;  // a torn tail stays unread
}

void Checkpoint::append_ledger(const ShardResult& shard) const {
  util::append_line_durable(ledger_path(), shard.to_json());
}

void Checkpoint::store_state(const std::string& state_json) const {
  write_file_atomic(state_path(), state_json + "\n");
}

}  // namespace samurai::campaign
