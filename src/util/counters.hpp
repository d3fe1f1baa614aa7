// Counter tables (DESIGN.md §18). A stats struct lists each counter once
// as a field and once as a row {ledger key, member pointer} of its table;
// merging, diffing, the process-wide atomic registry and every JSON
// reader and writer walk the table instead of naming fields.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>

namespace samurai::util {

/// One table row. `key` is the counter's name in the shard ledger,
/// `status.json` and bench JSON: a stable on-disk format, read back with
/// a zero default so files older than the counter keep parsing.
template <typename Stats, typename T>
struct Counter {
  const char* key;
  T Stats::*field;
};

template <typename Stats, typename T, std::size_t N>
using CounterTable = std::array<Counter<Stats, T>, N>;

/// Process-wide atomic mirror of one table, indexed in table order.
template <typename T, std::size_t N>
using CounterRegistry = std::array<std::atomic<T>, N>;

/// `into += other`, row by row.
template <typename Stats, typename T, std::size_t N>
void add_counters(const CounterTable<Stats, T, N>& table, Stats& into,
                  const Stats& other) {
  for (const auto& row : table) into.*row.field += other.*row.field;
}

/// `into -= other`, row by row.
template <typename Stats, typename T, std::size_t N>
void subtract_counters(const CounterTable<Stats, T, N>& table, Stats& into,
                       const Stats& other) {
  for (const auto& row : table) into.*row.field -= other.*row.field;
}

/// `into = registry`, row by row.
template <typename Stats, typename T, std::size_t N>
void load_counters(const CounterTable<Stats, T, N>& table,
                   const CounterRegistry<T, N>& registry, Stats& into) {
  for (std::size_t i = 0; i < N; ++i) {
    into.*table[i].field = registry[i].load(std::memory_order_relaxed);
  }
}

/// `registry += stats`, row by row. Relaxed: a counter orders nothing.
template <typename Stats, typename T, std::size_t N>
void publish_counters(const CounterTable<Stats, T, N>& table,
                      CounterRegistry<T, N>& registry, const Stats& stats) {
  for (std::size_t i = 0; i < N; ++i) {
    registry[i].fetch_add(stats.*table[i].field, std::memory_order_relaxed);
  }
}

}  // namespace samurai::util
