#include "apr/oracle_cache.hpp"

#include <algorithm>

namespace mwr::apr {

void OracleCache::prime(std::vector<std::uint64_t> sorted_keys,
                        std::vector<MutationSemantics> semantics) {
  if (primed() && sorted_keys == pool_keys_) return;
  primed_.store(false, std::memory_order_release);
  // A different pool invalidates any installed wave table with it.
  wave_ready_.store(false, std::memory_order_release);
  wave_ = WaveTable{};
  pool_keys_ = std::move(sorted_keys);
  pool_semantics_ = std::move(semantics);
  // Key -> pool-index table at load factor <= 1/4: one or two probes per
  // lookup in practice.
  std::size_t table_size = 16;
  while (table_size < pool_keys_.size() * 4) table_size <<= 1;
  table_mask_ = table_size - 1;
  index_table_.assign(table_size, IndexEntry{});
  for (std::size_t i = 0; i < pool_keys_.size(); ++i) {
    std::size_t slot = mix_key(pool_keys_[i]) & table_mask_;
    while (index_table_[slot].index_plus_one != 0) {
      slot = (slot + 1) & table_mask_;
    }
    index_table_[slot] =
        IndexEntry{pool_keys_[i], static_cast<std::uint32_t>(i + 1)};
  }
  primed_.store(true, std::memory_order_release);
}

void OracleCache::install_wave(WaveTable table) {
  wave_ = std::move(table);
  wave_ready_.store(true, std::memory_order_release);
}

bool OracleCache::primed_with(std::span<const std::uint64_t> keys) const {
  return primed() && keys.size() == pool_keys_.size() &&
         std::equal(keys.begin(), keys.end(), pool_keys_.begin());
}

}  // namespace mwr::apr
