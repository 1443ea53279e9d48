#include "cnc/database.hpp"

namespace cyd::cnc {

void Table::insert(Row row) { rows_.emplace(next_id_++, std::move(row)); }

std::vector<std::pair<std::uint64_t, const Row*>> Table::all() const {
  std::vector<std::pair<std::uint64_t, const Row*>> out;
  out.reserve(rows_.size());
  for (const auto& [id, row] : rows_) out.emplace_back(id, &row);
  return out;
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, table] : tables_) out.push_back(name);
  return out;
}

std::size_t Database::total_rows() const {
  std::size_t n = 0;
  for (const auto& [name, table] : tables_) n += table.size();
  return n;
}

}  // namespace cyd::cnc
