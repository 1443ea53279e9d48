#pragma once
// The C&C server's relational store (the MySQL analogue).
//
// The tables Kaspersky's server analysis enumerated (paper Fig. 5
// "Database" discussion): connecting clients, encryption settings and panel
// authentication. CncServer::db() renders them from the request engine's
// state; a Database is a snapshot, not a second copy the server keeps.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cyd::cnc {

using Row = std::map<std::string, std::string>;

class Table {
 public:
  /// Appends `row` under the next id (1, 2, ...).
  void insert(Row row);
  /// The rows in id order.
  std::vector<std::pair<std::uint64_t, const Row*>> all() const;
  std::size_t size() const { return rows_.size(); }

 private:
  std::map<std::uint64_t, Row> rows_;
  std::uint64_t next_id_ = 1;
};

class Database {
 public:
  Table& table(const std::string& name) { return tables_[name]; }
  std::vector<std::string> table_names() const;
  /// Total rows across tables (server-side footprint metric).
  std::size_t total_rows() const;

 private:
  std::map<std::string, Table> tables_;
};

}  // namespace cyd::cnc
