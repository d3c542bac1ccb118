#pragma once

// The benchmark's result oracle. It holds its own copy of the base rows the
// paper's queries read (taken once with plain `SELECT *`, plus every row the
// benchmark appends) and evaluates each query instance with its own code:
// no engine plan, rewrite, view or c-table is involved, so a wrong answer
// from any strategy shows up as a mismatch here.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/database.h"

namespace perfbench {

/// The queries the benchmark runs. Q1..Q7 are the paper's Figure 1
/// queries; kTpchQ1 is a TPC-H-Q1-shaped aggregate over lineitem (several
/// SUMs, decimal products and date differences in one pass).
enum class QueryKind { kQ1, kQ2, kQ3, kQ4, kQ5, kQ6, kQ7, kTpchQ1 };

const char* QueryName(QueryKind kind);

/// One parameterized instance. `d` is a date (days since epoch) for Q1..Q6
/// and kTpchQ1; Q7's parameter is the fixed return flag 'R'. `top_k` > 0
/// asks for the ORDER BY <aggregate> DESC, <group columns> LIMIT k variant.
struct Instance {
  QueryKind kind = QueryKind::kQ1;
  int32_t d = 0;
  int top_k = 0;
};

/// A result as a sorted multiset of canonical row strings. Integers, dates
/// and decimals render as their exact int64 payload (decimals scaled x100),
/// strings as themselves, so INT32/INT64/DECIMAL outputs of different
/// strategies compare equal when their values are.
using Canonical = std::vector<std::string>;

/// Canonical form of an engine result (sorted rows).
Canonical Canonicalize(const elephant::QueryResult& result);

struct LineRow {
  int32_t orderkey = 0;
  int32_t suppkey = 0;
  int32_t quantity = 0;
  int64_t extprice = 0;  ///< decimal, scaled x100
  int64_t discount = 0;  ///< decimal, scaled x100
  int64_t tax = 0;       ///< decimal, scaled x100
  char returnflag = 'N';
  char linestatus = 'O';
  int32_t shipdate = 0;
  int32_t receiptdate = 0;
};

struct OrderRow {
  int32_t custkey = 0;
  int32_t orderdate = 0;
};

class Oracle {
 public:
  /// Reads lineitem, orders, customer and supplier once with `SELECT *`.
  elephant::Status Load(elephant::Database* db);

  /// Records rows the benchmark appended through SQL INSERT.
  void AppendOrder(int32_t orderkey, const OrderRow& row);
  void AppendLine(const LineRow& row);
  /// Forgets every order with key >= `first_key` and its lineitems (the
  /// benchmark deleted them again).
  void RemoveOrdersFrom(int32_t first_key);

  /// The expected result of `inst`, as a canonical multiset.
  Canonical Expected(const Instance& inst) const;

  /// Date D such that `column > D` holds for about `fraction` of the table's
  /// rows (l_shipdate over lineitem, o_orderdate over orders), picked the
  /// way the paper's sweep picks its parameters: walk the distinct dates
  /// downwards until the rows above reach the fraction.
  int32_t ShipdateForSelectivity(double fraction) const;
  int32_t OrderdateForSelectivity(double fraction) const;
  /// Share of the instance's projection rows its filter keeps (the number
  /// the paper's per-query join hint is chosen from).
  double Selectivity(const Instance& inst) const;

  size_t num_orders() const { return num_orders_; }
  size_t num_customers() const { return num_customers_; }
  size_t num_suppliers() const { return num_suppliers_; }
  int32_t max_orderkey() const {
    return static_cast<int32_t>(orders_.size()) - 1;
  }

 private:
  int32_t DateForSelectivity(const std::map<int32_t, uint64_t>& counts,
                             double fraction) const;

  std::vector<LineRow> lines_;
  /// Indexed by o_orderkey; keys are dense from 1 (slot 0 unused).
  std::vector<OrderRow> orders_;
  std::vector<bool> order_present_;
  size_t num_orders_ = 0;
  /// Indexed by c_custkey (slot 0 unused), value c_nationkey.
  std::vector<int32_t> nation_of_customer_;
  size_t num_customers_ = 0;
  size_t num_suppliers_ = 0;
  /// Lineitem rows per l_shipdate; orders rows per o_orderdate.
  std::map<int32_t, uint64_t> shipdates_;
  std::map<int32_t, uint64_t> orderdates_;
};

}  // namespace perfbench
